// Tests for bench::Cli, the flag parser every bench binary uses. Each case
// runs parse() exactly as a bench main does: a declared flag is stored, and
// anything else throws the config error guarded_main turns into exit 2.
// The bench_cli ctest label drives the binaries themselves (--help exits 0;
// undeclared shared flags and unknown arguments exit 2).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/cli.hpp"

namespace ccc::bench {
namespace {

using S = Shared;

const std::initializer_list<Shared> kAll = {
    S::kJobs,      S::kSeed,   S::kDuration, S::kOut,        S::kReport, S::kSerial,
    S::kInput,     S::kScale,  S::kReadahead, S::kStrict,    S::kGrid,   S::kCheckpoint,
    S::kResume,    S::kRepeat, S::kProcs,    S::kService};

/// Runs `args` through cli.parse() as argv[1..].
void run(Cli& cli, std::vector<std::string> args) {
  static std::string prog = "bench";
  std::vector<char*> argv{prog.data()};
  for (auto& a : args) argv.push_back(a.data());
  cli.parse(static_cast<int>(argv.size()), argv.data());
}

/// A Cli declaring `shared`, after parsing `args`.
std::unique_ptr<Cli> parse(std::vector<std::string> args,
                           std::initializer_list<Shared> shared = kAll,
                           Leftovers leftovers = Leftovers::kReject) {
  auto cli = std::make_unique<Cli>("bench", shared, std::vector<Flag>{}, leftovers);
  run(*cli, std::move(args));
  return cli;
}

/// Success iff parsing `args` throws a config Error whose message names
/// `needle`.
testing::AssertionResult rejected(Cli& cli, std::vector<std::string> args,
                                  const std::string& needle) {
  try {
    run(cli, args);
  } catch (const Error& e) {
    if (e.category() != ErrorCategory::kConfig) {
      return testing::AssertionFailure() << "not a config error: " << e.what();
    }
    if (std::string{e.what()}.find(needle) == std::string::npos) {
      return testing::AssertionFailure() << "'" << e.what() << "' does not name " << needle;
    }
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure() << "accepted " << testing::PrintToString(args);
}

testing::AssertionResult rejected(std::vector<std::string> args, const std::string& needle,
                                  std::initializer_list<Shared> shared = kAll,
                                  Leftovers leftovers = Leftovers::kReject) {
  Cli cli{"bench", shared, {}, leftovers};
  return rejected(cli, std::move(args), needle);
}

TEST(BenchCli, JobsAcceptsAllSpellings) {
  EXPECT_EQ(parse({"--jobs", "8"})->jobs, 8u);
  EXPECT_EQ(parse({"--jobs=12"})->jobs, 12u);
  EXPECT_EQ(parse({"-j4"})->jobs, 4u);
  EXPECT_EQ(parse({"-j", "2"})->jobs, 2u);
  EXPECT_EQ(parse({})->jobs, 0u);  // absent -> auto-resolve
}

TEST(BenchCli, MalformedValuesAreConfigErrors) {
  EXPECT_TRUE(rejected({"--jobs=-1"}, "--jobs"));
  EXPECT_TRUE(rejected({"--jobs", "zero"}, "--jobs"));
  EXPECT_TRUE(rejected({"--seed", "12x"}, "--seed"));
  EXPECT_TRUE(rejected({"--duration", "-3"}, "--duration"));
  EXPECT_TRUE(rejected({"--duration", "nan"}, "--duration"));
  EXPECT_TRUE(rejected({"--duration=inf"}, "--duration"));
  EXPECT_TRUE(rejected({"--duration", "0"}, "--duration"));
  EXPECT_TRUE(rejected({"--out="}, "--out"));
  EXPECT_TRUE(rejected({"--repeat", "1001"}, "--repeat"));
  EXPECT_TRUE(rejected({"--procs", "0"}, "--procs"));
}

TEST(BenchCli, SeedAcceptsDecimalAndHex) {
  const auto dec = parse({"--seed", "42"});
  EXPECT_EQ(dec->seed, 42u);
  const auto hex = parse({"--seed=0xdeadbeef"});
  EXPECT_EQ(hex->seed, 0xdeadbeefu);
  EXPECT_EQ(parse({"--seed", "0"})->seed, 0u);
  EXPECT_EQ(parse({})->seed_or(7), 7u);
  EXPECT_EQ(dec->seed_or(7), 42u);
}

TEST(BenchCli, DurationIsSeconds) {
  const auto cli = parse({"--duration", "2.5"});
  ASSERT_TRUE(cli->duration_sec.has_value());
  EXPECT_DOUBLE_EQ(*cli->duration_sec, 2.5);
  EXPECT_EQ(cli->duration_or(Time::sec(9.0)), Time::sec(2.5));
  EXPECT_EQ(parse({})->duration_or(Time::sec(9.0)), Time::sec(9.0));
}

TEST(BenchCli, OutReportAndSerialFlags) {
  // parse() opens --out, so the tests point it at /dev/null.
  const auto cli = parse({"--out", "/dev/null", "--report=/tmp/r.jsonl", "--serial"});
  EXPECT_EQ(cli->out, "/dev/null");
  EXPECT_EQ(cli->report, "/tmp/r.jsonl");
  EXPECT_TRUE(cli->serial);
  EXPECT_FALSE(cli->service);
}

TEST(BenchCli, ServiceFlagIsABoolean) {
  EXPECT_TRUE(parse({"--service"})->service);
  // A switch takes no value; the `=` spelling is an error, not a pass.
  EXPECT_TRUE(rejected({"--service=on"}, "--service"));
}

TEST(BenchCli, UnrecognizedArgsPassThroughInOrder) {
  const auto cli = parse(
      {"--benchmark_filter=Sched", "--jobs", "3", "positional", "--benchmark_list_tests"},
      {S::kJobs}, Leftovers::kPassOn);
  EXPECT_EQ(cli->jobs, 3u);
  EXPECT_EQ(cli->rest, (std::vector<std::string>{"--benchmark_filter=Sched", "positional",
                                                 "--benchmark_list_tests"}));
}

TEST(BenchCli, UsageListsOnlyDeclaredFlags) {
  std::uint64_t n = 0;
  const Cli cli{"fig0", {S::kOut, S::kReport}, {flag_count("--own", "own count", 0, 9, n)}};
  const std::string u = cli.usage();
  for (const char* flag : {"fig0", "--out PATH", "--report PATH", "--own N", "--help"}) {
    EXPECT_NE(u.find(flag), std::string::npos) << flag << " missing from:\n" << u;
  }
  for (const char* flag : {"--jobs", "--seed", "--duration", "--serial", "--input", "--scale",
                           "--readahead", "--strict", "--grid", "--checkpoint", "--resume",
                           "--repeat", "--procs", "--service", "google-benchmark"}) {
    EXPECT_EQ(u.find(flag), std::string::npos) << flag << " listed in:\n" << u;
  }
  const Cli micro{"micro0", {S::kOut}, {}, Leftovers::kPassOn};
  EXPECT_NE(micro.usage().find("google-benchmark"), std::string::npos);
}

TEST(BenchCli, DuplicateFlagsLastOneWins) {
  EXPECT_EQ(parse({"--jobs", "2", "--jobs", "6"})->jobs, 6u);
  EXPECT_EQ(parse({"-j4", "--jobs=9"})->jobs, 9u);
  EXPECT_EQ(parse({"--seed", "1", "--seed=17"})->seed, 17u);
  EXPECT_EQ(parse({"--out", "/dev/stdout", "--out=/dev/null"})->out, "/dev/null");
}

TEST(BenchCli, JobsGarbageInEverySpellingIsRejected) {
  // Glued and spaced forms must agree on what is garbage.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"-jbogus"},
                                             {"-j", "bogus"},
                                             {"--jobs=bogus"},
                                             {"-j0"},
                                             {"-j", "-4"},
                                             {"--jobs=4x"},
                                             {"-j=4"},
                                             {"--jobs", "+4"},
                                             {"--jobs", " 4"}}) {
    EXPECT_TRUE(rejected(args, "--jobs"));
  }
}

TEST(BenchCli, JobsOverflowIsMalformedNotTruncated) {
  EXPECT_TRUE(rejected({"--jobs", "99999999999999999999"}, "--jobs"));
  EXPECT_TRUE(rejected({"-j99999999999999999999"}, "--jobs"));
  EXPECT_TRUE(rejected({"--jobs", "4294967296"}, "--jobs"));  // UINT_MAX + 1
  EXPECT_EQ(parse({"--jobs", "4294967295"})->jobs, 4294967295u);
}

TEST(BenchCli, SeedOverflowAndNegativeAreMalformed) {
  EXPECT_TRUE(rejected({"--seed", "99999999999999999999999"}, "--seed"));
  EXPECT_TRUE(rejected({"--seed=-1"}, "--seed"));
  EXPECT_TRUE(rejected({"--seed", "0x"}, "--seed"));
  EXPECT_TRUE(rejected({"--seed", "0x1g"}, "--seed"));
  // A leading zero could mean octal or decimal; neither is guessed.
  EXPECT_TRUE(rejected({"--seed", "010"}, "--seed"));
  // The full range itself stays valid.
  EXPECT_EQ(parse({"--seed", "18446744073709551615"})->seed, ~std::uint64_t{0});
  EXPECT_EQ(parse({"--seed", "0xFFFFFFFFFFFFFFFF"})->seed, ~std::uint64_t{0});
}

TEST(BenchCli, UsageMentionsEveryFlag) {
  const Cli cli{"fig0", kAll};
  const std::string u = cli.usage();
  for (const char* flag : {"--jobs N, -jN", "--seed", "--duration", "--out", "--report",
                           "--serial", "--service", "--input", "--scale", "--readahead",
                           "--strict", "--grid", "--checkpoint", "--resume", "--repeat",
                           "--procs", "--help"}) {
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  }
  EXPECT_NE(u.find("fig0"), std::string::npos);
}

// ---------- undeclared and unknown arguments ----------

TEST(BenchCli, UndeclaredSharedFlagsAreConfigErrors) {
  // fig4's table: a shared flag it would ignore must not pass silently.
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"--seed", "5"}, {"--duration=1"}, {"--serial"}, {"--scale", "3"}, {"--grid"}}) {
    EXPECT_TRUE(rejected(args, args.front().substr(0, args.front().find('=')),
                         {S::kOut, S::kReport}));
  }
  EXPECT_TRUE(rejected({"-j4"}, "--jobs", {S::kOut, S::kReport}));
  EXPECT_TRUE(rejected({"--jobs", "4"}, "--jobs", {S::kOut, S::kReport}));
  // Passing leftovers on to google-benchmark does not cover shared flags.
  EXPECT_TRUE(rejected({"--seed", "5"}, "--seed", {S::kRepeat}, Leftovers::kPassOn));
  EXPECT_TRUE(rejected({"--serial"}, "--serial", {S::kJobs}, Leftovers::kPassOn));
}

TEST(BenchCli, UnknownArgumentsAreConfigErrors) {
  EXPECT_TRUE(rejected({"--bogus"}, "--bogus"));
  EXPECT_TRUE(rejected({"--jbos", "4"}, "--jbos"));  // a typo is not a flag
  EXPECT_TRUE(rejected({"positional"}, "positional"));
  EXPECT_TRUE(rejected({"-x"}, "-x"));
  EXPECT_TRUE(rejected({"--jobs", "2", "--serial=1"}, "--serial"));
}

// ---------- the shared dataset flags (--input/--scale/--readahead/--strict) ----------

TEST(BenchCli, DatasetFlagsBothSpellings) {
  const auto spaced = parse({"--input", "d.ccfs", "--scale", "3", "--readahead", "4096"});
  EXPECT_EQ(spaced->input, "d.ccfs");
  EXPECT_EQ(spaced->scale, 3u);
  EXPECT_EQ(spaced->readahead, 4096u);
  EXPECT_FALSE(spaced->strict);

  const auto glued = parse({"--input=d.csv", "--scale=2", "--readahead=128", "--strict"});
  EXPECT_EQ(glued->input, "d.csv");
  EXPECT_EQ(glued->scale, 2u);
  EXPECT_EQ(glued->readahead, 128u);
  EXPECT_TRUE(glued->strict);

  const auto absent = parse({});
  EXPECT_TRUE(absent->input.empty());
  EXPECT_EQ(absent->scale, 0u);
  EXPECT_EQ(absent->readahead, 0u);
  EXPECT_FALSE(absent->strict);
}

TEST(BenchCli, DatasetFlagsDuplicateLastOneWins) {
  const auto cli = parse({"--scale", "2", "--scale=5", "--input", "a.csv", "--input=b.ccfs",
                          "--readahead=64", "--readahead", "256"});
  EXPECT_EQ(cli->scale, 5u);
  EXPECT_EQ(cli->input, "b.ccfs");
  EXPECT_EQ(cli->readahead, 256u);
}

TEST(BenchCli, ScaleGarbageZeroAndOverflowAreRejected) {
  EXPECT_TRUE(rejected({"--scale", "abc"}, "--scale"));
  EXPECT_TRUE(rejected({"--scale=4x"}, "--scale"));
  EXPECT_TRUE(rejected({"--scale", "-2"}, "--scale"));
  EXPECT_TRUE(rejected({"--scale", "0"}, "--scale"));  // valid values are >= 1
  EXPECT_TRUE(rejected({"--scale", "1000001"}, "--scale"));
  EXPECT_TRUE(rejected({"--scale", "99999999999999999999999"}, "--scale"));
  EXPECT_EQ(parse({"--scale", "1000000"})->scale, 1000000u);  // the cap is valid
}

TEST(BenchCli, ReadaheadGarbageAndOverflowAreRejected) {
  EXPECT_TRUE(rejected({"--readahead", "lots"}, "--readahead"));
  EXPECT_TRUE(rejected({"--readahead=-1"}, "--readahead"));
  EXPECT_TRUE(rejected({"--readahead", "100000001"}, "--readahead"));  // over cap
  EXPECT_TRUE(rejected({"--readahead", "99999999999999999999999"}, "--readahead"));
  EXPECT_EQ(parse({"--readahead", "100000000"})->readahead, 100000000u);
  EXPECT_EQ(parse({"--readahead", "0"})->readahead, 0u);  // 0 = off is valid
}

TEST(BenchCli, DanglingDatasetFlagsAreAbsentNotCrashes) {
  // A value flag at argv's end is a config error naming it; nothing is
  // stored.
  for (const char* flag : {"--input", "--scale", "--readahead"}) {
    Cli cli{"bench", kAll};
    EXPECT_TRUE(rejected(cli, {flag}, flag));
    EXPECT_TRUE(cli.input.empty());
    EXPECT_EQ(cli.scale, 0u);
    EXPECT_EQ(cli.readahead, 0u);
  }
}

TEST(BenchCli, DatasetFlagsDoNotLeakIntoRest) {
  const auto cli =
      parse({"--strict", "--scale", "2", "keepme", "--input=x.csv", "--bogus"},
            {S::kInput, S::kScale, S::kStrict}, Leftovers::kPassOn);
  EXPECT_EQ(cli->rest, (std::vector<std::string>{"keepme", "--bogus"}));
}

// ---------- the sweep flags (--grid/--checkpoint/--resume) ----------

TEST(BenchCli, SweepFlagsBothSpellings) {
  const auto spaced = parse({"--grid", "cca=reno;buf=1", "--checkpoint", "ck.bin", "--resume"});
  EXPECT_EQ(spaced->grid, "cca=reno;buf=1");
  EXPECT_EQ(spaced->checkpoint, "ck.bin");
  EXPECT_TRUE(spaced->resume);

  const auto glued = parse({"--grid=qdisc=codel,pie", "--checkpoint=/tmp/j.bin"});
  EXPECT_EQ(glued->grid, "qdisc=codel,pie");
  EXPECT_EQ(glued->checkpoint, "/tmp/j.bin");
  EXPECT_FALSE(glued->resume);

  const auto absent = parse({});
  EXPECT_TRUE(absent->grid.empty());
  EXPECT_TRUE(absent->checkpoint.empty());
  EXPECT_FALSE(absent->resume);
}

TEST(BenchCli, SweepFlagsDuplicateLastOneWins) {
  const auto cli = parse({"--grid", "cca=reno", "--grid=cca=bbr", "--checkpoint=a.bin",
                          "--checkpoint", "b.bin"});
  EXPECT_EQ(cli->grid, "cca=bbr");
  EXPECT_EQ(cli->checkpoint, "b.bin");
}

TEST(BenchCli, DanglingSweepFlagsAreAbsentNotCrashes) {
  // --grid's *content* is validated by the sweep bench's GridSpec::parse
  // (exit 2 via guarded_main); Cli only polices flag/value shape.
  for (const char* flag : {"--grid", "--checkpoint"}) {
    Cli cli{"bench", kAll};
    EXPECT_TRUE(rejected(cli, {flag}, flag));
    EXPECT_TRUE(cli.grid.empty());
    EXPECT_TRUE(cli.checkpoint.empty());
  }
}

TEST(BenchCli, SweepFlagsDoNotLeakIntoRest) {
  const auto cli = parse({"--resume", "--grid", "cca=reno", "keep", "--checkpoint=c.bin"},
                         {S::kGrid, S::kCheckpoint, S::kResume}, Leftovers::kPassOn);
  EXPECT_EQ(cli->rest, (std::vector<std::string>{"keep"}));
}

// ---------- a bench's own flags and the value kinds ----------

TEST(BenchCli, OwnFlagsAcceptBothSpellings) {
  // A bench's own flags (here sweep_matrix's) take both spellings too.
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"--out-store", "s.ccfs", "--flows-per-shard", "64"},
           {"--out-store=s.ccfs", "--flows-per-shard=64"}}) {
    std::string out_store;
    std::uint64_t per_shard = 512;
    Cli cli{"sweep_matrix",
            {S::kJobs},
            {flag_string("--out-store", "BASE", "shards", out_store),
             flag_count("--flows-per-shard", "cells per shard", 1, ~std::uint64_t{0},
                        per_shard)}};
    run(cli, args);
    EXPECT_EQ(out_store, "s.ccfs");
    EXPECT_EQ(per_shard, 64u);
    EXPECT_TRUE(rejected(cli, {"--flows-per-shard=0"}, "--flows-per-shard"));
    EXPECT_TRUE(rejected(cli, {"--out-store"}, "--out-store"));
  }
}

/// ingestd's --margin: a finite number in [0, 1).
testing::AssertionResult margin_rejected(const std::string& v) {
  double margin = 0.5;
  Cli cli{"ingestd", {}, {flag_number("--margin", "band", 0.0, 1.0, margin)}};
  auto r = rejected(cli, {"--margin", v}, "--margin");
  if (margin != 0.5) return testing::AssertionFailure() << "stored " << margin;
  return r;
}

TEST(BenchCli, NumberRejectsNan) {
  EXPECT_TRUE(margin_rejected("nan"));
  EXPECT_TRUE(margin_rejected("NaN"));
}

TEST(BenchCli, NumberRejectsInf) {
  EXPECT_TRUE(margin_rejected("inf"));
  EXPECT_TRUE(margin_rejected("-inf"));
  EXPECT_TRUE(margin_rejected("1e999"));  // overflows to inf
}

TEST(BenchCli, NumberRejectsOutOfRange) {
  EXPECT_TRUE(margin_rejected("-0.1"));
  EXPECT_TRUE(margin_rejected("1"));  // the upper bound is exclusive
  EXPECT_TRUE(margin_rejected("1.5"));
  EXPECT_TRUE(margin_rejected("0.5x"));
  double margin = 0.5;
  Cli cli{"ingestd", {}, {flag_number("--margin", "band", 0.0, 1.0, margin)}};
  run(cli, {"--margin=0"});
  EXPECT_EQ(margin, 0.0);
  run(cli, {"--margin", "0.75"});
  EXPECT_EQ(margin, 0.75);
}

enum class Mode { kOff, kFast };
std::string_view to_string(Mode m) { return m == Mode::kOff ? "off" : "fast"; }

TEST(BenchCli, OneOfAcceptsOnlyItsChoices) {
  Mode mode = Mode::kOff;
  Cli cli{"bench", {}, {flag_one_of("--mode", "off | fast", {Mode::kOff, Mode::kFast}, mode)}};
  run(cli, {"--mode=fast"});
  EXPECT_EQ(mode, Mode::kFast);
  run(cli, {"--mode", "off"});
  EXPECT_EQ(mode, Mode::kOff);
  EXPECT_TRUE(rejected(cli, {"--mode", "slow"}, "off|fast"));
  EXPECT_TRUE(rejected(cli, {"--mode", "FAST"}, "--mode"));
}

TEST(BenchCli, UnopenableOutFileIsAConfigError) {
  // Rejected by parse(), before the bench does any work.
  EXPECT_TRUE(rejected({"--out", "/nonexistent-dir/table.txt"}, "--out"));
}

}  // namespace
}  // namespace ccc::bench
