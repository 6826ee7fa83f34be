#include "bench/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>

namespace ccc::bench {

namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

[[noreturn]] void invalid(std::string_view flag, std::string_view v, const std::string& want) {
  throw Error::config(std::string{flag},
                      "invalid value '" + std::string{v} + "' (want " + want + ")");
}

/// Whole-string unsigned parse in `base`; false on garbage, sign or overflow.
bool to_u64(std::string_view v, int base, std::uint64_t& out) {
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out, base);
  return !v.empty() && ec == std::errc{} && ptr == end;
}

/// Whole-string finite double.
bool to_finite(std::string_view v, double& out) {
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  return !v.empty() && ec == std::errc{} && ptr == end && std::isfinite(out);
}

/// A u64 in decimal (no leading zero) or 0x-hex.
Flag flag_seed(std::string name, std::string help, std::optional<std::uint64_t>& dst) {
  auto set = [&dst, name](std::string_view v) {
    // Hex needs its 0x; a leading 0 on a decimal is refused rather than read
    // as octal or as decimal, since either reading may not be the one meant.
    std::uint64_t x = 0;
    const bool hex = v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X');
    const bool ok = hex ? to_u64(v.substr(2), 16, x)
                        : (v.size() == 1 || v[0] != '0') && to_u64(v, 10, x);
    if (!ok) invalid(name, v, "a u64 in decimal without leading zeros, or 0x-hex");
    dst = x;
  };
  return {std::move(name), "N", std::move(help), std::move(set)};
}

/// Finite seconds > 0.
Flag flag_seconds(std::string name, std::string help, std::optional<double>& dst) {
  auto set = [&dst, name](std::string_view v) {
    double x = 0.0;
    if (!to_finite(v, x) || !(x > 0.0)) invalid(name, v, "finite seconds > 0");
    dst = x;
  };
  return {std::move(name), "S", std::move(help), std::move(set)};
}

/// A shared flag, bound to its field in `cli`.
Flag shared_flag(Shared s, Cli& cli) {
  switch (s) {
    case Shared::kJobs:
      return flag_count("--jobs", "worker threads (default: CCC_JOBS, else all cores)", 1,
                        std::numeric_limits<unsigned>::max(), cli.jobs);
    case Shared::kSeed:
      return flag_seed("--seed", "base RNG seed, decimal or 0x-hex (default: built-in)", cli.seed);
    case Shared::kDuration:
      return flag_seconds("--duration", "run length in seconds (default: the bench's own)",
                          cli.duration_sec);
    case Shared::kOut:
      return flag_string("--out", "PATH", "write the human-readable table to PATH", cli.out);
    case Shared::kReport:
      return flag_string("--report", "PATH", "write a RunReport: JSONL, or CSV for *.csv",
                         cli.report);
    case Shared::kSerial:
      return flag_switch("--serial", "one continuous simulation instead of per-phase runs",
                         cli.serial);
    case Shared::kInput:
      return flag_string("--input", "PATH", "analyze this dataset instead of generating one",
                         cli.input);
    case Shared::kScale:
      return flag_count("--scale", "dataset scale multiplier, 1..1000000", 1, 1'000'000,
                        cli.scale);
    case Shared::kReadahead:
      return flag_count("--readahead", "store readahead window in flows (0 = off), a hint", 0,
                        100'000'000, cli.readahead);
    case Shared::kStrict:
      return flag_switch("--strict", "fail fast on the first corrupt shard/record", cli.strict);
    case Shared::kGrid:
      return flag_string("--grid", "SPEC", "scenario grid, e.g. \"cca=reno,cubic;buf=0.5,2\"",
                         cli.grid);
    case Shared::kCheckpoint:
      return flag_string("--checkpoint", "PATH", "journal completed cells to PATH (crash-safe)",
                         cli.checkpoint);
    case Shared::kResume:
      return flag_switch("--resume", "skip cells already recorded in --checkpoint", cli.resume);
    case Shared::kRepeat:
      return flag_count("--repeat", "run each scope N times, keep the best (default 3)", 1,
                        1'000, cli.repeat);
    case Shared::kProcs:
      return flag_count("--procs", "worker processes, one per shard group (default: in-process)",
                        1, 256, cli.procs);
    case Shared::kService:
      return flag_switch("--service", "replay through the streaming elasticity service",
                         cli.service);
  }
  std::abort();
}

}  // namespace

std::uint64_t parse_count(std::string_view flag, std::string_view v, std::uint64_t lo,
                          std::uint64_t hi) {
  std::uint64_t x = 0;
  if (!to_u64(v, 10, x) || x < lo || x > hi) {
    invalid(flag, v,
            "an integer " + (hi == kU64Max ? ">= " + std::to_string(lo)
                                           : "in [" + std::to_string(lo) + ", " +
                                                 std::to_string(hi) + "]"));
  }
  return x;
}

Flag flag_switch(std::string name, std::string help, bool& dst) {
  return {std::move(name), "", std::move(help), [&dst](std::string_view) { dst = true; }};
}

Flag flag_number(std::string name, std::string help, double lo, double hi, double& dst) {
  auto set = [&dst, name, lo, hi](std::string_view v) {
    double x = 0.0;
    if (!to_finite(v, x) || x < lo || x >= hi) {
      std::ostringstream want;
      want << "a finite number in [" << lo << ", " << hi << ")";
      invalid(name, v, want.str());
    }
    dst = x;
  };
  return {std::move(name), "F", std::move(help), std::move(set)};
}

Flag flag_string(std::string name, std::string metavar, std::string help, std::string& dst) {
  auto set = [&dst, name](std::string_view v) {
    if (v.empty()) throw Error::config(name, "needs a non-empty value");
    dst = v;
  };
  return {std::move(name), std::move(metavar), std::move(help), std::move(set)};
}

int guarded_main(std::string_view bench_name, const std::function<int()>& body) {
  try {
    return body();
  } catch (const ccc::Error& e) {
    std::cerr << bench_name << ": error: " << e.what() << "\n";
    return e.category() == ErrorCategory::kConfig ? 2 : 1;
  } catch (const std::exception& e) {
    std::cerr << bench_name << ": error: " << e.what() << "\n";
    return 1;
  }
}

Cli::Cli(std::string_view bench_name, std::initializer_list<Shared> shared,
         std::vector<Flag> own, Leftovers leftovers)
    : bench_name_{bench_name}, leftovers_{leftovers} {
  for (int i = 0; i <= static_cast<int>(Shared::kService); ++i) {
    const auto s = static_cast<Shared>(i);
    Flag f = shared_flag(s, *this);
    if (std::find(shared.begin(), shared.end(), s) != shared.end()) {
      flags_.push_back(std::move(f));
    } else {
      undeclared_.push_back(std::move(f.name));
    }
  }
  for (Flag& f : own) flags_.push_back(std::move(f));
}

void Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    // Split into the flag's name and, when glued on, its value.
    std::string_view name = arg;
    std::optional<std::string_view> value;
    if (arg.starts_with("--")) {
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        name = arg.substr(0, eq);
        value = arg.substr(eq + 1);
      }
    } else if (arg.starts_with("-j")) {
      name = "--jobs";
      if (arg.size() > 2) value = arg.substr(2);
    }

    const auto it = std::find_if(flags_.begin(), flags_.end(),
                                 [&](const Flag& f) { return f.name == name; });
    if (it == flags_.end()) {
      if (std::find(undeclared_.begin(), undeclared_.end(), name) != undeclared_.end()) {
        throw Error::config(std::string{name},
                            "not a flag of " + bench_name_ + " (see --help)");
      }
      if (leftovers_ == Leftovers::kReject) {
        throw Error::config("", "unknown argument '" + std::string{arg} + "' (see --help)");
      }
      rest.emplace_back(arg);
      continue;
    }
    if (it->metavar.empty()) {
      if (value) throw Error::config(it->name, "is a switch and takes no value");
      it->set({});
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) throw Error::config(it->name, "needs a value");
      value = argv[++i];
    }
    it->set(*value);
  }
  // Open --out now, so an unwritable path fails before the run, not after.
  if (!out.empty()) {
    out_file_.open(out);
    if (!out_file_) throw Error::config("--out", "cannot open '" + out + "'");
  }
}

std::string Cli::usage() const {
  const auto label = [](const Flag& f) {
    std::string l = f.name;
    if (!f.metavar.empty()) l += " " + f.metavar;
    if (f.name == "--jobs") l += ", -jN";
    return l;
  };
  std::size_t width = std::string_view{"--help, -h"}.size();
  for (const Flag& f : flags_) width = std::max(width, label(f).size());
  width += 2;

  std::string u = "usage: " + bench_name_ + " [options]\n";
  const auto line = [&](const std::string& l, const std::string& help) {
    u += "  " + l + std::string(width - l.size(), ' ') + help + "\n";
  };
  for (const Flag& f : flags_) line(label(f), f.help);
  line("--help, -h", "this text");
  if (leftovers_ == Leftovers::kPassOn) {
    u += "other arguments go to google-benchmark (e.g. --benchmark_filter=REGEX)\n";
  }
  return u;
}

std::ostream& Cli::output() { return out.empty() ? std::cout : out_file_; }

}  // namespace ccc::bench
