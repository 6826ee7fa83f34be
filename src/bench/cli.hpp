// bench::Cli — the one command-line parser every bench binary uses.
//
// A bench declares the flags it honours, and nothing else is accepted: an
// undeclared flag, a malformed value, a flag missing its value or a stray
// argument throws ccc::Error of category config, which guarded_main turns
// into exit 2. A flag that parses but never reaches the run is worse than
// none: a sweep over `--seed 1..100` would silently print one table 100
// times.
//
// Every value flag is spelled `--flag V` or `--flag=V`; `--jobs` also takes
// `-j N` and `-jN`. A switch takes no value. The last of duplicate flags
// wins. `--help`/`-h` prints the declared flags only and exits 0.
//
// Flags come in two groups:
//   - the shared flags (Shared): one meaning in every bench that declares
//     them; their values land in Cli's public fields. Naming one a bench did
//     not declare is an error that names the flag.
//   - a bench's own flags (Flag, built with the flag_* value kinds below),
//     bound to the bench's options struct.
//
// The google-benchmark micros are the one exception to "nothing else": with
// Leftovers::kPassOn every argument that is neither declared nor a shared
// flag is kept in `rest`, in order, for google-benchmark's own parser,
// which rejects what it does not know.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace ccc::bench {

/// The error boundary every bench main runs inside:
///
///   return value of `body`  passed through (0 ok / 1 shape-check fail /
///                           2 usage error)
///   uncaught ccc::Error     "<bench>: error: [<category>] ..." on stderr;
///                           exit 2 for kConfig (usage territory), 1 for
///                           io/format/corruption (the run failed)
///   other std::exception    "<bench>: error: ..." on stderr; exit 1
///
/// Usage: int main(int argc, char** argv) {
///          return ccc::bench::guarded_main("fig7_...", [&] { ... });
///        }
[[nodiscard]] int guarded_main(std::string_view bench_name, const std::function<int()>& body);

/// One declared flag: its spelling, its --help line, and how it stores a
/// value. Build one with a flag_* value kind.
struct Flag {
  std::string name;     ///< "--scale"
  std::string metavar;  ///< value placeholder in --help ("N", "PATH"); "" = switch
  std::string help;     ///< one line
  std::function<void(std::string_view)> set;  ///< parses and stores; throws config Error
};

/// Decimal integer in [lo, hi]; no sign, no spaces, no overflow.
[[nodiscard]] std::uint64_t parse_count(std::string_view flag, std::string_view v,
                                        std::uint64_t lo, std::uint64_t hi);

// ---- value kinds ----

/// Present or not; `--flag=V` is an error.
[[nodiscard]] Flag flag_switch(std::string name, std::string help, bool& dst);
/// Finite number in [lo, hi).
[[nodiscard]] Flag flag_number(std::string name, std::string help, double lo, double hi,
                               double& dst);
/// Non-empty string or path.
[[nodiscard]] Flag flag_string(std::string name, std::string metavar, std::string help,
                               std::string& dst);

/// Integer count in [lo, hi].
template <class T>
[[nodiscard]] Flag flag_count(std::string name, std::string help, std::uint64_t lo,
                              std::uint64_t hi, T& dst) {
  auto set = [&dst, name, lo, hi](std::string_view v) {
    dst = static_cast<T>(parse_count(name, v, lo, hi));
  };
  return {std::move(name), "N", std::move(help), std::move(set)};
}

/// One of `choices`, spelled as `to_string(choice)` spells it.
template <class E>
[[nodiscard]] Flag flag_one_of(std::string name, std::string help, std::vector<E> choices,
                               E& dst) {
  auto set = [&dst, name, choices](std::string_view v) {
    std::string want;
    for (const E c : choices) {
      if (to_string(c) == v) {
        dst = c;
        return;
      }
      want += want.empty() ? "" : "|";
      want += to_string(c);
    }
    throw Error::config(name, "invalid value '" + std::string{v} + "' (want " + want + ")");
  };
  return {std::move(name), "MODE", std::move(help), std::move(set)};
}

/// The flags several benches share, in --help order (kService is last).
enum class Shared : std::uint8_t {
  kJobs, kSeed, kDuration, kOut, kReport, kSerial, kInput, kScale,
  kReadahead, kStrict, kGrid, kCheckpoint, kResume, kRepeat, kProcs, kService,
};

/// What parse() does with an argument that is neither declared nor a shared
/// flag: reject it, or keep it in `rest` (google-benchmark micros only).
enum class Leftovers : std::uint8_t { kReject, kPassOn };

class Cli {
 public:
  /// Declares the shared flags the bench reads and its own flags. The
  /// table binds to this object's fields, so a Cli neither copies nor moves.
  Cli(std::string_view bench_name, std::initializer_list<Shared> shared,
      std::vector<Flag> own = {}, Leftovers leftovers = Leftovers::kReject);
  Cli(const Cli&) = delete;
  Cli& operator=(const Cli&) = delete;

  /// Parses argv against the declared table; throws ccc::Error (config) on
  /// anything else, including an `--out` path that cannot be opened.
  /// `--help` prints usage() and exits 0.
  void parse(int argc, char** argv);

  /// The --help text: the declared flags only.
  [[nodiscard]] std::string usage() const;

  // Shared flag values. A flag that is absent, or not declared, keeps its
  // default, which means "the bench's own choice".
  unsigned jobs{0};  ///< 0 = resolve from CCC_JOBS / hardware concurrency
  std::optional<std::uint64_t> seed;
  std::optional<double> duration_sec;
  std::string out;     ///< "" = stdout
  std::string report;  ///< "" = no machine-readable report
  bool serial{false};
  std::string input;         ///< input dataset path; "" = synthetic
  std::size_t scale{0};      ///< dataset scale multiplier; 0 = absent
  std::size_t readahead{0};  ///< store readahead window in flows; 0 = off
  bool strict{false};        ///< fail fast on corrupt input instead of degrading
  std::string grid;          ///< scenario-grid spec; "" = the bench's default grid
  std::string checkpoint;    ///< cell journal path; "" = no checkpointing
  bool resume{false};        ///< load the journal and skip completed cells
  std::size_t repeat{0};     ///< best-of-N repetitions; 0 = bench default
  std::size_t procs{0};      ///< pipeline worker processes; 0 = in-process
  bool service{false};       ///< run the streaming-service variant (fig3)
  std::vector<std::string> rest;  ///< Leftovers::kPassOn: the passed-on arguments

  [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed.value_or(fallback);
  }
  [[nodiscard]] Time duration_or(Time fallback) const {
    return duration_sec ? Time::sec(*duration_sec) : fallback;
  }
  [[nodiscard]] std::size_t repeat_or(std::size_t fallback) const {
    return repeat != 0 ? repeat : fallback;
  }

  /// The stream bench tables print to: the `--out` file (opened by parse(),
  /// which rejects an unopenable path), else std::cout.
  [[nodiscard]] std::ostream& output();

 private:
  std::string bench_name_;
  std::vector<Flag> flags_;               ///< declared: shared first, then own
  std::vector<std::string> undeclared_;   ///< shared flag names not declared
  Leftovers leftovers_;
  std::ofstream out_file_;
};

}  // namespace ccc::bench
