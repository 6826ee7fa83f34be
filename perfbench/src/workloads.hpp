// The benchmark's four workloads. Each is a batch job of fixed input size,
// run single-threaded through the library's public API; the seed sets every
// input (scenario seed and flow start jitter, or the NDT generator seed).
//
// A batch has a set-up phase (scenario construction; for passive_archive,
// dataset generation plus the store write) and a timed phase (the
// simulation; for passive_archive, the store open plus run_pipeline). With a
// tracer, the simulated workloads hand-wire every flow so the sender's ACK
// ingress, the receiver, the CCA, the qdisc and the link can be timed from
// outside; without one they use DumbbellScenario::add_flow.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

enum class Workload { kBbrProbe, kAppLimitedAccess, kPassiveArchive };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);
[[nodiscard]] inline bool is_simulated(Workload w) { return w != Workload::kPassiveArchive; }

struct BatchOutcome {
  double setup_s{0.0};  ///< host time to build the inputs
  double wall_s{0.0};   ///< host time of the timed phase
  double work{0.0};     ///< simulated seconds, or flows analysed
  std::uint64_t attempted{0};  ///< scenarios, or flows, checked
  std::uint64_t failed{0};     ///< of those, how many failed an output check
  std::vector<std::string> failures;
  /// FNV-1a over the batch's outputs: per-flow delivered bytes, qdisc and
  /// link stats, the elasticity series, the pipeline verdicts.
  std::uint64_t digest{0};
  /// Deterministic counts read at the layer boundaries (sim.events,
  /// queue.drop_frac, pipeline.flows, ...); identical traced or not.
  std::map<std::string, double> counts;
  /// Human-readable per-batch facts (elastic fraction, episode size, ...).
  std::map<std::string, double> facts;
};

struct BatchContext {
  std::uint64_t seed{1};
  Tracer* tracer{nullptr};
  /// Directory the passive_archive store is written to (inside the
  /// benchmark's build directory).
  std::string scratch_dir;
};

/// Builds the inputs and runs the timed phase once, checking the outputs.
[[nodiscard]] BatchOutcome run_batch(Workload w, const BatchContext& ctx);

/// Builds a simulated workload's scenarios without running them and returns
/// the host seconds that took (extra set-up samples for a steadier median).
[[nodiscard]] double setup_only(Workload w, std::uint64_t seed);

}  // namespace perfbench
