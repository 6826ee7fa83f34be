// Outside-in tracer for the end-to-end benchmark.
//
// Spans are opened by the benchmark's own code around calls into a library
// layer (the decorators in decorators.hpp, the hand-wired flow sinks, and
// the coarse calls in workloads.cpp); nothing inside the library is touched.
// Per-call spans run into the millions per run, so they are aggregated in
// memory as (calls, units, total, self); only spans opened with keep=true
// (the coarse boundaries: run_until, elasticity(), store open/write,
// generation, run_pipeline) are also kept whole and written out at exit.
//
// Self time of a span = its duration minus the durations of the spans
// nested directly inside it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kSim,           ///< Scheduler::run_until (dispatch, link completions, timers)
  kSimLink,       ///< Link::send, entered from a sender
  kQueue,         ///< every Qdisc call
  kSender,        ///< TcpSender ACK ingress
  kReceiver,      ///< TcpReceiver data ingress
  kCcaBbr,
  kCcaCubic,
  kCcaNimbus,
  kCcaOther,
  kNimbusElasticity,  ///< NimbusCca::elasticity()
  kMlabGenerate,      ///< synthetic NDT generation
  kStoreWrite,        ///< ccfs writer append/finish
  kStoreOpen,         ///< ShardSet::open (CRC verification)
  kPipeline,          ///< run_pipeline
  kCalibration,       ///< the timer-calibration loop's empty spans
  kCount
};

[[nodiscard]] std::string_view layer_name(Layer l);

struct LayerTotals {
  std::uint64_t calls{0};
  std::uint64_t units{0};  ///< packets for the sink layers, else == calls
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};
};

[[nodiscard]] inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct KeptSpan {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into kept(), or -1
  };

  void enter(Layer layer, std::uint64_t units, bool keep) {
    auto& t = totals_[static_cast<int>(layer)];
    ++t.calls;
    t.units += units;
    int kept_index = -1;
    const std::int64_t now = clock_ns();
    if (keep) {
      kept_index = static_cast<int>(kept_.size());
      kept_.push_back({layer, now, 0, innermost_kept_});
      innermost_kept_ = kept_index;
    }
    stack_.push_back({layer, now, 0, kept_index});
  }

  void exit() {
    const std::int64_t now = clock_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now - f.start_ns;
    auto& t = totals_[static_cast<int>(f.layer)];
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.kept_index >= 0) {
      kept_[f.kept_index].end_ns = now;
      innermost_kept_ = kept_[f.kept_index].parent;
    }
  }

  [[nodiscard]] const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<int>(l)];
  }
  [[nodiscard]] const std::vector<KeptSpan>& kept() const { return kept_; }
  [[nodiscard]] bool idle() const { return stack_.empty(); }

  /// Writes the aggregates and the kept spans as one JSON object.
  void write_json(std::ostream& os) const;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    int kept_index;
  };
  std::array<LayerTotals, static_cast<int>(Layer::kCount)> totals_{};
  std::vector<Frame> stack_;
  std::vector<KeptSpan> kept_;
  int innermost_kept_{-1};
};

/// RAII span; a null tracer makes it free apart from the branch.
class Span {
 public:
  Span(Tracer* t, Layer layer, std::uint64_t units = 1, bool keep = false) : t_{t} {
    if (t_ != nullptr) t_->enter(layer, units, keep);
  }
  ~Span() {
    if (t_ != nullptr) t_->exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Median cost of one empty span (two clock reads plus the bookkeeping), in
/// ns, over `batches` batches of `per_batch` spans on a scratch tracer.
[[nodiscard]] double calibrate_span_ns(int batches = 7, int per_batch = 200000);

}  // namespace perfbench
