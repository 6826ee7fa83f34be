// perfbench_workload: runs one benchmark workload in this process and prints
// one JSON line with its metrics, checks and stamp. perfbench/run.py builds
// this binary and wraps its output in the benchmark's result line.
//
//   perfbench_workload --workload NAME --seed N --seconds S --trace 0|1
//                      --scratch DIR [--trace-out FILE]
//
// --trace 0 repeats the batch until S seconds have passed and reports the
// end-to-end metrics (medians over the batches). --trace 1 alternates an
// untraced and a traced batch for S seconds, checks that each traced batch
// reproduces the untraced digest, and reports the per-layer metrics; the
// aggregated layers and the coarse spans go to --trace-out.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json.hpp"
#include "stamp.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  int trace{-1};
  std::string scratch;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench_workload: " << msg
            << "\nusage: perfbench_workload --workload NAME --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed '" + v + "'");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds '" + v + "'");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0 || a.scratch.empty()) {
    usage("--workload, --seed, --seconds, --trace and --scratch are required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double now_s() { return static_cast<double>(clock_ns()) * 1e-9; }

/// Peak resident memory of this program, from VmHWM in /proc/self/status.
/// Unlike getrusage's ru_maxrss, which execve carries over from the process
/// that started this one (here the Python launcher), VmHWM belongs to the
/// current address space and starts again at execve. 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    // The value is in kB.
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    os_ << (first_ ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(value)
        << ", \"unit\": " << json_string(unit) << '}';
    first_ = false;
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_{true};
};

/// Accumulates the outputs every batch of a run shares.
struct RunTally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;
  std::uint64_t digest{0};
  bool have_digest{false};
  std::map<std::string, double> facts;

  /// Every batch of a run has the same seed, so every batch, traced or not,
  /// must reproduce the first batch's digest.
  void add(const BatchOutcome& o, const char* label) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.failures) failures.push_back(f);
    facts = o.facts;
    if (!have_digest) {
      digest = o.digest;
      have_digest = true;
    } else if (o.digest != digest) {
      ++failed;
      failures.push_back(std::string{label} + " batch digest " + hex(o.digest) +
                         " differs from the first batch's " + hex(digest));
    }
  }
};

double per_batch(std::int64_t ns, std::size_t batches) {
  return static_cast<double>(ns) * 1e-9 / static_cast<double>(batches);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto workload = parse_workload(args.workload);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  const Workload w = *workload;
  BatchContext ctx{args.seed, nullptr, args.scratch};

  RunTally tally;
  MetricsJson metrics;
  std::ostringstream extra;  // run-specific JSON members
  std::size_t reps = 0;

  if (args.trace == 0) {
    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> rates;
    // Scenario construction takes microseconds, and its speed swings with
    // the machine's load, so extra samples are taken before every batch and
    // after the last one, spread over the run like the batches themselves.
    auto sample_setup = [&] {
      if (!is_simulated(w)) return;
      for (int i = 0; i < 25; ++i) setups.push_back(setup_only(w, args.seed));
    };
    const double t0 = now_s();
    do {
      sample_setup();
      const BatchOutcome o = run_batch(w, ctx);
      tally.add(o, "untraced");
      setups.push_back(o.setup_s);
      walls.push_back(o.wall_s);
      rates.push_back(o.work / o.wall_s);
      ++reps;
    } while (now_s() - t0 < args.seconds);
    sample_setup();
    metrics.add("wall_s", median(walls), "s");
    metrics.add("setup_s", median(setups), "s");
    metrics.add("work_per_s", median(rates), "work/s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    extra << ", \"wall_s_samples\": [";
    for (std::size_t i = 0; i < walls.size(); ++i) {
      extra << (i ? ", " : "") << json_number(walls[i]);
    }
    extra << "]";
  } else {
    const double timer_ns = calibrate_span_ns();
    Tracer tracer;
    BatchContext traced_ctx = ctx;
    traced_ctx.tracer = &tracer;
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    BatchOutcome last_traced;
    const double t0 = now_s();
    do {
      const BatchOutcome u = run_batch(w, ctx);
      tally.add(u, "untraced");
      untraced_walls.push_back(u.wall_s);
      last_traced = run_batch(w, traced_ctx);
      tally.add(last_traced, "traced");
      traced_walls.push_back(last_traced.wall_s);
      ++reps;
    } while (now_s() - t0 < args.seconds);

    const auto& c = last_traced.counts;
    auto count = [&c](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? 0.0 : it->second;
    };
    auto layer = [&](const std::string& prefix, Layer l, const char* calls_name,
                     const char* time_name, const char* per_name) {
      const auto& t = tracer.totals(l);
      metrics.add(prefix + "." + calls_name, static_cast<double>(t.units) / reps, "count");
      metrics.add(prefix + "." + time_name, per_batch(t.self_ns, reps), "s");
      metrics.add(prefix + "." + per_name,
                  ratio(static_cast<double>(t.self_ns), static_cast<double>(t.units)), "ns");
    };
    layer("cca.bbr", Layer::kCcaBbr, "calls", "self_s", "ns_per_call");
    layer("cca.cubic", Layer::kCcaCubic, "calls", "self_s", "ns_per_call");
    layer("cca.nimbus", Layer::kCcaNimbus, "calls", "self_s", "ns_per_call");
    layer("flow.sender", Layer::kSender, "acks", "ack_s", "ns_per_ack");
    layer("flow.receiver", Layer::kReceiver, "pkts", "data_s", "ns_per_pkt");
    metrics.add("flow.retx_frac",
                ratio(count("flow.retransmissions"), count("flow.packets_sent")), "ratio");
    const double untraced_wall = median(untraced_walls);
    metrics.add("sim.events", count("sim.events"), "count");
    metrics.add("sim.events_per_s", ratio(count("sim.events"), untraced_wall), "1/s");
    metrics.add("sim.self_s", per_batch(tracer.totals(Layer::kSim).self_ns, reps), "s");
    metrics.add("sim.link.sends", static_cast<double>(tracer.totals(Layer::kSimLink).units) / reps,
                "count");
    metrics.add("sim.link.send_s", per_batch(tracer.totals(Layer::kSimLink).self_ns, reps), "s");
    layer("queue", Layer::kQueue, "ops", "self_s", "ns_per_op");
    metrics.add("queue.drop_frac", ratio(count("queue.dropped"), count("queue.enqueued")), "ratio");
    metrics.add("nimbus.elasticity_calls",
                static_cast<double>(tracer.totals(Layer::kNimbusElasticity).calls) / reps, "count");
    metrics.add("nimbus.elasticity_s",
                per_batch(tracer.totals(Layer::kNimbusElasticity).self_ns, reps), "s");
    metrics.add("store.open_s", per_batch(tracer.totals(Layer::kStoreOpen).self_ns, reps), "s");
    metrics.add("pipeline.run_s", per_batch(tracer.totals(Layer::kPipeline).self_ns, reps), "s");
    metrics.add("pipeline.flows", count("pipeline.flows"), "count");
    metrics.add("pipeline.source_calls", count("pipeline.source_calls"), "count");
    metrics.add("pipeline.filtered_frac", count("pipeline.filtered_frac"), "ratio");
    metrics.add("changepoint.samples", count("changepoint.samples"), "count");
    metrics.add("changepoint.changepoints", count("changepoint.changepoints"), "count");
    metrics.add("mlab.generate_s", per_batch(tracer.totals(Layer::kMlabGenerate).self_ns, reps),
                "s");
    metrics.add("store.write_s", per_batch(tracer.totals(Layer::kStoreWrite).self_ns, reps), "s");
    metrics.add("store.bytes", count("store.bytes"), "B");
    metrics.add("trace.timer_ns", timer_ns, "ns");
    metrics.add("trace.overhead_frac", median(traced_walls) / untraced_wall - 1.0, "ratio");

    // Each layer's self time as a share of the traced timed phase (the
    // set-up layers, mlab.generate and store.write, as a share of set-up).
    double traced_wall_total = 0.0;
    for (const double t : traced_walls) traced_wall_total += t;
    extra << ", \"layer_share\": {";
    bool first = true;
    for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
      const auto l = static_cast<Layer>(i);
      if (l == Layer::kMlabGenerate || l == Layer::kStoreWrite || l == Layer::kCalibration) continue;
      const auto& t = tracer.totals(l);
      if (t.calls == 0) continue;
      extra << (first ? "" : ", ") << json_string(layer_name(l)) << ": "
            << json_number(static_cast<double>(t.self_ns) * 1e-9 / traced_wall_total);
      first = false;
    }
    extra << "}";
    if (!args.trace_out.empty()) {
      std::ofstream f{args.trace_out};
      tracer.write_json(f);
      f << '\n';
      if (!f) {
        std::cerr << "perfbench_workload: cannot write --trace-out " << args.trace_out << "\n";
        return 1;
      }
    }
  }

  std::cout << "{\"workload\": " << json_string(workload_name(w)) << ", \"seed\": " << args.seed
            << ", \"trace\": " << args.trace << ", \"batches\": " << reps
            << ", \"digest\": " << json_string(hex(tally.digest)) << ", \"stamp\": ";
  write_stamp_json(std::cout);
  std::cout << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"failures\": [";
  for (std::size_t i = 0; i < tally.failures.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(tally.failures[i]);
  }
  std::cout << "], \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : tally.facts) {
    std::cout << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  std::cout << "}" << extra.str() << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}
