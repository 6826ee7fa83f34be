#include "pipeline/classify.hpp"

#include <algorithm>
#include <cmath>

#include "changepoint/cost.hpp"
#include "changepoint/detectors.hpp"

namespace ccc::pipeline {

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::kFilteredAppLimited: return "filtered-app-limited";
    case Verdict::kFilteredRwndLimited: return "filtered-rwnd-limited";
    case Verdict::kFilteredCellular: return "filtered-cellular";
    case Verdict::kFilteredShort: return "filtered-short";
    case Verdict::kNoLevelShift: return "no-level-shift";
    case Verdict::kContentionSuspect: return "contention-suspect";
  }
  return "unknown";
}

std::string_view to_string(EarlyExitPolicy p) {
  switch (p) {
    case EarlyExitPolicy::kOff: return "off";
    case EarlyExitPolicy::kFixed: return "fixed";
    case EarlyExitPolicy::kAdaptive: return "adaptive";
  }
  return "unknown";
}

Verdict classify_filters(const store::FlowView& flow, const ClassifyConfig& cfg) {
  if (flow.app_limited_sec > cfg.app_limited_threshold_sec) {
    return Verdict::kFilteredAppLimited;
  }
  if (flow.rwnd_limited_sec > cfg.rwnd_limited_threshold_sec) {
    return Verdict::kFilteredRwndLimited;
  }
  if (cfg.exclude_cellular && (flow.access == mlab::AccessType::kCellular ||
                               flow.access == mlab::AccessType::kSatellite)) {
    return Verdict::kFilteredCellular;
  }
  if (flow.duration_sec < cfg.min_duration_sec ||
      flow.throughput_mbps.size() < static_cast<std::size_t>(4)) {
    return Verdict::kFilteredShort;
  }
  return Verdict::kNoLevelShift;  // residual: proceed to the changepoint stage
}

namespace {

/// Appends log(max(x, 1e-3)) over [begin, end) of the series to `out` — the
/// transform under which multiplicative rate noise has stable variance (see
/// below). Append-only so the early-exit prefix extends into the full series
/// without recomputing.
void log_series_into(std::span<const double> series, std::size_t begin, std::size_t end,
                     std::vector<double>& out) {
  for (std::size_t i = begin; i < end; ++i) {
    out.push_back(std::log(std::max(series[i], 1e-3)));
  }
}

/// The TURBOTEST-style screen shared by the offline and streamed detectors.
/// Reads a prefix of `series` (appending its log-samples to `log_tput`, so a
/// fall-through search extends instead of recomputing) and decides whether
/// the flow can be declared shift-free without the full PELT search:
///
///   kOff       never (the caller runs the full search)
///   kFixed     exactly the first `early_exit_window_sec`: quiet -> exit
///   kAdaptive  the fixed window, extended window-by-window while the CUSUM
///              statistic sits in the uncertain band (margin * h, h); an
///              alarm — or reaching the series end still uncertain — falls
///              through to the full search
///
/// Returns true when the flow exits early, with `samples_read` set to the
/// samples actually consumed.
bool early_exit_screen(std::span<const double> series, const ClassifyConfig& cfg, double dt,
                       std::size_t min_seg, std::vector<double>& log_tput,
                       changepoint::ChangepointWorkspace& ws, std::uint32_t& samples_read) {
  if (cfg.early_exit == EarlyExitPolicy::kOff) return false;
  const std::size_t n = series.size();
  const auto w = static_cast<std::size_t>(std::ceil(cfg.early_exit_window_sec / dt));
  if (w < 4 || w >= n) return false;
  log_series_into(series, 0, w, log_tput);
  const std::span<const double> prefix{log_tput.data(), w};
  double sigma = changepoint::estimate_noise_sigma(prefix, ws.diffs);
  if (sigma <= 1e-12) sigma = 1e-6;  // same noise-free convention as the full path
  const std::size_t ref_n = std::max<std::size_t>(1, std::min(min_seg, w));
  double ref = 0.0;
  for (std::size_t i = 0; i < ref_n; ++i) ref += prefix[i];
  ref /= static_cast<double>(ref_n);
  const double h = 5.0 * sigma;
  changepoint::Cusum screen{ref, 0.5 * sigma, h};
  for (std::size_t i = 0; i < w; ++i) {
    if (screen.add(prefix[i])) return false;  // drift in the prefix: full search
  }
  if (cfg.early_exit == EarlyExitPolicy::kFixed) {
    samples_read = static_cast<std::uint32_t>(w);
    return true;  // quiet prefix: trust it, skip the rest of the series
  }
  // kAdaptive: the prefix never alarmed, but how quiet was it? Below the
  // quiet bar the exit is confident; in the band we pay for more samples
  // until the statistic either decays (exit) or crosses h (full search).
  const double quiet = cfg.early_exit_margin * h;
  const auto stat = [&screen] {
    return std::max(screen.positive_stat(), screen.negative_stat());
  };
  if (stat() <= quiet) {
    samples_read = static_cast<std::uint32_t>(w);
    return true;
  }
  std::size_t i = w;
  while (i < n) {
    const std::size_t next = std::min(n, i + w);
    for (; i < next; ++i) {
      const double v = std::log(std::max(series[i], 1e-3));
      log_tput.push_back(v);
      if (screen.add(v)) return false;  // drift confirmed: full search
    }
    if (i < n && stat() <= quiet) {
      samples_read = static_cast<std::uint32_t>(i);
      return true;
    }
  }
  return false;  // read everything still uncertain: the full search is free now
}

}  // namespace

FlowFinding detect_changepoints(const store::FlowView& flow, const ClassifyConfig& cfg,
                                changepoint::ChangepointWorkspace& ws) {
  FlowFinding f;
  f.id = flow.id;
  f.truth = flow.truth;

  const std::span<const double> series = flow.throughput_mbps;
  const std::size_t n = series.size();
  const double dt = flow.snapshot_interval_sec;
  const auto min_seg = static_cast<std::size_t>(std::ceil(cfg.min_segment_sec / dt));

  auto& log_tput = ws.log_series;
  log_tput.clear();

  std::uint32_t screened = 0;
  if (early_exit_screen(series, cfg, dt, min_seg, log_tput, ws, screened)) {
    f.verdict = Verdict::kNoLevelShift;
    f.early_exited = true;
    f.samples_scanned = screened;
    return f;
  }

  // Change-point search on the *log* throughput series: rate noise is
  // multiplicative (a fixed coefficient of variation), so the log transform
  // stabilizes the variance and a single penalty suits high and low levels
  // alike; level shifts stay steps under the transform. The early-exit
  // prefix (if we took that path) is already in place; extend to n.
  log_series_into(series, log_tput.size(), n, log_tput);
  // The persistence requirement goes into the search itself: PELT then finds
  // the best segmentation at the granularity we care about instead of
  // shattering gradual transitions into sub-threshold fragments.
  changepoint::detect_mean_shifts_into(log_tput, cfg.sensitivity, min_seg, ws, ws.cps);
  const auto& cps = ws.cps;

  // Evaluate each change point: segment boundaries are [0, cps..., n).
  auto& bounds = ws.bounds;
  bounds.clear();
  bounds.push_back(0);
  bounds.insert(bounds.end(), cps.begin(), cps.end());
  bounds.push_back(n);

  auto seg_mean = [&](std::size_t a, std::size_t b) {
    double s = 0.0;
    for (std::size_t i = a; i < b; ++i) s += series[i];
    return s / static_cast<double>(b - a);
  };

  for (std::size_t k = 1; k + 1 < bounds.size(); ++k) {
    const std::size_t a = bounds[k - 1];
    const std::size_t b = bounds[k];
    const std::size_t c = bounds[k + 1];
    if (b - a < min_seg || c - b < min_seg) continue;  // transient, not a level
    const double before = seg_mean(a, b);
    const double after = seg_mean(b, c);
    const double larger = std::max(before, after);
    if (larger <= 0.0) continue;
    const double shift = std::abs(after - before) / larger;
    if (shift >= cfg.min_shift_fraction) {
      f.shift_times_sec.push_back(static_cast<double>(b) * dt);
      f.shift_magnitudes.push_back(shift);
    }
  }

  f.verdict = f.shift_times_sec.empty() ? Verdict::kNoLevelShift : Verdict::kContentionSuspect;
  f.samples_scanned = static_cast<std::uint32_t>(n);
  return f;
}

FlowFinding detect_changepoints_streamed(const store::FlowView& flow, const ClassifyConfig& cfg,
                                         changepoint::ChangepointWorkspace& ws,
                                         std::size_t window_samples) {
  const std::span<const double> series = flow.throughput_mbps;
  const std::size_t n = series.size();
  // A window covering the whole series IS the offline search — delegate, so
  // the daemon's replay-with-wide-window mode is byte-identical to fig2.
  if (window_samples == 0 || window_samples >= n) return detect_changepoints(flow, cfg, ws);

  FlowFinding f;
  f.id = flow.id;
  f.truth = flow.truth;

  const double dt = flow.snapshot_interval_sec;
  const auto min_seg = static_cast<std::size_t>(std::ceil(cfg.min_segment_sec / dt));

  auto& log_tput = ws.log_series;
  log_tput.clear();

  std::uint32_t screened = 0;
  if (early_exit_screen(series, cfg, dt, min_seg, log_tput, ws, screened)) {
    f.verdict = Verdict::kNoLevelShift;
    f.early_exited = true;
    f.samples_scanned = screened;
    return f;
  }

  // Windowed PELT over a ring of the most recent W log-samples. The floor
  // keeps the search meaningful: two persistent segments must fit in one
  // window or no shift could ever be accepted. Consecutive windows overlap
  // by up to 2*min_seg samples so a shift landing near a window edge is
  // seen with full persistence context on both sides by some window.
  const std::size_t W =
      std::max(window_samples, std::max<std::size_t>(2 * min_seg + 2, 8));
  const std::size_t hop = W - std::min(W / 2, 2 * min_seg);
  std::size_t last_accepted = 0;  // global index of the last accepted shift

  auto seg_mean = [&series](std::size_t a, std::size_t b) {
    double s = 0.0;
    for (std::size_t i = a; i < b; ++i) s += series[i];
    return s / static_cast<double>(b - a);
  };

  for (std::size_t a = 0;; a += hop) {
    const std::size_t b = std::min(a + W, n);
    log_tput.clear();  // the ring: at most W log-samples live at once
    log_series_into(series, a, b, log_tput);
    changepoint::detect_mean_shifts_into(log_tput, cfg.sensitivity, min_seg, ws, ws.cps);

    auto& bounds = ws.bounds;
    bounds.clear();
    bounds.push_back(0);
    bounds.insert(bounds.end(), ws.cps.begin(), ws.cps.end());
    bounds.push_back(b - a);

    for (std::size_t k = 1; k + 1 < bounds.size(); ++k) {
      const std::size_t la = bounds[k - 1];
      const std::size_t lb = bounds[k];
      const std::size_t lc = bounds[k + 1];
      if (lb - la < min_seg || lc - lb < min_seg) continue;  // transient
      const std::size_t g = a + lb;
      // Overlapping windows rediscover the same level change at nearby
      // indices; anything within min_seg of an accepted shift is a dupe.
      if (!f.shift_times_sec.empty() && g < last_accepted + min_seg) continue;
      const double before = seg_mean(a + la, a + lb);
      const double after = seg_mean(a + lb, a + lc);
      const double larger = std::max(before, after);
      if (larger <= 0.0) continue;
      const double shift = std::abs(after - before) / larger;
      if (shift >= cfg.min_shift_fraction) {
        f.shift_times_sec.push_back(static_cast<double>(g) * dt);
        f.shift_magnitudes.push_back(shift);
        last_accepted = g;
      }
    }
    if (b == n) break;
  }

  f.verdict = f.shift_times_sec.empty() ? Verdict::kNoLevelShift : Verdict::kContentionSuspect;
  f.samples_scanned = static_cast<std::uint32_t>(n);
  return f;
}

FlowFinding classify_flow(const store::FlowView& flow, const ClassifyConfig& cfg) {
  const Verdict filter = classify_filters(flow, cfg);
  if (filter != Verdict::kNoLevelShift) {
    FlowFinding f;
    f.id = flow.id;
    f.truth = flow.truth;
    f.verdict = filter;
    return f;
  }
  changepoint::ChangepointWorkspace ws;
  return detect_changepoints(flow, cfg, ws);
}

FlowFinding classify_flow(const mlab::NdtRecord& rec, const ClassifyConfig& cfg) {
  return classify_flow(store::FlowView::from_record(rec), cfg);
}

}  // namespace ccc::pipeline
