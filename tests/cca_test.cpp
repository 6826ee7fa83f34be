// Unit tests for CCA state machines (driven with synthetic events).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <set>

#include "cca/aimd.hpp"
#include "cca/bbr.hpp"
#include "cca/copa.hpp"
#include "cca/cubic.hpp"
#include "cca/new_reno.hpp"
#include "cca/vegas.hpp"

namespace ccc::cca {
namespace {

AckEvent ack(Time now, ByteCount bytes, Time rtt = Time::ms(50),
             Rate rate = Rate::mbps(10), ByteCount inflight = 0) {
  AckEvent ev;
  ev.now = now;
  ev.newly_acked_bytes = bytes;
  ev.rtt_sample = rtt;
  ev.delivery_rate = rate;
  ev.inflight_bytes = inflight;
  return ev;
}

LossEvent loss(Time now, ByteCount inflight) {
  LossEvent ev;
  ev.now = now;
  ev.lost_bytes = sim::kMss;
  ev.inflight_bytes = inflight;
  return ev;
}

// ---------- NewReno ----------

TEST(NewReno, SlowStartDoublesPerRtt) {
  NewReno cc;
  const ByteCount start = cc.cwnd_bytes();
  // ACK one full window: slow start grows cwnd by bytes acked.
  cc.on_ack(ack(Time::ms(50), start));
  EXPECT_EQ(cc.cwnd_bytes(), 2 * start);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewReno, LossHalvesWindow) {
  NewReno cc;
  cc.on_ack(ack(Time::ms(50), cc.cwnd_bytes()));
  const ByteCount before = cc.cwnd_bytes();
  cc.on_loss(loss(Time::ms(100), before));
  EXPECT_EQ(cc.cwnd_bytes(), before / 2);
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(NewReno, CongestionAvoidanceGrowsOneMssPerWindow) {
  NewReno cc;
  cc.on_loss(loss(Time::ms(10), cc.cwnd_bytes()));  // force CA
  const ByteCount w = cc.cwnd_bytes();
  // ACK exactly one window's worth of bytes in MSS chunks.
  ByteCount acked = 0;
  Time t = Time::ms(20);
  while (acked < w) {
    cc.on_ack(ack(t, sim::kMss));
    acked += sim::kMss;
    t += Time::us(100);
  }
  EXPECT_GE(cc.cwnd_bytes(), w + sim::kMss);
  EXPECT_LE(cc.cwnd_bytes(), w + 2 * sim::kMss);
}

TEST(NewReno, RtoCollapsesToOneMss) {
  NewReno cc;
  cc.on_rto(Time::ms(500));
  EXPECT_EQ(cc.cwnd_bytes(), sim::kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewReno, RecoveryFreezesGrowth) {
  NewReno cc;
  const ByteCount w = cc.cwnd_bytes();
  auto ev = ack(Time::ms(50), sim::kMss);
  ev.in_recovery = true;
  cc.on_ack(ev);
  EXPECT_EQ(cc.cwnd_bytes(), w);
}

TEST(NewReno, WindowNeverBelowTwoMss) {
  NewReno cc{2 * sim::kMss};
  for (int i = 0; i < 10; ++i) cc.on_loss(loss(Time::ms(10 * i), cc.cwnd_bytes()));
  EXPECT_GE(cc.cwnd_bytes(), 2 * sim::kMss);
}

// ---------- Cubic ----------

TEST(Cubic, SlowStartThenLossReduction) {
  Cubic cc;
  const ByteCount start = cc.cwnd_bytes();
  cc.on_ack(ack(Time::ms(50), start));
  EXPECT_EQ(cc.cwnd_bytes(), 2 * start);
  const ByteCount before = cc.cwnd_bytes();
  cc.on_loss(loss(Time::ms(100), before));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 0.7 * static_cast<double>(before),
              static_cast<double>(sim::kMss));
}

TEST(Cubic, GrowsTowardWmaxAfterLoss) {
  Cubic cc;
  // Build a large window, lose, then verify growth resumes toward w_max.
  for (int i = 0; i < 6; ++i) cc.on_ack(ack(Time::ms(50 * (i + 1)), cc.cwnd_bytes()));
  const ByteCount peak = cc.cwnd_bytes();
  cc.on_loss(loss(Time::sec(1.0), peak));
  const ByteCount post_loss = cc.cwnd_bytes();
  Time t = Time::sec(1.0);
  for (int i = 0; i < 400; ++i) {
    t += Time::ms(25);
    cc.on_ack(ack(t, sim::kMss));
  }
  EXPECT_GT(cc.cwnd_bytes(), post_loss);
}

TEST(Cubic, FastConvergenceLowersPeakOnBackToBackLosses) {
  Cubic cc;
  for (int i = 0; i < 6; ++i) cc.on_ack(ack(Time::ms(50 * (i + 1)), cc.cwnd_bytes()));
  const ByteCount w1 = cc.cwnd_bytes();
  cc.on_loss(loss(Time::sec(1.0), w1));
  const ByteCount w2 = cc.cwnd_bytes();
  cc.on_loss(loss(Time::sec(1.1), w2));
  EXPECT_LT(cc.cwnd_bytes(), w2);
}

// ---------- Vegas ----------

TEST(Vegas, HoldsInTargetBand) {
  Vegas cc{20 * sim::kMss};
  // base RTT 100 ms established first; leave slow start via a loss.
  cc.on_ack(ack(Time::ms(100), sim::kMss, Time::ms(100)));
  cc.on_loss(loss(Time::ms(150), cc.cwnd_bytes()));
  const ByteCount w = cc.cwnd_bytes();
  const double w_pkts = static_cast<double>(w) / sim::kMss;
  // Choose rtt so diff = w_pkts * (1 - base/rtt) ~= 3 packets — inside the
  // [2, 4] band, where Vegas should hold the window roughly steady.
  const double rtt_sec = 0.1 / (1.0 - 3.0 / w_pkts);
  Time t = Time::ms(300);
  for (int i = 0; i < 60; ++i) {
    t += Time::ms(110);
    cc.on_ack(ack(t, sim::kMss, Time::sec(rtt_sec)));
  }
  // Some drift is expected while srtt converges; the window must stay near
  // its starting point rather than ramping or collapsing.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), static_cast<double>(w),
              6.0 * sim::kMss);
}

TEST(Vegas, BacksOffWhenQueueGrows) {
  Vegas cc{40 * sim::kMss};
  cc.on_ack(ack(Time::ms(100), sim::kMss, Time::ms(50)));  // base 50 ms
  cc.on_loss(loss(Time::ms(150), cc.cwnd_bytes()));        // leave slow start
  const ByteCount w = cc.cwnd_bytes();
  Time t = Time::ms(300);
  for (int i = 0; i < 30; ++i) {
    t += Time::ms(110);
    cc.on_ack(ack(t, sim::kMss, Time::ms(100)));  // 2x base: deep queue
  }
  EXPECT_LT(cc.cwnd_bytes(), w);
}

TEST(Vegas, TracksMinRttAsBase) {
  Vegas cc;
  cc.on_ack(ack(Time::ms(100), sim::kMss, Time::ms(80)));
  cc.on_ack(ack(Time::ms(200), sim::kMss, Time::ms(60)));
  cc.on_ack(ack(Time::ms(300), sim::kMss, Time::ms(70)));
  EXPECT_EQ(cc.base_rtt(), Time::ms(60));
}

// ---------- BBR ----------

TEST(Bbr, StartupExitsAfterBandwidthPlateau) {
  Bbr cc;
  Time t = Time::zero();
  // Feed a constant 10 Mbit/s delivery rate; startup should exit within a
  // handful of rounds.
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 20 * sim::kMss));
  }
  EXPECT_NE(cc.state(), Bbr::State::kStartup);
  EXPECT_NEAR(cc.btlbw().to_mbps(), 10.0, 0.5);
}

TEST(Bbr, PacingRateFollowsGainCycle) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 400; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  ASSERT_EQ(cc.state(), Bbr::State::kProbeBw);
  // Pacing rate stays within the probe_bw gain envelope [0.75, 1.25]*btlbw.
  const double ratio = cc.pacing_rate().to_bps() / cc.btlbw().to_bps();
  EXPECT_GE(ratio, 0.74);
  EXPECT_LE(ratio, 1.26);
}

TEST(Bbr, IgnoresLoss) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  const ByteCount before = cc.cwnd_bytes();
  cc.on_loss(loss(t, before));
  EXPECT_EQ(cc.cwnd_bytes(), before);
}

TEST(Bbr, CwndIsTwoBdp) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 200; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  // BDP = 10 Mbit/s * 50 ms = 62,500 bytes; cwnd should be ~2x.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 125000.0, 20000.0);
}

TEST(Bbr, AppLimitedSamplesDontInflateModel) {
  Bbr cc;
  Time t = Time::zero();
  for (int i = 0; i < 100; ++i) {
    t += Time::ms(10);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50), Rate::mbps(10), 10 * sim::kMss));
  }
  const Rate before = cc.btlbw();
  auto ev = ack(t + Time::ms(10), sim::kMss, Time::ms(50), Rate::mbps(50), 10 * sim::kMss);
  ev.app_limited = true;
  // App-limited sample *above* the estimate still counts (proves capacity)…
  cc.on_ack(ev);
  EXPECT_GT(cc.btlbw(), before);
  // …but one *below* must not drag the estimate down: feed low app-limited
  // samples and verify the filter keeps the old max until it ages out.
  auto low = ack(t + Time::ms(20), sim::kMss, Time::ms(50), Rate::mbps(1), 10 * sim::kMss);
  low.app_limited = true;
  cc.on_ack(low);
  EXPECT_GT(cc.btlbw().to_mbps(), 9.0);
}

// Reference BBR whose btlbw() scans every sample in the window: the oracle
// for Bbr's monotone-deque filter. Same state machine, same arithmetic; only
// the filter differs (a plain deque, max by full scan).
class FullScanBbr {
 public:
  [[nodiscard]] Rate btlbw() const {
    Rate best = Rate::zero();
    for (const auto& [round, r] : bw_samples_) best = std::max(best, r);
    return best;
  }
  [[nodiscard]] Bbr::State state() const { return state_; }
  [[nodiscard]] ByteCount cwnd_bytes() const {
    if (state_ == Bbr::State::kProbeRtt) return 4 * kMss;
    if (!filled_pipe_ && btlbw().is_zero()) return kInitialWindowBytes;
    return bdp_with_gain(kCwndGain);
  }
  [[nodiscard]] Rate pacing_rate() const {
    const Rate bw = btlbw();
    return bw.is_zero() ? Rate::zero() : bw * pacing_gain_;
  }
  void on_ack(const AckEvent& ev) {
    update_model(ev);
    advance_state_machine(ev);
  }
  void on_rto() {
    if (!filled_pipe_) {
      state_ = Bbr::State::kStartup;
      pacing_gain_ = kStartupGain;
    }
  }

 private:
  static constexpr ByteCount kMss = sim::kMss;
  static constexpr double kStartupGain = 2.885;
  static constexpr double kDrainGain = 1.0 / 2.885;
  static constexpr double kCwndGain = 2.0;
  static constexpr int kBwFilterRounds = 10;
  static constexpr std::int64_t kMinRttExpirySec = 10;
  static constexpr double kCycleGains[8] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};

  [[nodiscard]] ByteCount bdp_with_gain(double gain) const {
    if (min_rtt_ == Time::never() || btlbw().is_zero()) return kInitialWindowBytes;
    const auto bdp = static_cast<ByteCount>(btlbw().bytes_per_sec() * min_rtt_.to_sec() * gain);
    return std::max<ByteCount>(bdp, 4 * kMss);
  }

  void update_model(const AckEvent& ev) {
    if (ev.rtt_sample > Time::zero()) {
      srtt_ = srtt_ == Time::zero() ? ev.rtt_sample
                                    : Time::ns(static_cast<std::int64_t>(
                                          0.875 * static_cast<double>(srtt_.count_ns()) +
                                          0.125 * static_cast<double>(ev.rtt_sample.count_ns())));
      if (ev.rtt_sample <= min_rtt_ || min_rtt_ == Time::never() ||
          (ev.now - min_rtt_stamp_) > Time::sec(kMinRttExpirySec)) {
        min_rtt_ = ev.rtt_sample;
        min_rtt_stamp_ = ev.now;
      }
    }
    if (srtt_ > Time::zero() && ev.now - round_started_ >= srtt_) {
      ++round_;
      round_started_ = ev.now;
    }
    if (!ev.delivery_rate.is_zero() && (!ev.app_limited || ev.delivery_rate > btlbw())) {
      bw_samples_.emplace_back(round_, ev.delivery_rate);
    }
    while (!bw_samples_.empty() && bw_samples_.front().first + kBwFilterRounds < round_) {
      bw_samples_.pop_front();
    }
  }

  void enter_probe_bw(Time now) {
    state_ = Bbr::State::kProbeBw;
    cycle_idx_ = 0;
    cycle_stamp_ = now;
    pacing_gain_ = kCycleGains[0];
  }

  void advance_state_machine(const AckEvent& ev) {
    switch (state_) {
      case Bbr::State::kStartup: {
        if (round_ == last_full_bw_round_) break;
        last_full_bw_round_ = round_;
        const Rate bw = btlbw();
        if (bw.is_zero()) break;
        if (bw > full_bw_ * 1.25) {
          full_bw_ = bw;
          full_bw_rounds_ = 0;
        } else if (++full_bw_rounds_ >= 3) {
          filled_pipe_ = true;
          state_ = Bbr::State::kDrain;
          pacing_gain_ = kDrainGain;
        }
        break;
      }
      case Bbr::State::kDrain:
        if (ev.inflight_bytes <= bdp_with_gain(1.0)) enter_probe_bw(ev.now);
        break;
      case Bbr::State::kProbeBw:
        if (min_rtt_ != Time::never() && ev.now - cycle_stamp_ >= min_rtt_) {
          cycle_stamp_ = ev.now;
          cycle_idx_ = (cycle_idx_ + 1) % 8;
          pacing_gain_ = kCycleGains[cycle_idx_];
        }
        if (ev.now - min_rtt_stamp_ > Time::sec(kMinRttExpirySec)) {
          state_ = Bbr::State::kProbeRtt;
          probe_rtt_done_ = ev.now + std::max(Time::ms(200), srtt_);
          pacing_gain_ = 1.0;
        }
        break;
      case Bbr::State::kProbeRtt:
        if (ev.now >= probe_rtt_done_) {
          min_rtt_stamp_ = ev.now;
          if (filled_pipe_) {
            enter_probe_bw(ev.now);
          } else {
            state_ = Bbr::State::kStartup;
            pacing_gain_ = kStartupGain;
          }
        }
        break;
    }
  }

  Bbr::State state_{Bbr::State::kStartup};
  std::deque<std::pair<std::uint64_t, Rate>> bw_samples_;
  std::uint64_t round_{0};
  Time round_started_{Time::zero()};
  Time srtt_{Time::zero()};
  Time min_rtt_{Time::never()};
  Time min_rtt_stamp_{Time::zero()};
  Time probe_rtt_done_{Time::never()};
  Rate full_bw_{Rate::zero()};
  int full_bw_rounds_{0};
  std::uint64_t last_full_bw_round_{0};
  bool filled_pipe_{false};
  int cycle_idx_{0};
  Time cycle_stamp_{Time::zero()};
  double pacing_gain_{kStartupGain};
};

TEST(Bbr, MaxFilterMatchesFullScanReference) {
  // Seeded random ACK streams in phases that stress the filter: rates from a
  // small grid (ties), app-limited samples, sharp rate drops (the old max
  // must age out on time), and stretches with no usable sample for more
  // than kBwFilterRounds rounds (the filter empties), plus long stretches of
  // RTTs above the minimum, some ACKs without an RTT sample, which let the
  // min-RTT estimate go stale (ProbeRTT). Losses and timeouts are mixed in;
  // all four observable outputs must agree after every event.
  std::set<Bbr::State> states_seen;
  int filter_emptied = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng{seed};
    const auto uniform = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>{lo, hi}(rng);
    };
    Bbr cc;
    FullScanBbr ref;
    Time t = Time::zero();
    int phase_left = 0;
    int phase = 0;
    int rate_hi = 50;
    for (int i = 0; i < 20'000; ++i) {
      if (phase_left-- <= 0) {
        phase = uniform(0, 4);
        phase_left = uniform(20, 600);
        if (phase == 2) rate_hi = uniform(1, 8);  // a drop well below the old max
        if (phase != 2) rate_hi = uniform(10, 60);
      }
      t += phase == 4 ? Time::ms(uniform(10, 40)) : Time::us(uniform(100, 8'000));
      AckEvent ev = ack(t, sim::kMss, Time::ms(uniform(20, 120)),
                        Rate::mbps(uniform(1, rate_hi)), uniform(0, 80) * sim::kMss);
      if (phase == 4) {
        ev.rtt_sample = uniform(0, 1) == 0 ? Time::zero() : Time::ms(uniform(150, 250));
      }
      if (phase == 1) ev.app_limited = uniform(0, 1) == 1;
      if (phase == 3) {
        // No usable sample: zero rates, or app-limited ones below the max.
        ev.delivery_rate = uniform(0, 1) == 0 ? Rate::zero() : Rate::kbps(uniform(1, 50));
        ev.app_limited = true;
      }
      if (uniform(0, 50) == 0) ev.rtt_sample = Time::zero();
      const bool had_model = !ref.btlbw().is_zero();
      cc.on_ack(ev);
      ref.on_ack(ev);
      if (uniform(0, 400) == 0) {
        cc.on_loss(loss(t, ev.inflight_bytes));
      }
      if (uniform(0, 2'000) == 0) {
        cc.on_rto(t);
        ref.on_rto();
      }
      ASSERT_EQ(cc.btlbw(), ref.btlbw()) << "seed " << seed << " ack " << i;
      ASSERT_EQ(cc.pacing_rate(), ref.pacing_rate()) << "seed " << seed << " ack " << i;
      ASSERT_EQ(cc.cwnd_bytes(), ref.cwnd_bytes()) << "seed " << seed << " ack " << i;
      ASSERT_EQ(cc.state(), ref.state()) << "seed " << seed << " ack " << i;
      states_seen.insert(cc.state());
      if (had_model && ref.btlbw().is_zero()) ++filter_emptied;
    }
  }
  EXPECT_EQ(states_seen.size(), 4u) << "the streams must visit every BBR state";
  EXPECT_GT(filter_emptied, 0) << "the streams must age every sample out at least once";
}

// ---------- Copa ----------

TEST(Copa, IncreasesWhenNoQueue) {
  Copa cc;
  Time t = Time::zero();
  const ByteCount start = cc.cwnd_bytes();
  for (int i = 0; i < 50; ++i) {
    t += Time::ms(50);
    cc.on_ack(ack(t, sim::kMss, Time::ms(50)));  // rtt == min rtt: no queue
  }
  EXPECT_GT(cc.cwnd_bytes(), start);
}

TEST(Copa, BacksOffUnderLargeQueueDelay) {
  Copa cc{100 * sim::kMss};
  Time t = Time::zero();
  cc.on_ack(ack(t + Time::ms(50), sim::kMss, Time::ms(50)));  // min rtt = 50
  // Now huge standing queue: 200 ms RTTs. Target rate 1/(0.5*0.15) ~= 13
  // pkts/s, far below cwnd/rtt, so Copa must decrease. (Stay within the
  // 10 s min-RTT window so the 50 ms baseline remains in force.)
  const ByteCount before = cc.cwnd_bytes();
  for (int i = 0; i < 40; ++i) {
    t += Time::ms(200);
    cc.on_ack(ack(t, sim::kMss, Time::ms(200)));
  }
  EXPECT_LT(cc.cwnd_bytes(), before);
}

TEST(Copa, ReportsQueueingDelay) {
  Copa cc;
  Time t = Time::ms(50);
  cc.on_ack(ack(t, sim::kMss, Time::ms(50)));
  t += Time::ms(80);
  cc.on_ack(ack(t, sim::kMss, Time::ms(80)));
  // min 50, standing window holds recent 80 -> queueing ~30 ms.
  EXPECT_NEAR(cc.queueing_delay().to_ms(), 30.0, 10.0);
}

// ---------- AIMD ----------

TEST(Aimd, AdditiveIncreasePerRtt) {
  Aimd cc{1.0, 0.5, 10 * sim::kMss, sim::kMss, /*slow_start=*/false};
  const ByteCount w = cc.cwnd_bytes();
  // ACK slightly more than one window (floating-point accumulation may need
  // the extra ACK to tip over); growth must be exactly one MSS.
  ByteCount acked = 0;
  Time t = Time::zero();
  while (acked < w + sim::kMss) {
    t += Time::ms(1);
    cc.on_ack(ack(t, sim::kMss));
    acked += sim::kMss;
  }
  EXPECT_GE(cc.cwnd_bytes(), w + sim::kMss);
  EXPECT_LE(cc.cwnd_bytes(), w + 2 * sim::kMss);
}

TEST(Aimd, MultiplicativeDecreaseUsesBeta) {
  Aimd cc{1.0, 0.25, 40 * sim::kMss, sim::kMss, false};
  const ByteCount w = cc.cwnd_bytes();
  cc.on_loss(loss(Time::ms(10), w));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 0.75 * static_cast<double>(w),
              static_cast<double>(sim::kMss));
}

TEST(Aimd, InvalidParamsAssert) {
  // Construction contract: a in (0,inf), b in (0,1). Death tests are heavy;
  // verify legal edge construction works instead.
  Aimd ok{0.5, 0.9, sim::kMss, sim::kMss, false};
  EXPECT_EQ(ok.cwnd_bytes(), sim::kMss);
}

}  // namespace
}  // namespace ccc::cca
