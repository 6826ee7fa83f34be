// Stress and golden-order tests for the event engine (typed heap entries,
// timer wheel, per-sink delivery batches, packet arena).
//
// The engine's contract is exactly the pre-wheel scheduler's contract:
// events fire in ascending (time, schedule-order) regardless of which
// internal structure (heap, wheel bucket, delivery batch) they pass through.
// The golden test below checks a large adversarial workload against an
// independent reference model of that contract — NOT against the engine's
// own bookkeeping — so any internal reordering (a bucket spilled late, a
// cascade dropped, a tie broken by address) fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace ccc;
using sim::EventId;
using sim::Scheduler;

/// Deterministic 64-bit mixer (splitmix64) — fixed workload, no <random>.
struct Mix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// One event in the reference model: where the engine was told to fire it,
/// and the order in which it was scheduled (the FIFO tie-break key).
struct RefEvent {
  Time at;
  std::uint64_t order;
  int label;
  bool cancelled{false};
};

struct LabelSink : sim::PacketSink {
  std::vector<int>* log;
  void deliver(const sim::Packet& p) override { log->push_back(static_cast<int>(p.flow)); }
};

/// Golden firing order: an adversarial workload — every event kind, delays
/// straddling all wheel levels plus sub-tick and same-tick times, equal-time
/// ties, and a third of the cancellable timers cancelled mid-run — must fire
/// in exactly the (time, schedule-order) sequence of an independent model.
/// The deliveries all go through one batch in random time order, so nearly
/// every append is an out-of-order insert.
TEST(SchedulerStress, GoldenFiringOrderMatchesReferenceModel) {
  constexpr int kEvents = 20'000;
  Scheduler sched;
  std::vector<int> fired;  // labels in actual firing order
  fired.reserve(kEvents);
  std::vector<RefEvent> model;
  model.reserve(kEvents);
  std::vector<std::pair<EventId, std::size_t>> cancellable;  // id -> model idx

  LabelSink sink;
  sink.log = &fired;
  const Scheduler::BatchId batch = sched.register_delivery_batch(sink);
  struct Ctx {
    std::vector<int>* log;
    int label;
  };
  std::vector<Ctx> ctxs(kEvents);

  Mix rng{0x5eedull};
  std::uint64_t order = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Delays spanning: same-time ties (0), sub-tick (us), one-tick (ms),
    // level-0 (tens of ms), level-1 (hundreds of ms .. s), level-2 (minutes).
    Time delay;
    switch (rng.below(6)) {
      case 0: delay = Time::zero(); break;
      case 1: delay = Time::us(static_cast<std::int64_t>(rng.below(1000))); break;
      case 2: delay = Time::ms(static_cast<std::int64_t>(rng.below(10))); break;
      case 3: delay = Time::ms(static_cast<std::int64_t>(rng.below(100))); break;
      case 4: delay = Time::ms(static_cast<std::int64_t>(100 + rng.below(5000))); break;
      default: delay = Time::sec(static_cast<double>(60 + rng.below(300))); break;
    }
    const Time at = delay;  // scheduled before the run starts, from t=0
    ctxs[i] = {&fired, i};
    switch (rng.below(4)) {
      case 0: {  // generic closure
        auto* log = &fired;
        const EventId id = sched.schedule_at(at, [log, i] { log->push_back(i); });
        cancellable.emplace_back(id, model.size());
        break;
      }
      case 1: {  // typed call
        const EventId id = sched.schedule_call_at(
            at,
            [](void* c, std::uint64_t) {
              auto* ctx = static_cast<Ctx*>(c);
              ctx->log->push_back(ctx->label);
            },
            &ctxs[i]);
        cancellable.emplace_back(id, model.size());
        break;
      }
      case 2:  // fire-and-forget typed call (no slot)
        sched.schedule_fire_at(
            at,
            [](void* c, std::uint64_t) {
              auto* ctx = static_cast<Ctx*>(c);
              ctx->log->push_back(ctx->label);
            },
            &ctxs[i]);
        break;
      default: {  // packet delivery through the batch
        sim::Packet p;
        p.flow = static_cast<sim::FlowId>(i);
        sched.schedule_deliver_batch_at(at, batch, p);
        break;
      }
    }
    model.push_back({at, order++, i});
  }

  // Cancel ~a third of the cancellable events (deterministically chosen).
  for (std::size_t k = 0; k < cancellable.size(); ++k) {
    if (rng.below(3) == 0) {
      sched.cancel(cancellable[k].first);
      model[cancellable[k].second].cancelled = true;
    }
  }

  sched.run_until(Time::sec(1e6));

  // Reference: surviving events sorted by (time, schedule order).
  std::vector<RefEvent> expect;
  for (const auto& e : model) {
    if (!e.cancelled) expect.push_back(e);
  }
  std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  });

  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(fired[i], expect[i].label) << "divergence at position " << i;
  }
  EXPECT_EQ(sched.pending(), 0u);
}

/// The identical workload must fire in the identical order on a second
/// scheduler instance — the bit-identical-across-jobs invariant at the
/// engine level.
TEST(SchedulerStress, IdenticalWorkloadIsBitIdentical) {
  auto run = [] {
    Scheduler sched;
    std::vector<int> fired;
    Mix rng{0xabcdull};
    struct Ctx {
      std::vector<int>* log;
      int label;
    };
    std::vector<Ctx> ctxs(5000);
    for (int i = 0; i < 5000; ++i) {
      const Time at = Time::us(static_cast<std::int64_t>(rng.below(200'000)));
      ctxs[i] = {&fired, i};
      sched.schedule_fire_at(
          at,
          [](void* c, std::uint64_t) {
            auto* ctx = static_cast<Ctx*>(c);
            ctx->log->push_back(ctx->label);
          },
          &ctxs[i]);
    }
    sched.run_until(Time::sec(10));
    return fired;
  };
  EXPECT_EQ(run(), run());
}

/// 1M schedule/cancel cycles of the RTO pattern. Bounded structures: lazy
/// deletion must not let cancelled records accumulate in either the heap or
/// the wheel beyond the sweep thresholds.
TEST(SchedulerStress, MillionCancelCyclesStayBounded) {
  constexpr int kCycles = 1'000'000;
  Scheduler sched;
  EventId rto = 0;
  std::size_t max_footprint = 0;
  for (int i = 0; i < kCycles; ++i) {
    sched.cancel(rto);
    rto = sched.schedule_call_after(Time::ms(200), [](void*, std::uint64_t) {}, nullptr);
    if ((i & 1023) == 0) {
      max_footprint = std::max(max_footprint, sched.heap_entries() + sched.wheel_entries());
    }
  }
  // One live timer; everything else is cancelled debris awaiting sweep. The
  // sweeps fire when stale records outnumber live ones (with a small floor),
  // so the all-time footprint stays a small constant, not O(cycles).
  max_footprint = std::max(max_footprint, sched.heap_entries() + sched.wheel_entries());
  EXPECT_LT(max_footprint, 4096u);
  EXPECT_EQ(sched.pending(), 1u);

  // And time can still advance past all the churn debris.
  sched.run_until(Time::sec(1));
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.heap_entries(), 0u);
  EXPECT_EQ(sched.wheel_entries(), 0u);
}

/// Timers seeded across every wheel level (minutes out) fire at their exact
/// due times after cascading down through the levels.
TEST(SchedulerStress, CascadeAcrossLevelsFiresAtExactTimes) {
  Scheduler sched;
  std::vector<std::pair<int, Time>> fired;
  struct Ctx {
    Scheduler* sched;
    std::vector<std::pair<int, Time>>* log;
    int label;
    Time expect;
  };
  // Spans: level 0 (< ~67ms), level 1 (< ~4.3s), level 2 (< ~4.6min),
  // level 3 (hours), plus the exact level-0 and level-1 rollover boundaries
  // (64 ticks = 2^26 ns, 64^2 ticks = 2^32 ns with 2^20 ns ticks).
  const Time delays[] = {Time::ms(2),   Time::ms(65),  Time::ms(300), Time::sec(1),
                         Time::sec(4),  Time::sec(30), Time::sec(270), Time::sec(3600),
                         Time::ns(67'108'864), Time::ns(4'294'967'296)};
  std::vector<Ctx> ctxs;
  ctxs.reserve(std::size(delays));
  int label = 0;
  for (const Time d : delays) {
    ctxs.push_back({&sched, &fired, label++, d});
  }
  for (auto& c : ctxs) {
    sched.schedule_fire_at(
        c.expect,
        [](void* p, std::uint64_t) {
          auto* ctx = static_cast<Ctx*>(p);
          ctx->log->emplace_back(ctx->label, ctx->sched->now());
        },
        &c);
  }
  sched.run_until(Time::sec(7200));
  ASSERT_EQ(fired.size(), std::size(delays));
  for (const auto& [lab, at] : fired) {
    EXPECT_EQ(at, ctxs[static_cast<std::size_t>(lab)].expect) << "label " << lab;
  }
}

/// Every event kind scheduled at one instant fires in schedule order —
/// the FIFO tie-break holds across kinds, not just within one.
TEST(SchedulerStress, FifoTieBreakAcrossEventKinds) {
  Scheduler sched;
  std::vector<int> fired;
  LabelSink sink;
  sink.log = &fired;
  const Scheduler::BatchId batch = sched.register_delivery_batch(sink);
  struct Ctx {
    std::vector<int>* log;
    int label;
  } c1{&fired, 1}, c3{&fired, 3};

  const Time at = Time::ms(5);
  sched.schedule_at(at, [&] { fired.push_back(0); });  // closure
  sched.schedule_call_at(
      at,
      [](void* c, std::uint64_t) {
        auto* ctx = static_cast<Ctx*>(c);
        ctx->log->push_back(ctx->label);
      },
      &c1);                             // typed call
  sim::Packet p;
  p.flow = 2;
  sched.schedule_deliver_batch_at(at, batch, p);  // batch delivery
  sched.schedule_fire_at(
      at,
      [](void* c, std::uint64_t) {
        auto* ctx = static_cast<Ctx*>(c);
        ctx->log->push_back(ctx->label);
      },
      &c3);  // fire-and-forget
  sched.run_until(Time::ms(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

/// Golden firing order with several delivery batches in the mix. Batch
/// deliveries live in per-sink SoA queues merged into the schedule as
/// synthesized fronts (never stored as entries), so the test that matters
/// is exactly the golden test's above: an adversarial interleaving of three
/// batches with every other kind — equal-time ties across kinds, heavy
/// same-tick runs within one batch, and a third of the cancellable timers
/// cancelled mid-run — must fire in the (time, schedule-order) sequence of
/// an independent model. Runs the workload twice: once through run_until
/// (bulk drain, fused heap path) and once event-by-event through run_one
/// (the single_step fallback), which must agree with the model and with
/// each other.
TEST(SchedulerStress, GoldenOrderWithBatchDeliveriesMatchesReferenceModel) {
  constexpr int kEvents = 20'000;
  struct Ctx {
    std::vector<int>* log;
    int label;
  };

  // Builds the identical workload on a fresh scheduler and returns the
  // reference model; `fired` receives labels in actual firing order.
  auto build = [&](Scheduler& sched, std::vector<int>& fired, std::vector<Ctx>& ctxs,
                   LabelSink& sink_plain, LabelSink& sink_a, LabelSink& sink_b) {
    sink_plain.log = &fired;
    sink_a.log = &fired;
    sink_b.log = &fired;
    const Scheduler::BatchId batch_plain = sched.register_delivery_batch(sink_plain);
    const Scheduler::BatchId batch_a = sched.register_delivery_batch(sink_a);
    const Scheduler::BatchId batch_b = sched.register_delivery_batch(sink_b);

    std::vector<RefEvent> model;
    model.reserve(kEvents);
    std::vector<std::pair<EventId, std::size_t>> cancellable;
    Mix rng{0xba7c4ull};
    std::uint64_t order = 0;
    for (int i = 0; i < kEvents; ++i) {
      // A small time alphabet on purpose: massive equal-time ties force
      // long same-tick runs inside each batch queue (the bulk-drain path)
      // while still interleaving the two batches and the other kinds.
      Time at;
      switch (rng.below(4)) {
        case 0: at = Time::ms(static_cast<std::int64_t>(rng.below(8))); break;
        case 1: at = Time::us(static_cast<std::int64_t>(100 * rng.below(50))); break;
        case 2: at = Time::ms(static_cast<std::int64_t>(50 + rng.below(20))); break;
        default: at = Time::sec(static_cast<double>(1 + rng.below(3))); break;
      }
      ctxs[static_cast<std::size_t>(i)] = {&fired, i};
      switch (rng.below(5)) {
        case 0: {  // closure (cancellable)
          auto* log = &fired;
          const EventId id = sched.schedule_at(at, [log, i] { log->push_back(i); });
          cancellable.emplace_back(id, model.size());
          break;
        }
        case 1: {  // typed call (cancellable)
          const EventId id = sched.schedule_call_at(
              at,
              [](void* c, std::uint64_t) {
                auto* ctx = static_cast<Ctx*>(c);
                ctx->log->push_back(ctx->label);
              },
              &ctxs[static_cast<std::size_t>(i)]);
          cancellable.emplace_back(id, model.size());
          break;
        }
        case 2: {  // SoA batch delivery, plain sink
          sim::Packet p;
          p.flow = static_cast<sim::FlowId>(i);
          sched.schedule_deliver_batch_at(at, batch_plain, p);
          break;
        }
        case 3: {  // SoA batch delivery, sink A
          sim::Packet p;
          p.flow = static_cast<sim::FlowId>(i);
          sched.schedule_deliver_batch_at(at, batch_a, p);
          break;
        }
        default: {  // SoA batch delivery, sink B
          sim::Packet p;
          p.flow = static_cast<sim::FlowId>(i);
          sched.schedule_deliver_batch_at(at, batch_b, p);
          break;
        }
      }
      model.push_back({at, order++, i});
    }
    for (std::size_t k = 0; k < cancellable.size(); ++k) {
      if (rng.below(3) == 0) {
        sched.cancel(cancellable[k].first);
        model[cancellable[k].second].cancelled = true;
      }
    }
    return model;
  };

  // Leg 1: bulk run_until.
  Scheduler bulk;
  std::vector<int> bulk_fired;
  bulk_fired.reserve(kEvents);
  std::vector<Ctx> bulk_ctxs(kEvents);
  LabelSink bp, ba, bb;
  const auto model = build(bulk, bulk_fired, bulk_ctxs, bp, ba, bb);
  bulk.run_until(Time::sec(10));

  // Leg 2: the same workload stepped one event at a time (single_step).
  Scheduler stepped;
  std::vector<int> step_fired;
  step_fired.reserve(kEvents);
  std::vector<Ctx> step_ctxs(kEvents);
  LabelSink sp, sa, sb;
  (void)build(stepped, step_fired, step_ctxs, sp, sa, sb);
  while (stepped.run_one()) {
  }

  std::vector<RefEvent> expect;
  for (const auto& e : model) {
    if (!e.cancelled) expect.push_back(e);
  }
  std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  });

  ASSERT_EQ(bulk_fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(bulk_fired[i], expect[i].label) << "bulk divergence at position " << i;
  }
  EXPECT_EQ(step_fired, bulk_fired);
  EXPECT_EQ(bulk.pending(), 0u);
  EXPECT_EQ(stepped.pending(), 0u);
}

/// The batch drain returns arena handles as it delivers, not at tick end:
/// steady-state relay traffic through a registered batch must keep pool
/// capacity at the in-flight high-water mark (two ping-ponging packets plus
/// their same-tick reschedules), not grow with the hop count.
TEST(SchedulerStress, BatchDrainRecyclesArenaSlotsWithinTick) {
  Scheduler sched;
  struct BatchRelay : sim::PacketSink {
    Scheduler* sched{nullptr};
    Scheduler::BatchId batch{0};
    int hops{0};
    void deliver(const sim::Packet& p) override {
      if (++hops < 50'000) sched->schedule_deliver_batch_after(Time::us(7), batch, p);
    }
  } relay;
  relay.sched = &sched;
  relay.batch = sched.register_delivery_batch(relay);
  sim::Packet seed;
  seed.flow = 9;
  // Both packets land on the same batch tick every hop, so every drain is
  // the run-of-2 bulk path: 2 handles held during delivery, 2 acquired by
  // the reschedules. Capacity beyond 4 means a handle out-lived its drain.
  sched.schedule_deliver_batch_at(Time::zero(), relay.batch, seed);
  sched.schedule_deliver_batch_at(Time::zero(), relay.batch, seed);
  sched.run_until(Time::sec(1));
  EXPECT_EQ(sched.packets().live(), 0u);
  EXPECT_EQ(sched.batch_in_flight(relay.batch), 0u);
  EXPECT_LE(sched.packets().capacity(), 4u);
}

/// Rebinding a batch redirects every delivery still in flight, including
/// ones appended out of time order: all of them reach the new sink, in
/// (time, schedule-order), and none reaches the old one.
TEST(SchedulerStress, RebindRedirectsOutOfOrderDeliveries) {
  Scheduler sched;
  std::vector<int> old_log;
  std::vector<int> new_log;
  LabelSink old_sink;
  old_sink.log = &old_log;
  LabelSink new_sink;
  new_sink.log = &new_log;
  const Scheduler::BatchId batch = sched.register_delivery_batch(old_sink);

  // (delivery time in us, label); labels are the schedule order.
  const std::pair<int, int> sends[] = {{50, 0}, {30, 1}, {50, 2}, {10, 3},
                                       {40, 4}, {30, 5}, {60, 6}, {10, 7}};
  for (const auto& [us, label] : sends) {
    sim::Packet p;
    p.flow = static_cast<sim::FlowId>(label);
    sched.schedule_deliver_batch_at(Time::us(us), batch, p);
  }
  EXPECT_EQ(sched.batch_in_flight(batch), std::size(sends));
  sched.rebind_delivery_batch(batch, new_sink);
  sched.run_until(Time::ms(1));

  EXPECT_TRUE(old_log.empty());
  EXPECT_EQ(new_log, (std::vector<int>{3, 7, 1, 5, 4, 0, 2, 6}));
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.packets().live(), 0u);
}

}  // namespace
