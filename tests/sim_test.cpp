// Unit tests for the discrete-event engine: ordering, cancellation,
// determinism, periodic tasks, watchdog guards, allocation behavior,
// InlineAction semantics, reference-model goldens checks (plain, with
// reserved slots, and with tail dispatch against a twin), and a
// queueing sanity property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "counting_alloc.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace hicc::sim {
namespace {

using namespace hicc::literals;

TEST(Simulator, StartsAtZeroIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePs(0));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.run_one());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(3_us, [&] { order.push_back(3); });
  sim.at(1_us, [&] { order.push_back(1); });
  sim.at(2_us, [&] { order.push_back(2); });
  sim.run_until(10_us);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10_us);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(1_us, [&] { order.push_back(1); });
  sim.at(1_us, [&] { order.push_back(2); });
  sim.at(1_us, [&] { order.push_back(3); });
  sim.run_until(1_us);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NowIsEventTimeDuringExecution) {
  Simulator sim;
  TimePs seen{};
  sim.at(5_us, [&] { seen = sim.now(); });
  sim.run_until(10_us);
  EXPECT_EQ(seen, 5_us);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.run_until(5_us);
  TimePs ran_at{};
  sim.at(1_us, [&] { ran_at = sim.now(); });
  sim.run_until(5_us);
  EXPECT_EQ(ran_at, 5_us);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.after(1_us, chain);
  };
  sim.after(1_us, chain);
  sim.run_until(100_us);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.executed(), 5u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.at(1_us, [&] { ++ran; });
  sim.at(2_us, [&] { ++ran; });
  sim.run_until(1_us);  // inclusive boundary
  EXPECT_EQ(ran, 1);
  sim.run_until(2_us);
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int ran = 0;
  const EventId id = sim.at(1_us, [&] { ++ran; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports false
  sim.run_until(2_us);
  EXPECT_EQ(ran, 0);
}

// Far-future events wait in a heap whose top node peek_min() reads only
// while a cancellation has left a dead entry there.
TEST(Simulator, CancelledFarFutureEventsNeverRun) {
  Simulator sim;
  std::vector<int> ran;
  std::vector<EventId> ids;
  // 1 ms and beyond: past the wheel's 33.5 us horizon, so in the heap.
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.at(1_ms + TimePs::from_us(i), [&ran, i] { ran.push_back(i); }));
  }
  // The heap's top, and entries below it.
  for (const int i : {0, 3, 5}) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.queued_nodes(), 8u);  // tombstones until they surface
  sim.run_until(1_ms + TimePs::from_us(2));
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending(), 5u - 2u);
  sim.run_until(1_ms + TimePs::from_us(5));
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.queued_nodes(), sim.pending());  // every dead entry surfaced
  // A later cancellation in the heap is reclaimed when it surfaces too.
  EXPECT_TRUE(sim.cancel(ids[7]));
  sim.run_until(2_ms);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 4, 6}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.queued_nodes(), 0u);
}

TEST(Simulator, CancelInvalidIdIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
  EXPECT_FALSE(sim.cancel(EventId{999}));
}

// Regression: cancelling an event that already executed used to count a
// phantom tombstone and underflow pending() to SIZE_MAX.
TEST(Simulator, CancelAfterExecutionIsNoOp) {
  Simulator sim;
  int ran = 0;
  const EventId id = sim.at(1_us, [&] { ++ran; });
  sim.run_until(2_us);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);  // must not underflow
  sim.at(3_us, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PendingCountsUncancelledOnly) {
  Simulator sim;
  const auto a = sim.at(1_us, [] {});
  sim.at(2_us, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(3_us);
  EXPECT_EQ(sim.pending(), 0u);
}

// An end before now() must not move the clock back: an event scheduled
// next would otherwise run at a time before one that already ran.
TEST(Simulator, RunUntilBeforeNowIsANoOp) {
  Simulator sim;
  std::vector<TimePs> ran;
  sim.at(10_us, [&] { ran.push_back(sim.now()); });
  sim.run_until(20_us);
  const std::uint64_t later = sim.reserve_seq();  // issued after that run
  sim.run_until(5_us);
  EXPECT_EQ(sim.now(), 20_us);
  EXPECT_FALSE(sim.passed(20_us, later));  // the passed() slot stays put too
  sim.at(6_us, [&] { ran.push_back(sim.now()); });  // the past: clamped to 20 us
  sim.run_until(30_us);
  EXPECT_EQ(ran, (std::vector<TimePs>{10_us, 20_us}));
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(Simulator, RunOneExecutesExactlyOne) {
  Simulator sim;
  int ran = 0;
  sim.at(1_us, [&] { ++ran; });
  sim.at(2_us, [&] { ++ran; });
  EXPECT_TRUE(sim.run_one());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 1_us);
}

TEST(PeriodicTask, FiresEveryPeriodUntilStopped) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(sim, 1_us, [&] { ++ticks; });
    sim.run_until(5_us + 500_ns);
    EXPECT_EQ(ticks, 5);
    task.stop();
    sim.run_until(10_us);
    EXPECT_EQ(ticks, 5);
  }
}

TEST(PeriodicTask, DestructorStops) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(sim, 1_us, [&] { ++ticks; });
    sim.run_until(2_us);
  }
  sim.run_until(10_us);
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTask, StopThenStartRearms) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 1_us, [&] { ++ticks; });
  sim.run_until(2_us);
  EXPECT_EQ(ticks, 2);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_until(5_us);
  EXPECT_EQ(ticks, 2);  // stopped: no ticks at 3/4/5us
  task.start();
  EXPECT_TRUE(task.running());
  task.start();  // no-op while running
  sim.run_until(7_us);  // restarted at 5us: ticks at 6 and 7us
  EXPECT_EQ(ticks, 4);
}

TEST(PeriodicTask, DefaultConstructedIsDead) {
  PeriodicTask task;
  EXPECT_FALSE(task.running());
  task.stop();   // all operations are no-ops
  task.start();
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, MovedFromIsDead) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask a(sim, 1_us, [&] { ++ticks; });
  PeriodicTask b = std::move(a);
  EXPECT_FALSE(a.running());  // NOLINT(bugprone-use-after-move): dead, not UB
  a.stop();
  a.start();
  EXPECT_FALSE(a.running());
  EXPECT_TRUE(b.running());
  sim.run_until(2_us);
  EXPECT_EQ(ticks, 2);  // the moved-to task kept the schedule
}

TEST(PeriodicTask, MoveAssignStopsTheOverwrittenTask) {
  Simulator sim;
  int slow = 0;
  int fast = 0;
  PeriodicTask task(sim, 3_us, [&] { ++slow; });
  task = PeriodicTask(sim, 1_us, [&] { ++fast; });
  sim.run_until(6_us);
  EXPECT_EQ(slow, 0);  // the overwritten task never fires
  EXPECT_EQ(fast, 6);
}

TEST(PeriodicTask, MovableIntoContainers) {
  Simulator sim;
  int ticks = 0;
  std::vector<PeriodicTask> tasks;
  tasks.emplace_back(sim, 1_us, [&] { ++ticks; });
  tasks.emplace_back(sim, 2_us, [&] { ++ticks; });
  tasks.reserve(32);  // forces a reallocation, i.e. moves of live tasks
  sim.run_until(2_us);
  EXPECT_EQ(ticks, 3);  // 1us task at 1/2us, 2us task at 2us
  tasks.clear();
  sim.run_until(10_us);
  EXPECT_EQ(ticks, 3);  // destruction stopped them
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, DisabledByDefault) {
  Simulator sim;
  EXPECT_EQ(sim.watchdog().max_events, 0u);
  EXPECT_EQ(sim.watchdog().max_events_per_timestamp, 0u);
  EXPECT_FALSE(sim.aborted());
  EXPECT_EQ(sim.abort_cause(), AbortCause::kNone);
  EXPECT_TRUE(sim.abort_reason().empty());
}

TEST(Watchdog, EventBudgetAbortsGracefully) {
  Simulator sim;
  sim.set_watchdog(WatchdogParams{.max_events = 3});
  int ran = 0;
  for (int i = 1; i <= 5; ++i) sim.at(TimePs::from_us(i), [&] { ++ran; });
  sim.run_until(10_us);
  EXPECT_EQ(ran, 3);
  EXPECT_TRUE(sim.aborted());
  EXPECT_EQ(sim.abort_cause(), AbortCause::kEventBudget);
  EXPECT_FALSE(sim.abort_reason().empty());
  EXPECT_EQ(sim.now(), 3_us);    // abort instant, not the requested end
  EXPECT_EQ(sim.pending(), 2u);  // queue left intact and readable
}

TEST(Watchdog, TimestampStallAborts) {
  Simulator sim;
  sim.set_watchdog(WatchdogParams{.max_events_per_timestamp = 100});
  std::function<void()> spin = [&] { sim.after(TimePs(0), spin); };
  sim.at(1_us, spin);
  sim.run_until(2_us);  // would otherwise never return
  EXPECT_TRUE(sim.aborted());
  EXPECT_EQ(sim.abort_cause(), AbortCause::kTimestampStall);
  EXPECT_NE(sim.abort_reason().find("no time progress"), std::string::npos);
  EXPECT_EQ(sim.now(), 1_us);
  EXPECT_LE(sim.executed(), 100u);
}

TEST(Watchdog, AdvancingTimeResetsTheStallStreak) {
  Simulator sim;
  sim.set_watchdog(WatchdogParams{.max_events_per_timestamp = 3});
  int ticks = 0;
  // Two events per timestamp, under the threshold of three, across many
  // timestamps: the streak must reset every time `now` advances.
  for (int i = 1; i <= 20; ++i) {
    sim.at(TimePs::from_us(i), [&] { ++ticks; });
    sim.at(TimePs::from_us(i), [&] { ++ticks; });
  }
  sim.run_until(30_us);
  EXPECT_FALSE(sim.aborted());
  EXPECT_EQ(ticks, 40);
}

// With both guards armed, each trips at exactly its own count.
TEST(Watchdog, BothGuardsTripAtExactlyTheirCount) {
  {
    Simulator sim;
    sim.set_watchdog(WatchdogParams{.max_events = 7, .max_events_per_timestamp = 3});
    int ran = 0;
    for (int i = 1; i <= 20; ++i) {  // two per timestamp: no stall
      sim.at(TimePs::from_us(i), [&] { ++ran; });
      sim.at(TimePs::from_us(i), [&] { ++ran; });
    }
    sim.run_until(30_us);
    EXPECT_EQ(ran, 7);
    EXPECT_EQ(sim.executed(), 7u);
    EXPECT_EQ(sim.abort_cause(), AbortCause::kEventBudget);
    EXPECT_EQ(sim.now(), 4_us);
    EXPECT_EQ(sim.pending(), 33u);
  }
  {
    Simulator sim;
    sim.set_watchdog(WatchdogParams{.max_events = 1000, .max_events_per_timestamp = 5});
    int ran = 0;
    sim.at(500_ns, [&] { ++ran; });
    std::function<void()> spin = [&] {
      ++ran;
      sim.after(TimePs(0), spin);
    };
    sim.at(1_us, spin);
    sim.run_until(2_us);
    // The event at 500 ns, then four at 1 us: the fifth would make the
    // streak five.
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(sim.executed(), 5u);
    EXPECT_EQ(sim.abort_cause(), AbortCause::kTimestampStall);
    EXPECT_NE(sim.abort_reason().find("5 consecutive events"), std::string::npos);
    EXPECT_EQ(sim.now(), 1_us);
  }
}

// A self-continuing event that runs into a guard stops exactly where
// its twin, which schedules every step with at(), stops: the tripping
// step stays pending, with the same count, clock and reason.
TEST(Watchdog, TailDispatchTripsAtExactlyTheCount) {
  struct End {
    int ran;
    std::uint64_t executed;
    std::size_t pending;
    TimePs now;
    AbortCause cause;
    std::string reason;
  };
  // Each step is `gap(n)` after the one before, n counting the steps.
  auto run = [](WatchdogParams wd, TimePs (*gap)(int), bool chain) {
    Simulator sim;
    sim.set_watchdog(wd);
    int ran = 0;
    std::function<void()> step = [&] {
      // Bounded, so a chain that outruns its guard fails, not spins.
      while (++ran < 5'000) {
        const TimePs t = sim.now() + gap(ran);
        if (!chain || !sim.continue_at(t)) {
          sim.at(t, step);
          return;
        }
      }
    };
    sim.at(500_ns, [&] { ++ran; });
    sim.at(1_us, step);
    sim.run_until(1_ms);
    return End{ran, sim.executed(), sim.pending(), sim.now(), sim.abort_cause(),
                sim.abort_reason()};
  };
  auto expect_twins = [&](WatchdogParams wd, TimePs (*gap)(int), std::uint64_t executed,
                          AbortCause cause) {
    const End chain = run(wd, gap, true);
    const End twin = run(wd, gap, false);
    EXPECT_EQ(chain.executed, executed);
    EXPECT_EQ(chain.cause, cause);
    EXPECT_EQ(chain.ran, twin.ran);
    EXPECT_EQ(chain.executed, twin.executed);
    EXPECT_EQ(chain.pending, twin.pending);
    EXPECT_EQ(chain.pending, 1u);  // the step that would have tripped
    EXPECT_EQ(chain.now, twin.now);
    EXPECT_EQ(chain.cause, twin.cause);
    EXPECT_EQ(chain.reason, twin.reason);
  };
  expect_twins({.max_events = 50}, [](int) { return 1_ns; }, 50, AbortCause::kEventBudget);
  expect_twins({.max_events_per_timestamp = 5}, [](int) { return TimePs(0); }, 5,
               AbortCause::kTimestampStall);
  // Three steps per timestamp, under the stall threshold of four, until
  // the budget runs out mid-timestamp; then a stall under a budget.
  expect_twins({.max_events = 1000, .max_events_per_timestamp = 4},
               [](int n) { return n % 3 == 0 ? 1_ns : TimePs(0); }, 1000,
               AbortCause::kEventBudget);
  expect_twins({.max_events = 1000, .max_events_per_timestamp = 4},
               [](int n) { return n < 30 ? 1_ns : TimePs(0); }, 32,
               AbortCause::kTimestampStall);
}

TEST(Watchdog, AbortedSimulatorRefusesFurtherWork) {
  Simulator sim;
  sim.set_watchdog(WatchdogParams{.max_events = 1});
  int ran = 0;
  sim.at(1_us, [&] { ++ran; });
  sim.at(2_us, [&] { ++ran; });
  sim.run_until(10_us);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.aborted());
  sim.run_until(20_us);  // no-op
  EXPECT_FALSE(sim.run_one());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 1_us);
  // State stays fully readable for post-mortem metrics.
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.pending(), 1u);
}

// Property: an M/D/1-style single server driven through the simulator
// conserves work — all arrivals are eventually served in FIFO order.
TEST(Simulator, FifoServerConservesWork) {
  Simulator sim;
  const TimePs service = 100_ns;
  int queued = 0;
  int served = 0;
  TimePs busy_until{};
  std::vector<TimePs> completions;
  auto arrive = [&] {
    ++queued;
    const TimePs start = std::max(busy_until, sim.now());
    busy_until = start + service;
    sim.at(busy_until, [&] {
      ++served;
      completions.push_back(sim.now());
    });
  };
  for (int i = 0; i < 100; ++i) sim.at(TimePs(i * 37'000), arrive);  // 37ns spacing < service
  sim.run_until(TimePs::from_ms(1));
  EXPECT_EQ(served, queued);
  for (std::size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GE(completions[i] - completions[i - 1], service);
  }
}

// --------------------------------------------------------------------------
// Satellite (a): negative delays clamp to "now" instead of scheduling
// into the past (which would re-execute at a time before now()).
TEST(Simulator, AfterNegativeDelayClampsToNow) {
  Simulator sim;
  sim.run_until(5_us);
  TimePs ran_at{-1};
  sim.after(TimePs(-3'000'000), [&] { ran_at = sim.now(); });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(5_us);  // due immediately: runs without time advancing
  EXPECT_EQ(ran_at, 5_us);
  EXPECT_EQ(sim.now(), 5_us);
}

// Clamped events still run after events already due at the same time
// (scheduling order breaks the tie).
TEST(Simulator, AfterNegativeDelayPreservesTieOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(TimePs(0), [&] { order.push_back(1); });
  sim.after(TimePs(-500), [&] { order.push_back(2); });
  sim.run_until(TimePs(0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --------------------------------------------------------------------------
// Satellite (c): steady-state scheduling is allocation-free. After a
// warm-up that sizes the node slab, the calendar wheel, and the
// far-future heap, a schedule -> run -> cancel workload with captures
// up to 64 bytes must never reach operator new.
TEST(Simulator, SteadyStateIsAllocationFree) {
  Simulator sim;
  struct Fat {  // 64-byte capture: the documented inline budget
    std::uint64_t lane[8];
  };
  Fat fat{};
  fat.lane[0] = 1;
  std::uint64_t sink = 0;
  std::int64_t t = 0;

  // Warm-up: grow the slab and free list past the steady-state working
  // set, touch the far-future heap once, and drain everything.
  std::vector<EventId> warm;
  warm.reserve(512);
  for (int i = 0; i < 512; ++i) {
    warm.push_back(sim.at(TimePs(t += 500), [fat, &sink] { sink += fat.lane[0]; }));
  }
  for (std::size_t i = 0; i < warm.size(); i += 2) sim.cancel(warm[i]);
  const EventId far = sim.at(TimePs(t) + TimePs::from_ms(1), [] {});
  sim.run_until(TimePs(t));
  sim.cancel(far);

  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < 20'000; ++i) {
    const EventId doomed =
        sim.at(TimePs(t += 200), [fat, &sink] { sink += fat.lane[0]; });
    sim.at(TimePs(t += 200), [fat, &sink] { sink += fat.lane[0]; });
    sim.cancel(doomed);
    sim.run_until(TimePs(t));
  }
  const std::uint64_t after = heap_allocations();
  EXPECT_EQ(after - before, 0u) << "engine hot path reached operator new";
  EXPECT_EQ(sink, 20'000u + 256u);
}

// --------------------------------------------------------------------------
// Satellite (c): InlineAction semantics.
TEST(InlineAction, MoveTransfersClosure) {
  int hits = 0;
  InlineAction a = [&hits] { ++hits; };
  InlineAction b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  // Move assignment over a live target destroys the target's closure.
  auto guard = std::make_shared<int>(7);
  InlineAction c = [guard] { };
  EXPECT_EQ(guard.use_count(), 2);
  c = std::move(b);
  EXPECT_EQ(guard.use_count(), 1);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, DestructionReleasesCapture) {
  auto guard = std::make_shared<int>(42);
  {
    InlineAction a = [guard] { };
    EXPECT_TRUE(a.is_inline());
    EXPECT_EQ(guard.use_count(), 2);
    a = nullptr;  // reset releases the capture immediately
    EXPECT_EQ(guard.use_count(), 1);
    a = [guard] { };
    EXPECT_EQ(guard.use_count(), 2);
  }  // scope exit destroys the rebound closure
  EXPECT_EQ(guard.use_count(), 1);
}

TEST(InlineAction, OversizedCaptureFallsBackToHeap) {
  struct Huge {
    unsigned char blob[200];
    std::shared_ptr<int> guard;
  };
  auto guard = std::make_shared<int>(9);
  Huge huge{{}, guard};
  huge.blob[199] = 5;
  int seen = -1;
  {
    InlineAction a = [huge, &seen] { seen = huge.blob[199]; };
    EXPECT_FALSE(a.is_inline());
    EXPECT_EQ(guard.use_count(), 3);  // local + huge + boxed closure
    InlineAction b = std::move(a);    // boxed move: pointer handoff
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(guard.use_count(), 3);
    b();
    EXPECT_EQ(seen, 5);
  }
  EXPECT_EQ(guard.use_count(), 2);  // boxed closure destroyed
}

TEST(InlineAction, CallbackReturnsValuesThroughConstRef) {
  const InlineCallback<int(int)> f = [](int x) { return x + 1; };
  EXPECT_EQ(f(41), 42);
  // Shallow const: mutable closure state advances across calls.
  const InlineCallback<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
}

// --------------------------------------------------------------------------
// Goldens: a randomized mixed schedule/cancel workload must execute in
// exactly the order the seed engine defined -- ascending time, ties
// broken by scheduling order -- regardless of which internal structure
// (calendar wheel vs. far-future heap) each event lands in.
TEST(Simulator, GoldensMatchReferenceOrdering) {
  Simulator sim;
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;  // global scheduling order
    int label;
    bool cancelled = false;
  };
  std::vector<Ref> ref;
  std::vector<EventId> ids;
  std::vector<int> executed;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  int label = 0;
  std::uint64_t seq = 0;
  std::int64_t prev_dt = 0;
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 64; ++i) {
      std::int64_t dt;
      switch (rnd() % 8) {
        case 0: dt = prev_dt; break;               // exact tie with previous
        case 1: dt = static_cast<std::int64_t>(rnd() % 4'000); break;  // near, dense buckets
        case 2:  // beyond the 33.5us calendar window: far-future heap
          dt = 40'000'000 + static_cast<std::int64_t>(rnd() % 1'000'000'000);
          break;
        default:  // within the calendar window
          dt = static_cast<std::int64_t>(rnd() % 30'000'000);
          break;
      }
      prev_dt = dt;
      const TimePs when = sim.now() + TimePs(dt);
      const int l = label++;
      ids.push_back(sim.at(when, [&executed, l] { executed.push_back(l); }));
      ref.push_back({when.ps(), ++seq, l});
    }
    // Cancel a random subset; mirror only the cancels the engine accepts
    // (an already-executed event reports false and stays in the record).
    for (int i = 0; i < 12; ++i) {
      const std::size_t k = rnd() % ids.size();
      if (sim.cancel(ids[k])) ref[k].cancelled = true;
    }
    sim.run_until(sim.now() + TimePs(static_cast<std::int64_t>(rnd() % 50'000'000)));
  }
  sim.run_until(TimePs::from_sec(10));  // drain, including far-future events
  EXPECT_EQ(sim.pending(), 0u);

  std::vector<Ref> expect;
  for (const Ref& r : ref) {
    if (!r.cancelled) expect.push_back(r);
  }
  std::stable_sort(expect.begin(), expect.end(), [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  ASSERT_EQ(executed.size(), expect.size());
  EXPECT_EQ(sim.executed(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(executed[i], expect[i].label) << "divergence at position " << i;
  }
}

// Reserved slots: a random mix of at(), reserve_seq() built later with
// at_reserved() (some reservations never built), cancels, and
// run_until() at random ends must execute exactly the stable-sorted
// (time, seq) order of the built events, as if every reservation had
// been an at() call where it was made. passed() must report "would
// have run" at every executed event and after every run_until().
TEST(Simulator, ReservedEventsKeepTheirPlace) {
  Simulator sim;
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;
    bool built = false;
    bool cancelled = false;
    EventId id{};
  };
  std::vector<Ref> ref;  // every slot: at() events and reservations
  std::vector<std::size_t> executed;
  std::size_t passed_mismatches = 0;
  std::uint64_t lcg = 0xD1B54A32D192ED03ull;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };
  // passed() for every slot against "sorts at or before (t, seq)".
  auto check_passed = [&](std::int64_t t, std::uint64_t seq) {
    for (const Ref& r : ref) {
      const bool expect = r.time < t || (r.time == t && r.seq <= seq);
      if (sim.passed(TimePs(r.time), r.seq) != expect) ++passed_mismatches;
    }
  };
  std::function<void(std::size_t)> on_run;
  auto build = [&](std::size_t k) {
    ref[k].built = true;
    ref[k].id = sim.at_reserved(TimePs(ref[k].time), ref[k].seq, [&on_run, k] { on_run(k); });
  };
  // An executed event checks passed(), then sometimes adds a slot of
  // its own -- at now() or just after, scheduled, reserved and built at
  // once, or reserved for later.
  on_run = [&](std::size_t k) {
    executed.push_back(k);
    check_passed(ref[k].time, ref[k].seq);
    if (rnd() % 4 != 0) return;
    const std::int64_t when =
        sim.now().ps() + (rnd() % 2 == 0 ? 0 : static_cast<std::int64_t>(rnd() % 4'000));
    const std::size_t child = ref.size();
    switch (rnd() % 3) {
      case 0:
        ref.push_back({when, 0, true});
        ref[child].id = sim.at(TimePs(when), [&on_run, child] { on_run(child); });
        ref[child].seq = ref[child].id.seq;
        break;
      case 1:
        ref.push_back({when, sim.reserve_seq()});
        EXPECT_FALSE(sim.passed(TimePs(when), ref[child].seq));
        build(child);
        break;
      default:
        ref.push_back({when, sim.reserve_seq()});
        break;
    }
  };
  std::int64_t prev_dt = 0;
  auto pick_dt = [&] {
    std::int64_t dt;
    switch (rnd() % 8) {
      case 0: dt = prev_dt; break;  // exact tie with the previous slot
      case 1: dt = static_cast<std::int64_t>(rnd() % 4'000); break;
      case 2: dt = 40'000'000 + static_cast<std::int64_t>(rnd() % 1'000'000'000); break;
      default: dt = static_cast<std::int64_t>(rnd() % 30'000'000); break;
    }
    prev_dt = dt;
    return dt;
  };

  std::int64_t end = 0;
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 96; ++i) {
      const std::int64_t when = sim.now().ps() + pick_dt();
      const std::size_t k = ref.size();
      if (rnd() % 3 == 0) {
        ref.push_back({when, sim.reserve_seq()});  // built later, or never
      } else {
        ref.push_back({when, 0, true});
        ref[k].id = sim.at(TimePs(when), [&on_run, k] { on_run(k); });
        ref[k].seq = ref[k].id.seq;
      }
    }
    // Build some reservations the engine has not passed yet; the ones
    // left behind stay counter-only slots forever.
    for (std::size_t k = 0; k < ref.size(); ++k) {
      if (!ref[k].built && !sim.passed(TimePs(ref[k].time), ref[k].seq) && rnd() % 2 == 0) {
        build(k);
      }
    }
    for (int i = 0; i < 12; ++i) {
      const std::size_t k = rnd() % ref.size();
      if (ref[k].built && sim.cancel(ref[k].id)) ref[k].cancelled = true;
    }
    // A reservation at exactly `end`, made before run_until(end): it
    // would have run, so it is passed afterwards.
    end = sim.now().ps() + static_cast<std::int64_t>(rnd() % 50'000'000);
    const std::size_t before = ref.size();
    ref.push_back({end, sim.reserve_seq()});
    sim.run_until(TimePs(end));
    for (const Ref& r : ref) {
      if (sim.passed(TimePs(r.time), r.seq) != (r.time <= end)) ++passed_mismatches;
    }
    EXPECT_TRUE(sim.passed(TimePs(end), ref[before].seq));
    // One made after it would run in the next run_until: not passed.
    const std::size_t after = ref.size();
    ref.push_back({end, sim.reserve_seq()});
    EXPECT_FALSE(sim.passed(TimePs(end), ref[after].seq));
    if (round % 2 == 0) build(after);
  }
  sim.run_until(TimePs::from_sec(10));  // drain, including far-future events
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(passed_mismatches, 0u);

  std::vector<std::size_t> expect;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    if (ref[k].built && !ref[k].cancelled) expect.push_back(k);
  }
  std::stable_sort(expect.begin(), expect.end(), [&ref](std::size_t a, std::size_t b) {
    return ref[a].time != ref[b].time ? ref[a].time < ref[b].time : ref[a].seq < ref[b].seq;
  });
  ASSERT_EQ(executed.size(), expect.size());
  EXPECT_EQ(sim.executed(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(executed[i], expect[i]) << "divergence at position " << i;
  }
}

// ------------------------------------------------------- tail dispatch

// continue_at() takes the place of an at() event only where that event
// would run next, and a refusal changes nothing: no seq is issued and
// the clock stays put.
TEST(Simulator, ContinueAtRunsOnlyWhatWouldRunNext) {
  {  // Between runs and inside run_one() no run_until() end bounds a chain.
    Simulator sim;
    EXPECT_FALSE(sim.continue_at(1_us));
    bool got = true;
    sim.at(1_us, [&] { got = sim.continue_at(2_us); });
    EXPECT_TRUE(sim.run_one());
    EXPECT_FALSE(got);
    sim.run_until(5_us);
    EXPECT_FALSE(sim.continue_at(5_us));
    EXPECT_EQ(sim.now(), 5_us);
    EXPECT_EQ(sim.executed(), 1u);
  }
  {  // Up to the running run_until()'s end, inclusive.
    Simulator sim;
    std::vector<bool> got;
    std::vector<std::uint64_t> seqs;
    TimePs chained{};
    sim.at(1_us, [&] {
      seqs.push_back(sim.reserve_seq());
      got.push_back(sim.continue_at(10_us + TimePs(1)));
      seqs.push_back(sim.reserve_seq());  // a refusal issues no seq
      got.push_back(sim.continue_at(10_us));
      chained = sim.now();
      seqs.push_back(sim.reserve_seq());  // ...and a step issues one
    });
    sim.run_until(10_us);
    EXPECT_EQ(got, (std::vector<bool>{false, true}));
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 3, 5}));
    EXPECT_EQ(chained, 10_us);
    EXPECT_EQ(sim.executed(), 2u);
  }
  {  // A pending event at `t` has the smaller seq, so it runs first.
    Simulator sim;
    std::vector<bool> got;
    sim.at(2_us, [] {});
    sim.at(1_us, [&] {
      got.push_back(sim.continue_at(2_us));
      got.push_back(sim.continue_at(2_us - TimePs(1)));  // runs at 2 us - 1 ps
      got.push_back(sim.continue_at(1500_ns));           // the past: clamped to now()
      got.push_back(sim.continue_at(2_us));
    });
    sim.run_until(10_us);
    EXPECT_EQ(got, (std::vector<bool>{false, true, true, false}));
    EXPECT_EQ(sim.executed(), 4u);
  }
  {  // So has an event built with at_reserved() or at() during a chain.
    Simulator sim;
    std::vector<bool> got;
    const std::uint64_t slot = sim.reserve_seq();
    sim.at(1_us, [&] {
      got.push_back(sim.continue_at(2_us));
      sim.at_reserved(3_us, slot, [] {});
      got.push_back(sim.continue_at(3_us));
      got.push_back(sim.continue_at(3_us - TimePs(1)));
      sim.at(4_us, [] {});
      got.push_back(sim.continue_at(4_us));
    });
    sim.run_until(10_us);
    EXPECT_EQ(got, (std::vector<bool>{true, false, true, false}));
    EXPECT_EQ(sim.executed(), 5u);
  }
  {  // Cancelling the front: a far-future heap entry's dead top is purged
     // by the next look, and a wheel tombstone refuses until the run's
     // scan reclaims it.
    Simulator sim;
    std::vector<bool> got;
    const EventId heap_front = sim.at(40_us, [] {});  // past the horizon at 0
    sim.at(10_us, [&] {
      got.push_back(sim.continue_at(41_us));
      sim.cancel(heap_front);
      got.push_back(sim.continue_at(41_us));
      const EventId wheel_front = sim.at(42_us, [] {});
      sim.cancel(wheel_front);
      got.push_back(sim.continue_at(41_us + TimePs(1)));
    });
    sim.at(50_us, [&] { got.push_back(sim.continue_at(51_us)); });
    sim.run_until(100_us);
    EXPECT_EQ(got, (std::vector<bool>{false, true, false, true}));
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.queued_nodes(), 0u);
  }
  // Past the wheel's horizon an at() event enters the heap, where it
  // stops peek_min()'s purge of dead entries at itself: a dead entry
  // behind it stays queued while it runs.
  for (const bool chain : {false, true}) {
    Simulator sim;
    const EventId dead = sim.at(100_us, [] {});
    sim.at(200_us, [] {});
    bool got = false;
    std::size_t queued = 0;
    sim.at(1_us, [&] {
      sim.cancel(dead);
      auto far = [&] { queued = sim.queued_nodes(); };
      got = chain && sim.continue_at(50_us);
      if (got) {
        far();
      } else {
        sim.at(50_us, far);
      }
    });
    sim.run_until(1_ms);
    EXPECT_FALSE(got);
    EXPECT_EQ(queued, 3u);  // itself, the dead entry and the one at 200 us
  }
}

/// One side of TailDispatchKeepsEveryEventsPlace: a random workload
/// whose events end with continue_at() -- running the next event in
/// place on success, scheduling it with at() on a refusal -- with a
/// plain at(), or with nothing. The twin (`chain` false) makes every
/// continue_at() an at(), which fixes the order both must follow.
class TailWorkload {
 public:
  /// What the workload saw at one executed event, or after a run.
  struct Look {
    std::size_t label;
    std::int64_t now;
    std::uint64_t executed;
    std::size_t pending;
    std::size_t queued;
    std::uint64_t passed;  // hash of passed() over every slot so far
    bool operator==(const Look&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Look& l) {
      return os << "{label " << l.label << ", now " << l.now << ", executed " << l.executed
                << ", pending " << l.pending << ", queued " << l.queued << ", passed "
                << l.passed << "}";
    }
  };
  static constexpr std::size_t kNone = SIZE_MAX;

  explicit TailWorkload(bool chain) : chain_(chain) {}
  // Its events capture `this`.
  TailWorkload(const TailWorkload&) = delete;
  TailWorkload& operator=(const TailWorkload&) = delete;

  /// Schedules, reserves, builds and cancels at random between runs,
  /// then runs to a random end (sometimes before now(): a no-op).
  void round(std::uint64_t r) {
    Rnd rnd{r * 0x9E3779B97F4A7C15ull};
    for (int i = 0; i < 48; ++i) {
      const std::int64_t when = now() + pick_dt(rnd);
      if (rnd() % 3 == 0) {
        reserve(when);
      } else {
        add_event(when, kNone, /*cancelable=*/true);
      }
    }
    for (int i = 0; i < 8; ++i) {
      build_one(rnd);
      cancel_one(rnd);
    }
    const std::int64_t end =
        rnd() % 8 == 0 ? now() - 1 : now() + static_cast<std::int64_t>(rnd() % 50'000'000);
    run_until(end);
  }
  /// Runs everything left, far-future events included.
  void drain() { run_until(TimePs::from_sec(10).ps()); }

  std::vector<Look> looks;
  std::vector<std::uint64_t> seqs() const {
    std::vector<std::uint64_t> out;
    for (const Slot& s : slots_) out.push_back(s.seq);
    return out;
  }
  std::vector<bool> cancels;
  /// Labels run in place by continue_at().
  std::vector<std::size_t> chained;
  /// Tail labels that ran right after the event that scheduled them,
  /// in the same run.
  std::vector<std::size_t> ran_next;
  std::size_t continues = 0;  // continue_at() calls, or their at() stand-ins
  [[nodiscard]] const Simulator& sim() const { return sim_; }

 private:
  struct Rnd {
    std::uint64_t state;
    std::uint64_t operator()() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    }
  };
  struct Slot {
    std::int64_t time;
    std::uint64_t seq;
    std::size_t parent;  // the event whose tail scheduled it, or kNone
    EventId id{};
  };

  [[nodiscard]] std::int64_t now() const { return sim_.now().ps(); }

  static std::int64_t pick_dt(Rnd& rnd) {
    switch (rnd() % 8) {
      case 0: return 0;  // a tie at now()
      case 1:
      case 2: return static_cast<std::int64_t>(rnd() % 4'000);  // this bucket or the next
      case 3: return static_cast<std::int64_t>(rnd() % 200'000);
      case 4:  // past the 33.5 us wheel: the far-future heap
        return 40'000'000 + static_cast<std::int64_t>(rnd() % 1'000'000'000);
      default: return static_cast<std::int64_t>(rnd() % 30'000'000);
    }
  }

  void run_until(std::int64_t end) {
    ++run_;
    sim_.run_until(TimePs(end));
    looks.push_back(look(kNone));
  }

  std::size_t add_event(std::int64_t when, std::size_t parent, bool cancelable) {
    const std::size_t k = slots_.size();
    const EventId id = sim_.at(TimePs(when), [this, k] { fire(k); });
    slots_.push_back({when, id.seq, parent, id});
    issued_ = id.seq;
    if (cancelable) cancelable_.push_back(k);
    return k;
  }
  void reserve(std::int64_t when) {
    issued_ = sim_.reserve_seq();
    unbuilt_.push_back(slots_.size());
    slots_.push_back({when, issued_, kNone});
  }
  /// Builds a random reservation the engine has not passed; one it
  /// has passed stays a slot that never runs.
  void build_one(Rnd& rnd) {
    if (unbuilt_.empty()) return;
    const std::size_t i = rnd() % unbuilt_.size();
    const std::size_t k = unbuilt_[i];
    unbuilt_[i] = unbuilt_.back();
    unbuilt_.pop_back();
    Slot& s = slots_[k];
    if (sim_.passed(TimePs(s.time), s.seq)) return;
    s.id = sim_.at_reserved(TimePs(s.time), s.seq, [this, k] { fire(k); });
    cancelable_.push_back(k);
  }
  void cancel_one(Rnd& rnd) {
    if (cancelable_.empty()) return;
    cancels.push_back(sim_.cancel(slots_[cancelable_[rnd() % cancelable_.size()]].id));
  }

  /// An event's closure: its step, then every step it chains, in turn.
  void fire(std::size_t k) {
    for (std::size_t next = k; next != kNone;) next = step(next);
  }

  /// Runs event `k`; returns the label it chained, or kNone. Its
  /// choices depend on its label alone.
  std::size_t step(std::size_t k) {
    Rnd rnd{0xD1B54A32D192ED03ull ^ (k * 0x100000001B3ull)};
    if (slots_[k].parent != kNone && slots_[k].parent == last_ && last_run_ == run_) {
      ran_next.push_back(k);
    }
    last_ = k;
    last_run_ = run_;
    looks.push_back(look(k));
    switch (rnd() % 8) {
      case 0: add_event(now() + pick_dt(rnd), kNone, /*cancelable=*/true); break;
      case 1: reserve(now() + pick_dt(rnd)); break;
      case 2: build_one(rnd); break;
      case 3: cancel_one(rnd); break;
      default: break;
    }
    const std::int64_t t = now() + pick_dt(rnd);
    switch (rnd() % 4) {
      case 0: return kNone;
      case 1: add_event(t, k, /*cancelable=*/true); return kNone;
      default: break;
    }
    ++continues;
    if (chain_ && sim_.continue_at(TimePs(t))) {
      chained.push_back(slots_.size());
      slots_.push_back({t, ++issued_, k});  // the seq at() would have issued
      return slots_.size() - 1;
    }
    add_event(t, k, /*cancelable=*/false);
    return kNone;
  }

  Look look(std::size_t label) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Slot& s : slots_) {
      h = (h ^ (sim_.passed(TimePs(s.time), s.seq) ? 1u : 0u)) * 0x100000001b3ull;
    }
    return {label, now(), sim_.executed(), sim_.pending(), sim_.queued_nodes(), h};
  }

  const bool chain_;
  Simulator sim_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> unbuilt_;
  std::vector<std::size_t> cancelable_;
  std::uint64_t issued_ = 0;  // the last seq the engine issued
  std::size_t last_ = kNone;  // the last event run, and in which run
  std::uint64_t last_run_ = 0;
  std::uint64_t run_ = 0;
};

// Tail dispatch golden: continue_at() must leave every event in the place
// at() gives it. The chained workload and its twin must see the same
// label, now() and passed() at every event, and the same executed(),
// pending() and queued_nodes() there and after every run. Chaining
// must happen, and only where the twin ran the event next anyway.
TEST(Simulator, TailDispatchKeepsEveryEventsPlace) {
  TailWorkload chain(true);
  TailWorkload twin(false);
  for (std::uint64_t r = 1; r <= 16; ++r) {
    chain.round(r);
    twin.round(r);
  }
  chain.drain();
  twin.drain();
  for (std::size_t i = 0; i < std::min(chain.looks.size(), twin.looks.size()); ++i) {
    ASSERT_EQ(chain.looks[i], twin.looks[i]) << "divergence at look " << i;
  }
  ASSERT_EQ(chain.looks.size(), twin.looks.size());
  EXPECT_EQ(chain.seqs(), twin.seqs());
  EXPECT_EQ(chain.cancels, twin.cancels);
  EXPECT_EQ(chain.sim().pending(), 0u);
  EXPECT_EQ(chain.sim().queued_nodes(), 0u);
  EXPECT_EQ(chain.ran_next, twin.ran_next);
  EXPECT_GT(chain.looks.size(), 3'000u);
  EXPECT_GT(chain.chained.size(), chain.continues / 3);
  for (const std::size_t k : chain.chained) {
    EXPECT_TRUE(std::binary_search(twin.ran_next.begin(), twin.ran_next.end(), k)) << k;
  }
}

}  // namespace
}  // namespace hicc::sim
