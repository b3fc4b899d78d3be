// ParallelEngine: conservative windowed execution, canonical
// cross-partition merge order, mailbox bounds, mid-window aborts, and
// the cluster-level determinism contract -- every cluster run, fault
// scripts included, produces bitwise-identical metrics/trace output
// regardless of the worker-thread count (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/validate.h"
#include "counting_alloc.h"
#include "fault/script.h"
#include "same_metrics.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "trace/trace.h"

namespace hicc {
namespace {

using sim::ParallelEngine;
using sim::ParallelParams;
using sim::Simulator;

ParallelParams params(int partitions, int threads) {
  ParallelParams pp;
  pp.partitions = partitions;
  pp.threads = threads;
  pp.lookahead = TimePs::from_us(2);
  return pp;
}

// --------------------------------------------- serial degeneration

// A deterministic self-rescheduling chain: each event advances an LCG
// and reschedules itself with a hash-derived delay, so the final state
// is a strict function of the executed event sequence.
void schedule_chain(Simulator& s, std::uint64_t* state, int remaining) {
  const auto delay = TimePs::from_ns(static_cast<double>(*state % 997 + 1));
  s.after(delay, [&s, state, remaining] {
    *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
    if (remaining > 0) schedule_chain(s, state, remaining - 1);
  });
}

// partitions=1 is the degenerate engine: one window per run_until, no
// event splitting -- it must reproduce a raw Simulator bit for bit,
// including across intermediate run_until boundaries.
TEST(ParallelEngine, OnePartitionReproducesRawSimulatorBitwise) {
  std::uint64_t raw_state = 42;
  Simulator raw;
  schedule_chain(raw, &raw_state, 300);
  raw.run_until(TimePs::from_us(5));
  raw.run_until(TimePs::from_us(50));

  std::uint64_t par_state = 42;
  ParallelEngine eng(params(1, 1));
  schedule_chain(eng.sim(0), &par_state, 300);
  eng.run_until(TimePs::from_us(5));
  eng.run_until(TimePs::from_us(50));

  EXPECT_EQ(par_state, raw_state);
  EXPECT_EQ(eng.sim(0).executed(), raw.executed());
  EXPECT_EQ(eng.executed_total(), raw.executed());
  EXPECT_EQ(eng.sim(0).now(), raw.now());
  EXPECT_EQ(eng.now(), raw.now());
  EXPECT_FALSE(eng.aborted());
}

// ------------------------------------------------- window mechanics

TEST(ParallelEngine, WindowCountFollowsLookaheadMath) {
  ParallelEngine eng(params(2, 1));
  eng.run_until(TimePs::from_us(10));  // lookahead 2us -> 5 windows
  EXPECT_EQ(eng.windows(), 5u);
  EXPECT_EQ(eng.now(), TimePs::from_us(10));
  EXPECT_EQ(eng.sim(0).now(), TimePs::from_us(10));
  EXPECT_EQ(eng.sim(1).now(), TimePs::from_us(10));

  // A non-multiple end clips the last window instead of overshooting.
  eng.run_until(TimePs::from_us(13));
  EXPECT_EQ(eng.windows(), 7u);
  EXPECT_EQ(eng.now(), TimePs::from_us(13));
}

// partitions > 1 with no lookahead would never advance time: every
// window would end where it starts.
TEST(ParallelEngine, NonPositiveLookaheadIsRejected) {
  for (int threads : {1, 2}) {
    ParallelParams pp = params(2, threads);
    pp.lookahead = TimePs{};
    EXPECT_THROW(ParallelEngine eng(pp), std::invalid_argument) << threads;
    pp.lookahead = TimePs(-1);
    EXPECT_THROW(ParallelEngine eng(pp), std::invalid_argument) << threads;
  }
  // One partition runs each run_until as a single window.
  ParallelParams one = params(1, 1);
  one.lookahead = TimePs{};
  ParallelEngine eng(one);
  eng.run_until(TimePs::from_us(3));
  EXPECT_EQ(eng.windows(), 1u);
}

// A self-rescheduling event that records which thread runs it.
void schedule_thread_recorder(Simulator& s, std::set<std::thread::id>* ids) {
  s.after(TimePs::from_us(1), [&s, ids] {
    ids->insert(std::this_thread::get_id());
    schedule_thread_recorder(s, ids);
  });
}

// Static ownership: partition p runs on thread p mod T in every
// window, so its state never moves between cores.
TEST(ParallelEngine, PartitionsKeepTheirThread) {
  for (int threads : {2, 3}) {
    ParallelEngine eng(params(9, threads));
    std::vector<std::set<std::thread::id>> ids(9);
    for (int p = 0; p < 9; ++p) {
      schedule_thread_recorder(eng.sim(p), &ids[static_cast<std::size_t>(p)]);
    }
    eng.run_until(TimePs::from_us(120));
    ASSERT_EQ(eng.windows(), 60u) << threads;
    std::set<std::thread::id> all;
    for (int p = 0; p < 9; ++p) {
      const std::set<std::thread::id>& seen = ids[static_cast<std::size_t>(p)];
      EXPECT_EQ(seen.size(), 1u) << "partition " << p << ", threads " << threads;
      all.insert(seen.begin(), seen.end());
    }
    EXPECT_EQ(all.size(), static_cast<std::size_t>(threads));
  }
}

TEST(ParallelEngine, BarrierHookFiresOncePerWindow) {
  ParallelEngine eng(params(2, 2));
  int barriers = 0;
  eng.set_barrier_hook(sim::InlineAction([&barriers] { ++barriers; }));
  eng.run_until(TimePs::from_us(6));
  EXPECT_EQ(barriers, 3);
}

// --------------------------------------------- cross-partition merge

// Runs the tie-merge scenario and returns the order in which
// partition 0 observed the mailed events. Partition `hi` posts two
// events and partition `lo` < `hi` one, all at the SAME destination
// timestamp -- the zero-delta cross-partition tie. The canonical merge
// (time, src partition, per-channel seq) must order them lo first,
// then hi in posting order, on every thread count. The hi channel is
// connected before the lo one, so the order cannot come from
// declaration order. Partition 1 also mails the last partition, so
// both ends of the partition range carry traffic.
std::vector<std::string> run_tie_merge(int partitions, int lo, int hi, int threads) {
  ParallelEngine eng(params(partitions, threads));
  std::vector<std::string> order;
  int last_received = 0;
  const TimePs fire = TimePs::from_us(4);
  const int last = partitions - 1;
  const ParallelEngine::Channel from_hi = eng.connect(hi, 0);
  const ParallelEngine::Channel from_lo = eng.connect(lo, 0);
  const ParallelEngine::Channel to_last = eng.connect(1, last);
  eng.sim(hi).at(TimePs::from_us(1), [&eng, &order, from_hi, fire] {
    eng.post(from_hi, fire, [&order] { order.push_back("hi.first"); });
    eng.post(from_hi, fire, [&order] { order.push_back("hi.second"); });
  });
  eng.sim(lo).at(TimePs::from_us(1), [&eng, &order, from_lo, fire] {
    eng.post(from_lo, fire, [&order] { order.push_back("lo"); });
  });
  eng.sim(1).at(TimePs::from_us(1), [&eng, &last_received, to_last, fire] {
    eng.post(to_last, fire, [&last_received] { ++last_received; });
  });
  eng.run_until(TimePs::from_us(10));
  EXPECT_EQ(eng.messages_delivered(), 4u);
  EXPECT_EQ(last_received, 1);
  return order;
}

TEST(ParallelEngine, SameTimestampCrossPartitionTiesMergeCanonically) {
  const std::vector<std::string> expected{"lo", "hi.first", "hi.second"};
  for (int threads : {1, 2, 3}) {
    EXPECT_EQ(run_tie_merge(3, 1, 2, threads), expected) << threads;
    // Sources and a destination (69) past partition 64, with partition
    // 0's inbound channels declared out of src order.
    EXPECT_EQ(run_tie_merge(70, 65, 66, threads), expected) << threads;
  }
}

// A message may land exactly on the window boundary (the zero-delay
// limit of the conservative contract: delivery == window end). Local
// events already scheduled at that instant keep their earlier queue
// sequence, so "local before mailed" is part of the deterministic
// order.
TEST(ParallelEngine, BoundaryTimestampDeliveryOrdersAfterLocalEvents) {
  for (int threads : {1, 2, 3}) {
    // A third, idle partition lets threads=3 run three threads.
    ParallelEngine eng(params(3, threads));
    std::vector<std::string> order;
    const TimePs boundary = TimePs::from_us(2);  // == first window end
    const ParallelEngine::Channel to_0 = eng.connect(1, 0);
    eng.sim(0).at(boundary, [&order] { order.push_back("local"); });
    eng.sim(1).at(TimePs::from_us(1), [&eng, &order, to_0, boundary] {
      eng.post(to_0, boundary, [&order] { order.push_back("mailed"); });
    });
    eng.run_until(TimePs::from_us(4));
    EXPECT_EQ(order, (std::vector<std::string>{"local", "mailed"})) << threads;
  }
}

// ------------------------------------------------------ cancellation

// Mailbox messages are fire-and-forget: the source cannot revoke one.
// Cancellation is destination-local -- a mailed closure may cancel an
// event that lives in the destination simulator, and revocable effects
// gate on destination state. Both patterns must be thread-count
// invariant.
TEST(ParallelEngine, MailedClosureCancelsDestinationLocalEvent) {
  for (int threads : {1, 2}) {
    ParallelEngine eng(params(2, threads));
    bool bomb_fired = false;
    // Destination-local event, cancellable by its EventId.
    const sim::EventId bomb =
        eng.sim(0).at(TimePs::from_us(9), [&bomb_fired] { bomb_fired = true; });
    // Partition 1 mails a disarm; it executes inside partition 0, where
    // touching partition-0 state (including cancel) is legal.
    const ParallelEngine::Channel to_0 = eng.connect(1, 0);
    eng.sim(1).at(TimePs::from_us(1), [&eng, to_0, bomb] {
      eng.post(to_0, TimePs::from_us(4), [&eng, bomb] { eng.sim(0).cancel(bomb); });
    });
    eng.run_until(TimePs::from_us(20));
    EXPECT_FALSE(bomb_fired) << threads;
  }
}

TEST(ParallelEngine, RevocableEffectGatesOnDestinationState) {
  for (int threads : {1, 2}) {
    ParallelEngine eng(params(2, threads));
    bool cancelled = false;
    bool fired = false;
    const ParallelEngine::Channel to_0 = eng.connect(1, 0);
    eng.sim(1).at(TimePs::from_us(1), [&eng, to_0, &cancelled, &fired] {
      // Two messages on the same channel: the "cancel" merges ahead of
      // the "fire" (earlier time wins), so the effect is suppressed
      // even though the fire was already in the mailbox when the
      // cancel was posted.
      eng.post(to_0, TimePs::from_us(6), [&cancelled, &fired] {
        if (!cancelled) fired = true;
      });
      eng.post(to_0, TimePs::from_us(4), [&cancelled] { cancelled = true; });
    });
    eng.run_until(TimePs::from_us(10));
    EXPECT_TRUE(cancelled) << threads;
    EXPECT_FALSE(fired) << threads;
  }
}

// ------------------------------------------------------------ aborts

// A dense self-rescheduling chain (fixed 10ns period) that would run
// forever; the watchdog must cut it off inside the first window.
void schedule_dense_chain(Simulator& s, int* count) {
  s.after(TimePs::from_ns(10), [&s, count] {
    ++*count;
    schedule_dense_chain(s, count);
  });
}

TEST(ParallelEngine, WatchdogAbortMidWindowStopsAtTheBarrier) {
  for (int threads : {1, 2, 3}) {
    // A third, idle partition lets threads=3 run three threads.
    ParallelEngine eng(params(3, threads));
    sim::WatchdogParams wd;
    wd.max_events = 5;
    eng.sim(1).set_watchdog(wd);
    int c0 = 0;
    int c1 = 0;
    schedule_dense_chain(eng.sim(0), &c0);
    schedule_dense_chain(eng.sim(1), &c1);
    eng.run_until(TimePs::from_us(10));

    EXPECT_TRUE(eng.aborted()) << threads;
    EXPECT_EQ(eng.first_aborted_partition(), 1) << threads;
    EXPECT_EQ(eng.sim(1).abort_cause(), sim::AbortCause::kEventBudget) << threads;
    EXPECT_EQ(eng.sim(1).executed(), 5u) << threads;
    // The run stops at the first barrier after the trip: the healthy
    // partition finishes that window and goes no further.
    EXPECT_EQ(eng.now(), TimePs::from_us(2)) << threads;
    EXPECT_EQ(eng.sim(0).now(), TimePs::from_us(2)) << threads;
    EXPECT_EQ(eng.windows(), 1u) << threads;
  }
}

TEST(ParallelEngine, MailboxOverflowAbortsTheSourcePartition) {
  for (int threads : {1, 2, 3}) {
    // A third, idle partition lets threads=3 run three threads.
    ParallelParams pp = params(3, threads);
    pp.mailbox_capacity = 4;
    ParallelEngine eng(pp);
    int delivered = 0;
    const ParallelEngine::Channel to_0 = eng.connect(1, 0);
    eng.sim(1).at(TimePs::from_us(1), [&eng, to_0, &delivered] {
      for (int i = 0; i < 10; ++i) {
        eng.post(to_0, TimePs::from_us(4), [&delivered] { ++delivered; });
      }
    });
    eng.run_until(TimePs::from_us(10));

    EXPECT_TRUE(eng.aborted()) << threads;
    EXPECT_EQ(eng.first_aborted_partition(), 1) << threads;
    EXPECT_EQ(eng.sim(1).abort_cause(), sim::AbortCause::kMailboxOverflow) << threads;
    EXPECT_FALSE(eng.sim(1).abort_reason().empty()) << threads;
    // The messages accepted before the bound hit are drained into the
    // destination's queue (the accepted set is deterministic), but the
    // run stops at the abort barrier before their 4us delivery time.
    eng.run_until(TimePs::from_us(20));  // refuses to advance once aborted
    EXPECT_EQ(eng.messages_delivered(), 4u) << threads;
    EXPECT_EQ(eng.sim(0).pending(), 4u) << threads;
    EXPECT_EQ(delivered, 0) << threads;
    EXPECT_EQ(eng.max_mailbox_depth(), 4u) << threads;
  }
}

TEST(ParallelEngine, CoordinatorPostsBeforeRunAreDelivered) {
  ParallelEngine eng(params(2, 2));
  int ran = 0;
  eng.post(eng.connect(0, 1), TimePs::from_us(1), [&ran] { ++ran; });
  eng.run_until(TimePs::from_us(4));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(eng.messages_delivered(), 1u);
}

// ---------------------------------------------------------- channels

// A pair has one channel, so one per-channel seq and one capacity:
// connecting it again hands back the same channel, and messages posted
// through either handle merge in posting order.
TEST(ParallelEngine, ConnectingAPairTwiceReturnsTheSameChannel) {
  ParallelEngine eng(params(3, 1));
  const ParallelEngine::Channel first = eng.connect(1, 0);
  EXPECT_NE(eng.connect(0, 1), first);
  EXPECT_NE(eng.connect(2, 0), first);
  const ParallelEngine::Channel again = eng.connect(1, 0);
  EXPECT_EQ(again, first);
  std::vector<std::string> order;
  eng.post(again, TimePs::from_us(3), [&order] { order.push_back("a"); });
  eng.post(first, TimePs::from_us(3), [&order] { order.push_back("b"); });
  eng.post(again, TimePs::from_us(3), [&order] { order.push_back("c"); });
  eng.run_until(TimePs::from_us(4));
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(eng.max_mailbox_depth(), 3u);

  EXPECT_THROW(eng.connect(3, 0), std::invalid_argument);
  EXPECT_THROW(eng.connect(0, -1), std::invalid_argument);
}

// Engine memory follows the declared channels, not the partition
// pairs: the 16x16x256 Clos shape (the fabric plus 256 hosts) with its
// 512 host<->fabric channels stays within a few allocations per
// partition. A dense matrix of per-pair mailboxes, each reserving its
// messages, would make 66,049 here.
TEST(ParallelEngine, ConstructionAllocatesPerChannelNotPerPartitionPair) {
  constexpr int kPartitions = 257;
  const std::uint64_t before = heap_allocations();
  ParallelEngine eng(params(kPartitions, 1));
  for (int host = 1; host < kPartitions; ++host) {
    eng.connect(host, 0);
    eng.connect(0, host);
  }
  const std::uint64_t allocations = heap_allocations() - before;
  EXPECT_LT(allocations, 8u * kPartitions) << allocations;
}

// -------------------------------------------------- cluster parity

ClusterConfig parallel_cluster(int parallelism) {
  ClusterConfig cfg;
  cfg.host.rx_threads = 2;
  cfg.host.num_senders = 4;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(500);
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 4;
  cfg.receivers = 2;
  cfg.parallelism = parallelism;
  return cfg;
}

// Runs one traced parallel cluster and returns everything downstream
// output is built from: the metrics, the full sample stream (what the
// CSV/Chrome exporters serialize), and the harvested probe map (what
// sweep JSON's extra.trace.* carries).
struct TracedRun {
  ClusterMetrics metrics;
  std::vector<trace::RecordingSink::Sample> samples;
  std::map<std::string, double> extra;
  /// Drops on leaf 0's uplink to spine 1 and on host 5's uplink, two
  /// links kFaultScript targets off receiver 0's partition.
  std::int64_t leaf_uplink_drops = 0;
  std::int64_t host_uplink_drops = 0;
};

// One entry per partition that owns a fault: the leaf-spine link_down
// and the default-target (receiver 0's downlink) net.rate and net.loss
// run on the fabric partition 0, host 5's net.loss on sender partition
// 6, and the storm and the antagonist on receiver 0's partition. The
// remote net.loss and the storm are kept together on purpose: each
// draws from its own Rng, so the threads never share one.
constexpr const char* kFaultScript =
    "net.link_down@300us+100us,leaf=0,spine=1;"
    "net.loss@250us+100us/200us,host=5,prob=0.05;"
    "net.rate@320us+150us,gbps=25;"
    "iommu.storm@260us+200us,per_us=0.5;"
    "mem.antagonist@240us+300us,cores=15;"
    "net.loss@400us+100us,prob=0.02";

TracedRun run_traced_cluster(int parallelism, const std::string& faults = "") {
  ClusterConfig cfg = parallel_cluster(parallelism);
  cfg.host.trace.enabled = true;
  cfg.faults = fault::parse_script(faults).script;
  EXPECT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
  TracedRun out;
  trace::RecordingSink sink;
  ClusterExperiment exp(cfg);
  exp.tracer()->set_sink(&sink);
  out.metrics = exp.run();
  out.leaf_uplink_drops = exp.fabric().leaf_uplink(0, 1).drops();
  out.host_uplink_drops = exp.fabric().host_uplink(5).drops();
  sweep::SweepResult r;
  sweep::harvest_trace_probes(exp.tracer(), r);
  exp.tracer()->finish();
  out.samples = sink.samples();
  out.extra = std::move(r.extra);
  return out;
}

void expect_same_traced_run(const TracedRun& one, const TracedRun& other) {
  ASSERT_EQ(one.metrics.per_receiver.size(), 2u);
  ASSERT_EQ(other.metrics.per_receiver.size(), 2u);
  for (std::size_t r = 0; r < one.metrics.per_receiver.size(); ++r) {
    expect_same_metrics(one.metrics.per_receiver[r], other.metrics.per_receiver[r]);
  }
  EXPECT_EQ(one.metrics.events_executed, other.metrics.events_executed);
  EXPECT_EQ(one.metrics.total_fabric_drops, other.metrics.total_fabric_drops);
  EXPECT_EQ(one.metrics.partitions, other.metrics.partitions);
  EXPECT_EQ(one.metrics.parallel_windows, other.metrics.parallel_windows);
  EXPECT_EQ(one.metrics.parallel_messages, other.metrics.parallel_messages);
  EXPECT_EQ(one.leaf_uplink_drops, other.leaf_uplink_drops);
  EXPECT_EQ(one.host_uplink_drops, other.host_uplink_drops);

  // Trace output, sample for sample (name, timestamp, value).
  ASSERT_EQ(one.samples.size(), other.samples.size());
  for (std::size_t i = 0; i < one.samples.size(); ++i) {
    EXPECT_EQ(one.samples[i].probe, other.samples[i].probe);
    EXPECT_EQ(one.samples[i].time, other.samples[i].time);
    EXPECT_EQ(one.samples[i].value, other.samples[i].value) << one.samples[i].probe;
  }

  // Sweep-JSON probe harvest, key for key.
  EXPECT_EQ(one.extra, other.extra);
}

// THE determinism contract: the worker-thread count is a pure
// wall-clock knob. parallelism=1, 3 and 4 must agree bit for bit on
// metrics, every trace sample, and the sweep-harvested probe map --
// events_executed included. 3 threads do not divide the 9 partitions
// evenly.
TEST(ClusterParallelParity, ThreadCountIsBitwiseInvariant) {
  const TracedRun one = run_traced_cluster(1);
  {
    SCOPED_TRACE("parallelism 4");
    expect_same_traced_run(one, run_traced_cluster(4));
  }
  {
    SCOPED_TRACE("parallelism 3");
    expect_same_traced_run(one, run_traced_cluster(3));
  }
}

// The same contract with a fault script that hits every owner: faults
// run on the partitions that own their targets, and the thread count
// still changes nothing. 8 windows: host 5's loss fires three times.
TEST(ClusterParallelParity, FaultScriptIsThreadCountInvariant) {
  const TracedRun one = run_traced_cluster(1, kFaultScript);
  EXPECT_EQ(one.metrics.run_status, RunStatus::kOk);
  ASSERT_EQ(one.metrics.per_receiver.size(), 2u);
  EXPECT_EQ(one.metrics.per_receiver[0].fault_windows, 8);
  EXPECT_GT(one.leaf_uplink_drops, 0);
  EXPECT_GT(one.host_uplink_drops, 0);
  for (const int threads : {3, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(threads));
    expect_same_traced_run(one, run_traced_cluster(threads, kFaultScript));
  }
}

TEST(ClusterParallelParity, SameSeedReproducesParallelRunsBitwise) {
  ClusterConfig cfg = parallel_cluster(2);
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
  ClusterExperiment a(cfg);
  ClusterExperiment b(cfg);
  const ClusterMetrics ma = a.run();
  const ClusterMetrics mb = b.run();
  ASSERT_EQ(ma.per_receiver.size(), mb.per_receiver.size());
  for (std::size_t r = 0; r < ma.per_receiver.size(); ++r) {
    expect_same_metrics(ma.per_receiver[r], mb.per_receiver[r]);
  }
  EXPECT_EQ(ma.events_executed, mb.events_executed);
  EXPECT_GT(ma.partitions, 1);
  EXPECT_GT(ma.parallel_windows, 0u);
  EXPECT_GT(ma.parallel_messages, 0u);
}

// ---------------------------------------------- probes & validation

TEST(ClusterParallelTrace, TransportHistogramsArePerSenderMachine) {
  ClusterConfig cfg = parallel_cluster(1);
  cfg.receivers = 1;
  cfg.host.trace.enabled = true;
  ClusterExperiment exp(cfg);
  ASSERT_NE(exp.tracer(), nullptr);
  // Sender machines are hosts 1..7; their controllers observe from
  // their own partitions, so the shared transport histograms become
  // host<g>.-prefixed series (single-writer per partition), with no
  // shared unprefixed family left.
  EXPECT_TRUE(exp.tracer()->find(trace::host_probe(1, "transport.rtt_us")).has_value());
  EXPECT_TRUE(exp.tracer()->find(trace::host_probe(7, "transport.rtt_us")).has_value());
  EXPECT_FALSE(exp.tracer()->find("transport.rtt_us").has_value());
}

TEST(ClusterParallelValidation, RejectsUnsupportedParallelConfigs) {
  const auto fields_of = [](const ClusterConfig& cfg) {
    std::set<std::string> fields;
    for (const auto& v : validate(cfg)) fields.insert(v.field);
    return fields;
  };
  // Every cluster runs on the engine, which needs at least one thread.
  for (const int threads : {0, -1}) {
    EXPECT_TRUE(fields_of(parallel_cluster(threads)).count("parallelism")) << threads;
  }

  // The edge propagation is the lookahead window.
  ClusterConfig cfg = parallel_cluster(2);
  cfg.topology.edge_propagation = TimePs(0);
  EXPECT_TRUE(fields_of(cfg).count("topology.edge_propagation"));

  // Fault scripts run on the partitions.
  cfg = parallel_cluster(2);
  cfg.faults = fault::parse_script(kFaultScript).script;
  EXPECT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
}

}  // namespace
}  // namespace hicc
