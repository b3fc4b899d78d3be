// Conservative time-parallel execution on top of sim::Simulator.
//
// A ParallelEngine owns P partition Simulators and runs them in
// lockstep lookahead windows: within a window [t, t+L) every partition
// executes its own events independently (no partition can affect
// another inside the window), and at the window barrier the engine
// drains bounded per-(src,dst) mailboxes of cross-partition events
// into the destination simulators. L -- the lookahead -- is the
// minimum latency of any cross-partition interaction; for a cluster
// run it is the edge-link propagation delay, so a message posted
// during a window always lands at or after the next window's start
// and conservative causality holds without rollback.
//
// Determinism contract (docs/PARALLELISM.md): the worker-thread count
// never influences the logical event order. Partitions are disjoint
// and statically owned (partition p always runs on thread p mod T, the
// coordinator being thread 0), mailbox rows are single-writer (only the
// posting partition's thread appends during a window; only the thread
// that owns the destination drains, once every thread has finished the
// window), and drained messages are merged in canonical
// `(time, src partition, seq)` order before being scheduled -- a pure
// function of message content. Runs with 1 and N threads are therefore
// bitwise identical, including per-partition executed-event counts. A
// single-partition engine degenerates to plain `Simulator::run_until`
// (one window, no message splitting) and reproduces a serial run
// bitwise (tests/parallel_test.cpp pins both properties).
//
// Thread-safety model (TSan-gated in CI): each window is three
// acquire/release handoffs on atomic counters. The coordinator
// publishes the window by bumping an epoch; every thread counts itself
// on a run counter once its partitions reach the window end and waits
// for all the others, then drains the rows bound for its own
// partitions; the workers count themselves on a drain counter, which
// the coordinator waits on before check_aborts() and the barrier hook
// read the fully drained state. Partition state and mailbox rows
// therefore always change hands with a happens-before edge. A waiter
// yields for a bounded number of rounds, then parks in
// std::atomic::wait; a waker calls notify_all only when a thread is
// parked. Partition code itself runs single-threaded and needs no
// synchronization.
// hicc-lint: hotpath -- post() sits on the cross-partition packet path.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/units.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace hicc::sim {

/// The engine's public knobs. Documented knob-for-knob in
/// docs/PARALLELISM.md (hicc_analyze's `docs-par-knob` rule keeps the
/// two in lockstep).
struct ParallelParams {
  /// Partition count; each partition is one Simulator. 1 gives the
  /// degenerate serial engine (one window, no event splitting).
  int partitions = 1;
  /// Window length = minimum cross-partition latency. Must be > 0
  /// when partitions > 1 (the constructor throws otherwise);
  /// ClusterExperiment passes the topology's edge-link propagation
  /// delay.
  TimePs lookahead{};
  /// Worker threads executing partition windows; capped at
  /// `partitions`. 1 runs every window on the calling thread; with T
  /// threads partition p always runs on thread p mod T. The thread
  /// count never changes results, only wall-clock time.
  int threads = 1;
  /// Per-(src,dst) mailbox bound: the most cross-partition events one
  /// partition may post toward another in a single window. Exceeding
  /// it aborts the run gracefully (AbortCause::kMailboxOverflow), like
  /// a watchdog trip -- a deterministic property of the workload, not
  /// of thread timing.
  std::size_t mailbox_capacity = 1u << 20;
};

/// P partition Simulators + a persistent worker pool + the barrier
/// protocol. Construction and every public method are
/// coordinator-thread only; post() alone may be called from partition
/// code while a window runs.
class ParallelEngine {
 public:
  /// Starts the `threads - 1` workers. Throws std::invalid_argument
  /// when partitions > 1 and lookahead <= 0: windows would never
  /// advance time.
  explicit ParallelEngine(ParallelParams params);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] int partitions() const { return partitions_; }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] TimePs lookahead() const { return params_.lookahead; }
  /// Barrier time: every partition's now() equals this between windows
  /// (aborted partitions may sit earlier, at their abort instant).
  [[nodiscard]] TimePs now() const { return now_; }

  /// Partition p's simulator. Components of partition p are built on
  /// (and schedule only through) this; cross-partition effects go
  /// through post().
  [[nodiscard]] Simulator& sim(int p) {
    return *sims_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Simulator& sim(int p) const {
    return *sims_[static_cast<std::size_t>(p)];
  }

  /// Posts `fn` to run at absolute time `t` in partition `dst`. The
  /// ONLY legal cross-partition channel (`par-engine-post` lint rule):
  /// callers must be executing inside partition `src` (or be the
  /// coordinator between windows), and `t` must honor the conservative
  /// contract t >= current window end -- guaranteed whenever the
  /// posting path includes >= `lookahead` of propagation delay.
  /// Messages are fire-and-forget: once posted they cannot be
  /// cancelled from `src`; destination-local state must gate any
  /// revocable effect (docs/PARALLELISM.md, "mailbox protocol").
  template <typename F>
  void post(int src, int dst, TimePs t, F&& fn) {
    assert(t >= window_end_ &&
           "conservative lookahead violated: cross-partition event lands "
           "inside the running window");
    Mailbox& box = row(src, dst);
    const std::size_t depth = box.msgs.size();
    // A row's first message of the window marks it for the drain, and a
    // full row records its overflow instead; both happen out of line.
    if ((depth == 0 || depth >= params_.mailbox_capacity) && !open_row(src, dst)) return;
    // hicc-lint: allow(hot-vector-growth) -- amortized: rows keep their
    // capacity across windows (drain clears, never shrinks) and are
    // hard-bounded by mailbox_capacity.
    box.msgs.push_back(Message{t, InlineAction(std::forward<F>(fn))});
  }

  /// Runs every partition until `end` in lookahead windows, draining
  /// mailboxes and invoking the barrier hook at each boundary. Returns
  /// early (with now() at the last completed barrier) once any
  /// partition aborts -- watchdog trip or mailbox overflow.
  void run_until(TimePs end);

  /// Invoked on the coordinator at every window boundary while all
  /// partitions are quiescent -- the only safe instant for
  /// cross-partition reads (trace sampling, metrics snapshots).
  void set_barrier_hook(InlineAction hook) { barrier_hook_ = std::move(hook); }

  /// True once any partition aborted (watchdog or mailbox overflow);
  /// run_until() refuses to start further windows.
  [[nodiscard]] bool aborted() const { return first_aborted_ >= 0; }
  /// Lowest-index aborted partition, -1 when none: the deterministic
  /// choice for surfacing one run_status out of many partitions.
  [[nodiscard]] int first_aborted_partition() const { return first_aborted_; }

  /// Sum of executed() over all partitions -- the run-global event
  /// count ClusterMetrics reports.
  [[nodiscard]] std::uint64_t executed_total() const;
  /// Window barriers completed so far.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Cross-partition messages delivered through the mailboxes so far.
  [[nodiscard]] std::uint64_t messages_delivered() const;
  /// High-water mark of any single (src,dst) mailbox row, for sizing
  /// mailbox_capacity.
  [[nodiscard]] std::size_t max_mailbox_depth() const;

 private:
  /// One cross-partition event. Its row index is its per-row `seq`, so
  /// `(time, src, index)` totally orders every drained message.
  struct Message {
    TimePs time{};
    InlineAction fn;
  };

  /// One (src,dst) row. Single-writer: the src partition's thread
  /// appends during a window, the dst partition's thread drains it.
  struct Mailbox {
    std::vector<Message> msgs;
    bool overflowed = false;
  };

  /// A drained message's sort key: `order` packs (src, row index).
  struct MergeKey {
    TimePs time{};
    std::uint64_t order = 0;
  };

  /// One thread's drain scratch and statistics, aligned to 64-byte
  /// cache lines so the threads' drains do not false-share.
  struct alignas(64) Lane {
    std::vector<MergeKey> keys;
    /// Sources whose row into a partition this thread owns overflowed.
    std::vector<int> overflowed;
    std::uint64_t delivered = 0;
    std::size_t max_depth = 0;
    /// Lowest aborted partition this thread owns, -1 when none.
    int first_aborted = -1;
  };

  Mailbox& row(int src, int dst) {
    const auto n = static_cast<std::size_t>(partitions_);
    return outbox_[static_cast<std::size_t>(src) * n + static_cast<std::size_t>(dst)];
  }
  /// post()'s slow path: marks the row dirty on its first message and
  /// returns false (recording the overflow) once the row is full.
  bool open_row(int src, int dst);
  /// Thread `t`'s part of window `epoch`: runs its partitions to
  /// window_end_, waits for every thread, then drains the rows bound
  /// for its partitions.
  void run_share(int t, std::uint32_t epoch);
  /// Merges and schedules the messages of every dirty row bound for
  /// `dst`, in (time, src, seq) order.
  void drain_into(int dst, Lane& lane);
  void worker_main(int t);
  /// Releases the workers from their wait for the next window and
  /// joins them.
  void stop_workers();
  /// Applies the recorded mailbox overflows and finds the lowest
  /// aborted partition; returns true when the run must stop.
  bool check_aborts();

  /// Counts one arrival; the one that reaches `target` wakes parked
  /// waiters.
  void arrive(std::atomic<std::uint32_t>& word, std::uint32_t target);
  /// Yields, then parks, until `word` equals `target`.
  void await(const std::atomic<std::uint32_t>& word, std::uint32_t target);
  void wake(std::atomic<std::uint32_t>& word);

  ParallelParams params_;
  int partitions_;
  int threads_;
  TimePs now_{};
  /// End of the window being executed; post()'s conservative floor.
  TimePs window_end_{};
  std::uint64_t windows_ = 0;
  int first_aborted_ = -1;

  std::vector<std::unique_ptr<Simulator>> sims_;
  /// Row-major [src * partitions_ + dst].
  std::vector<Mailbox> outbox_;
  /// Per destination, a bitmap of the sources whose row holds messages
  /// (or an overflow): [dst * words_ + src / 64], bit src % 64.
  std::size_t words_ = 1;
  std::vector<std::atomic<std::uint64_t>> dirty_;
  /// One per thread, indexed like the threads: 0 is the coordinator.
  std::vector<Lane> lanes_;
  InlineAction barrier_hook_;

  // Worker pool (empty when threads_ == 1). Window k publishes epoch_
  // = k; ran_ reaches k * threads_ once every thread has run window k,
  // drained_ reaches k * (threads_ - 1) once every worker has drained
  // it. The counters wrap; waits compare for equality. Each sits on
  // its own cache line.
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  alignas(64) std::atomic<std::uint32_t> ran_{0};
  alignas(64) std::atomic<std::uint32_t> drained_{0};
  alignas(64) std::atomic<int> parked_{0};
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hicc::sim
