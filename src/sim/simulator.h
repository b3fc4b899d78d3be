// Discrete-event simulation engine.
//
// A Simulator owns a time-ordered queue of events (closures). Components
// schedule events at absolute or relative times; ties are broken by
// scheduling order so execution is fully deterministic. Events can be
// cancelled by id (used for timers that are usually rearmed, e.g.
// retransmission timeouts and pacing timers).
//
// The hot path is allocation-free in steady state: closures live in
// slab-pooled nodes with inline capture storage (InlineAction), near
// -horizon events go into a calendar-bucket wheel and far-future timers
// into a compact binary heap, and cancellation is O(1) generation
// -stamped tombstoning. See DESIGN.md ("event engine") for the queue
// structure and the determinism argument.
//
// Reserved slots: reserve_seq() issues the seq an event scheduled now
// would get without building it, at_reserved() builds it later under
// that seq, and passed() says whether the engine has gone past a slot.
// A datapath step whose only effect is a counter stays a reservation
// and is settled by its readers, so only the events that do work are
// built -- with every built event in the exact (time, seq) place it
// would have had. See DESIGN.md §8 item 6.
//
// Tail dispatch: continue_at(t), called as an event's last act, runs
// the event an at(t) call would schedule in place -- under the same
// seq, at the same step -- when that event would run next anyway, so
// it skips the queue. See DESIGN.md §8 item 9.
//
// Robustness guards (src/fault/ relies on these): an optional watchdog
// aborts runs that exhaust an event budget or stop making time progress
// (a pathological self-rescheduling-at-now event). An abort is graceful
// -- the queue is left intact, now() stays at the abort instant, and
// callers can still harvest metrics and flush traces.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/inline_action.h"

namespace hicc::sim {

/// Opaque handle for a scheduled event; id 0 is "invalid/none". `seq`
/// is a never-reused generation stamp, `slot` locates the queue node it
/// was issued for -- a stale or forged handle fails the stamp check.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  [[nodiscard]] constexpr bool valid() const { return seq != 0; }
  constexpr bool operator==(const EventId&) const = default;
};

/// Run-invariant guards. Zero disables a guard; the defaults keep the
/// engine's historical unguarded behavior.
struct WatchdogParams {
  /// Aborts once this many events have executed (runaway-run budget).
  std::uint64_t max_events = 0;
  /// Aborts when this many events execute back-to-back at one simulated
  /// instant without time advancing (an event loop rescheduling itself
  /// at now() would otherwise spin forever).
  std::uint64_t max_events_per_timestamp = 0;
};

/// Why a watchdog (or the parallel engine, via abort_run) stopped the
/// run.
enum class AbortCause : std::uint8_t {
  kNone,
  kEventBudget,
  kTimestampStall,
  /// A ParallelEngine cross-partition mailbox exceeded its bound
  /// (sim/parallel.h); set through abort_run(), never by the Simulator
  /// itself.
  kMailboxOverflow,
};

/// The event loop. Single-threaded by design: one Simulator executes
/// events on one thread. Parallelism is layered on top -- across runs
/// (sweep/sweep.h) or across partitions of one run, each partition its
/// own Simulator (sim/parallel.h) -- never inside the loop itself.
class Simulator {
 public:
  using Action = InlineAction;

  Simulator();

  /// Current simulated time. Advances only inside run_* calls.
  [[nodiscard]] TimePs now() const { return now_; }

  /// Schedules `fn` at absolute time `t`. Times in the past are clamped
  /// to now() (the event still runs, after already-due events). The
  /// closure is constructed directly in the queue node's inline buffer.
  template <typename F>
  EventId at(TimePs t, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "event actions take no arguments and return void");
    if (t < now_) t = now_;
    const EventId id = insert(t, next_seq_++);
    node(id.slot).fn = std::forward<F>(fn);
    return id;
  }

  /// Schedules `fn` after a relative delay. Negative delays violate the
  /// contract and are clamped to zero (the event runs at now(), after
  /// already-due events), matching at()'s past-time clamp.
  template <typename F>
  EventId after(TimePs delay, F&& fn) {
    if (delay < TimePs{}) delay = TimePs{};
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Issues the seq that an event scheduled now would get, and schedules
  /// nothing: the caller keeps `(t, seq)` as the event's place in the
  /// order, settles it with passed(), or builds it with at_reserved().
  /// Reserve exactly where the event would have been scheduled, so seqs
  /// are issued in the same order either way.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Builds the event reserved as `(t, seq)`: `fn` runs in the place an
  /// at(t) call made at reservation time would have taken. `t` must not
  /// be earlier than now() was then, each reservation is built at most
  /// once, and only before the engine passes it.
  template <typename F>
  EventId at_reserved(TimePs t, std::uint64_t seq, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "event actions take no arguments and return void");
    assert(seq < next_seq_ && !passed(t, seq) && "reserved slot already passed");
    const EventId id = insert(t, seq);
    node(id.slot).fn = std::forward<F>(fn);
    return id;
  }

  /// True once the engine has gone past the slot `(t, seq)`: an event
  /// there would already have run. While an event runs, that is when
  /// `(t, seq)` sorts at or before the running event; between runs, at
  /// or before `(end, last seq issued)` of the last run_until(end).
  [[nodiscard]] bool passed(TimePs t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq <= passed_seq_);
  }

  /// Tail dispatch. Call it as an event's last act: when the event an
  /// at(t) call would schedule now would also be the next to run, this
  /// makes it the running event in place -- its seq issued, now() at
  /// `t`, counted in executed() -- and returns true, and the caller then
  /// does that event's work itself, before returning to the engine.
  /// Otherwise it changes nothing, returns false, and the caller
  /// schedules the work with at(t). It succeeds only inside
  /// run_until(end) with `t` <= end, with no pending event at or before
  /// `t`, with `t` inside the wheel's horizon and no cancellation
  /// tombstone in the wheel, and when the watchdog would let the event
  /// run. Defined inline below (hot path).
  bool continue_at(TimePs t);

  /// Cancels a pending event. Returns true if the event had not yet run
  /// (or been cancelled). Safe to call with an invalid id, and with the
  /// id of an event that already executed. O(1): the node is tombstoned
  /// in place (its closure destroyed immediately) and reclaimed when
  /// the queue scan reaches it.
  bool cancel(EventId id);

  /// Runs all events with time <= `end`, then sets now() == end. After
  /// a watchdog abort, returns immediately and now() stays put. An
  /// `end` before now() is a no-op: the clock never runs backwards.
  void run_until(TimePs end);

  /// Pops and runs the single earliest event. Returns false if idle or
  /// aborted. Its events cannot chain: continue_at() refuses inside it.
  /// Defined inline below: this is the engine's innermost loop, and the
  /// call overhead is measurable at ~19ns/event.
  bool run_one();

  /// Number of events scheduled but not yet run or cancelled. Exact:
  /// maintained as a live counter, so a cancellation can never make
  /// this underflow (cancelling an already-run event is a no-op).
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Queue occupancy including not-yet-reclaimed cancellation
  /// tombstones -- the engine-pressure figure the `sim.queue_depth`
  /// trace probe reports. Always >= pending().
  [[nodiscard]] std::size_t queued_nodes() const { return occupied_; }

  /// Total events executed since construction (for engine benchmarks).
  /// Reservations that are never built do not count.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Installs (or, with default params, clears) the run watchdog.
  void set_watchdog(WatchdogParams wd) { watchdog_ = wd; }
  [[nodiscard]] const WatchdogParams& watchdog() const { return watchdog_; }

  /// True once a watchdog guard has tripped; the engine refuses to
  /// execute further events but keeps all state readable.
  [[nodiscard]] bool aborted() const { return abort_cause_ != AbortCause::kNone; }
  [[nodiscard]] AbortCause abort_cause() const { return abort_cause_; }
  /// Human-readable abort explanation; empty while not aborted.
  [[nodiscard]] const std::string& abort_reason() const { return abort_reason_; }

  /// Aborts the run from outside the watchdogs -- the parallel engine
  /// uses this to stop a partition whose cross-partition mailbox
  /// overflowed. Same semantics as a watchdog trip: the engine refuses
  /// further events, state stays readable, first cause wins.
  void abort_run(AbortCause cause, std::string reason) {
    if (aborted() || cause == AbortCause::kNone) return;
    abort_cause_ = cause;
    abort_reason_ = std::move(reason);
  }

 private:
  // Calendar wheel geometry: kBuckets buckets of kBucketWidth
  // picoseconds cover a 33.5us horizon -- link serialization, PCIe and
  // memory latencies all land here; only RTO-class timers overflow to
  // the far-future heap.
  static constexpr std::uint64_t kBucketBits = 12;                 // 4096 buckets
  static constexpr std::uint64_t kBuckets = 1ull << kBucketBits;
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;
  static constexpr std::uint64_t kWidthBits = 13;                  // 8192 ps
  static constexpr std::uint64_t kBucketWidth = 1ull << kWidthBits;
  static constexpr std::int32_t kNil = -1;

  // Slab chunk geometry: nodes live in fixed 256-node chunks whose
  // addresses never move, so an executing closure can run in place
  // even while it schedules new events (which may grow the slab).
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// Slab-pooled event node. A node is referenced by exactly one
  /// container (a bucket chain via `next`, or one heap entry, then
  /// `in_heap`); `seq` holds the issuing EventId's generation while
  /// scheduled and 0 once reclaimed, `live` drops to false when
  /// cancelled (tombstone).
  struct Node {
    TimePs time{};
    std::uint64_t seq = 0;
    std::int32_t next = kNil;
    bool live = false;
    bool in_heap = false;
    Action fn;
  };

  /// Compact far-future heap entry; `(time, seq)` mirrors the node so
  /// ordering never touches the slab.
  struct HeapEntry {
    TimePs time;
    std::uint64_t seq;
    std::int32_t slot;
    // Ordered as a max-heap by default; invert for earliest-first.
    bool operator<(const HeapEntry& o) const {
      if (time != o.time) return o.time < time;
      return o.seq < seq;
    }
  };

  /// Where peek_min() found the earliest live event.
  struct Candidate {
    TimePs time{};
    std::uint64_t seq = 0;
    std::int32_t slot = kNil;
    std::int32_t prev = kNil;         // predecessor in the bucket chain
    std::uint64_t bucket = 0;         // absolute bucket (wheel hit only)
    bool from_heap = false;
    bool found = false;
  };

  /// Unlinks the peeked candidate from its container without
  /// reclaiming the node: the closure runs in place (chunk addresses
  /// are stable), and run_*() frees the node afterwards. Defined
  /// inline below (hot path).
  void detach(const Candidate& c);

  [[nodiscard]] std::uint64_t now_bucket() const {
    return static_cast<std::uint64_t>(now_.ps()) >> kWidthBits;
  }

  [[nodiscard]] Node& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  /// Allocates a node, stamps it live at `(t, seq)` and links it into
  /// the wheel or the far-future heap; the closure is assigned by the
  /// caller afterwards. Defined inline below (hot path).
  EventId insert(TimePs t, std::uint64_t seq);

  std::int32_t alloc_node_slow();

  void free_node(std::int32_t slot) {
    Node& n = node(static_cast<std::uint32_t>(slot));
    n.seq = 0;  // stale EventIds now fail the generation check
    n.live = false;
    n.fn = nullptr;
    n.next = free_head_;
    free_head_ = slot;
    --occupied_;
  }

  void bucket_push(std::uint64_t abs_bucket, std::int32_t slot) {
    const std::uint64_t idx = abs_bucket & kBucketMask;
    node(static_cast<std::uint32_t>(slot)).next = bucket_head_[idx];
    bucket_head_[idx] = slot;
    bucket_bits_[idx >> 6] |= 1ull << (idx & 63);
    bucket_summary_ |= 1ull << (idx >> 6);
  }

  void clear_bucket_bit(std::uint64_t idx) {
    bucket_bits_[idx >> 6] &= ~(1ull << (idx & 63));
    if (bucket_bits_[idx >> 6] == 0) bucket_summary_ &= ~(1ull << (idx >> 6));
  }

  /// Circular distance from bucket index `p` to the first non-empty
  /// bucket (0..kBuckets-1), or -1 when the wheel is empty.
  [[nodiscard]] std::int64_t wheel_scan_from(std::uint64_t p) const {
    if (bucket_summary_ == 0) return -1;
    const std::uint64_t w0 = p >> 6;
    const std::uint64_t b0 = p & 63;
    const std::uint64_t head = bucket_bits_[w0] & (~0ull << b0);
    if (head != 0)
      return std::countr_zero(head) - static_cast<std::int64_t>(b0);
    // The first non-empty word after w0, circularly: k in 1..64, where
    // k == 64 is w0 itself, whose set bits then all lie below b0.
    const std::uint64_t k =
        1 + static_cast<std::uint64_t>(std::countr_zero(
                std::rotr(bucket_summary_, static_cast<int>((w0 + 1) & 63))));
    return static_cast<std::int64_t>((k << 6) +
                                     std::countr_zero(bucket_bits_[(w0 + k) & 63])) -
           static_cast<std::int64_t>(b0);
  }
  /// Locates the earliest live event without removing it, reclaiming
  /// any tombstones passed over on the way. Defined inline below (hot
  /// path).
  Candidate peek_min();

  /// The guard that an event at `t` would trip if it ran next, or
  /// kNone. Reads only: continue_at() asks it before taking a step.
  [[nodiscard]] AbortCause guard_verdict(TimePs t) const {
    if (watchdog_.max_events != 0 && executed_ >= watchdog_.max_events) {
      return AbortCause::kEventBudget;
    }
    if (watchdog_.max_events_per_timestamp != 0 && executed_ > 0 && t == last_exec_time_ &&
        same_time_streak_ + 1 >= watchdog_.max_events_per_timestamp) {
      return AbortCause::kTimestampStall;
    }
    return AbortCause::kNone;
  }

  /// Checks the watchdog before executing the event at `t`. Returns
  /// false (and records the abort) when a guard trips. Inline: runs
  /// carry a per-timestamp guard by default, so every event takes
  /// this path; only a trip leaves it.
  bool guard_event(TimePs t) {
    if ((watchdog_.max_events | watchdog_.max_events_per_timestamp) == 0)
      return true;
    if (const AbortCause cause = guard_verdict(t); cause != AbortCause::kNone) {
      return trip(cause, t);
    }
    if (watchdog_.max_events_per_timestamp != 0) {
      same_time_streak_ = executed_ > 0 && t == last_exec_time_ ? same_time_streak_ + 1 : 1;
    }
    last_exec_time_ = t;
    return true;
  }
  /// Records a watchdog abort at `t`; returns false.
  bool trip(AbortCause cause, TimePs t);

  /// One event step, shared by run_one(), run_until() and
  /// continue_at(): checks the watchdog, then makes `(t, seq)` the
  /// running event -- now(), the passed() slot and the executed()
  /// count. Returns false, changing nothing but the abort record, when
  /// a guard trips.
  bool begin_event(TimePs t, std::uint64_t seq) {
    if (!guard_event(t)) return false;
    now_ = t;
    passed_seq_ = seq;
    ++executed_;
    return true;
  }

  /// next_time_ before peek_min() has been asked, and chain_end_
  /// outside run_until(): no time compares below it.
  static constexpr TimePs kUnset{INT64_MIN};

  TimePs now_{};
  std::uint64_t next_seq_ = 1;
  /// With now_, the slot passed() compares against: the running (or
  /// last run) event's seq, or the last seq issued when run_until()
  /// returned.
  std::uint64_t passed_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;      // scheduled, not yet run or cancelled
  std::size_t occupied_ = 0;  // slab nodes in use (live + tombstones)

  /// Tail dispatch state. chain_end_ is the running run_until()'s end
  /// (kUnset outside it). next_time_ is the earliest pending event's
  /// time (TimePs::max() when none), from one peek_min() per chain:
  /// insert() lowers it, and every pop and cancel() resets it to
  /// kUnset, which no insert lowers.
  TimePs chain_end_ = kUnset;
  TimePs next_time_ = kUnset;

  std::vector<std::unique_ptr<Node[]>> chunks_;  // slab pool, stable addresses
  std::uint32_t node_count_ = 0;                 // slots ever created
  std::int32_t free_head_ = kNil;

  // Calendar wheel: per-bucket intrusive chain heads plus a two-level
  // occupancy bitmap (one summary word over 64 chunk words) so the pop
  // scan jumps straight to the next non-empty bucket. Fixed in-object
  // arrays (~16KB): no pointer chase on the per-event path.
  std::array<std::int32_t, kBuckets> bucket_head_;
  std::array<std::uint64_t, kBuckets / 64> bucket_bits_{};
  std::uint64_t bucket_summary_ = 0;

  // Far-future events (beyond the wheel window at scheduling time).
  std::vector<HeapEntry> heap_;
  /// Cancelled entries still in heap_: while zero, the heap's top is
  /// live and peek_min() need not read its node.
  std::size_t heap_dead_ = 0;
  /// Cancelled nodes still in bucket chains. continue_at() refuses
  /// while any is left, so peek_min() reclaims them at the same calls
  /// with or without tail dispatch.
  std::size_t wheel_dead_ = 0;

  WatchdogParams watchdog_;
  AbortCause abort_cause_ = AbortCause::kNone;
  std::string abort_reason_;
  TimePs last_exec_time_{};
  std::uint64_t same_time_streak_ = 0;
};

// ---- Hot-path definitions (kept out of the class body for length, in
// ---- the header for inlining into at()/run loops).

inline EventId Simulator::insert(TimePs t, std::uint64_t seq) {
  std::int32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = node(static_cast<std::uint32_t>(slot)).next;
  } else {
    slot = alloc_node_slow();
  }
  ++occupied_;
  Node& n = node(static_cast<std::uint32_t>(slot));
  n.time = t;
  n.seq = seq;
  n.live = true;
  const std::uint64_t abs_bucket = static_cast<std::uint64_t>(t.ps()) >> kWidthBits;
  n.in_heap = abs_bucket >= now_bucket() + kBuckets;
  if (!n.in_heap) {
    bucket_push(abs_bucket, slot);
  } else {
    n.next = kNil;
    // hicc-lint: allow(hot-vector-growth) -- far-future heap: reaches its
    // high-water mark during warmup, then pops balance pushes.
    heap_.push_back(HeapEntry{t, seq, slot});
    std::push_heap(heap_.begin(), heap_.end());
  }
  ++live_;
  if (t < next_time_) next_time_ = t;
  return EventId{seq, static_cast<std::uint32_t>(slot)};
}

inline Simulator::Candidate Simulator::peek_min() {
  Candidate best;
  // Purge cancelled far-future timers sitting at the heap top. Only a
  // cancel() leaves a dead entry, so without one the top is live.
  while (heap_dead_ != 0) {
    assert(!heap_.empty() && "a dead entry is in the heap");
    const std::int32_t slot = heap_.front().slot;
    const Node& n = node(static_cast<std::uint32_t>(slot));
    assert(n.seq == heap_.front().seq && "heap entry must own its node");
    if (n.live) break;
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    free_node(slot);
    --heap_dead_;
  }
  if (!heap_.empty()) {
    best.time = heap_.front().time;
    best.seq = heap_.front().seq;
    best.slot = heap_.front().slot;
    best.from_heap = true;
    best.found = true;
  }

  // Wheel scan: buckets cover disjoint ascending time ranges, so the
  // first bucket holding a live event decides the wheel's candidate.
  // All wheel entries lie in [now_bucket(), now_bucket() + kBuckets)
  // -- at() only inserts within the window and time never runs
  // backwards -- so one circular pass visits them all in time order.
  const std::uint64_t start = now_bucket();
  const std::uint64_t start_idx = start & kBucketMask;
  std::uint64_t off = 0;
  while (off < kBuckets) {
    const std::int64_t d = wheel_scan_from((start_idx + off) & kBucketMask);
    if (d < 0) break;
    off += static_cast<std::uint64_t>(d);
    assert(off < kBuckets && "wheel entry outside the window");
    const std::uint64_t abs_bucket = start + off;
    const std::uint64_t idx = (start_idx + off) & kBucketMask;
    // A far-future heap winner earlier than this bucket's whole range
    // cannot be beaten by it or any later bucket.
    if (best.found &&
        best.time.ps() < static_cast<std::int64_t>(abs_bucket << kWidthBits)) {
      return best;
    }
    // Min-scan the (unsorted) chain, reclaiming tombstones in passing.
    Candidate in_bucket;
    std::int32_t prev = kNil;
    std::int32_t slot = bucket_head_[idx];
    while (slot != kNil) {
      Node& n = node(static_cast<std::uint32_t>(slot));
      const std::int32_t next = n.next;
      if (!n.live) {
        (prev == kNil ? bucket_head_[idx]
                      : node(static_cast<std::uint32_t>(prev)).next) = next;
        free_node(slot);
        --wheel_dead_;
        slot = next;
        continue;
      }
      if (in_bucket.slot == kNil || n.time < in_bucket.time ||
          (n.time == in_bucket.time && n.seq < in_bucket.seq)) {
        in_bucket.time = n.time;
        in_bucket.seq = n.seq;
        in_bucket.slot = slot;
        in_bucket.prev = prev;
        in_bucket.bucket = abs_bucket;
        in_bucket.found = true;
      }
      prev = slot;
      slot = next;
    }
    if (bucket_head_[idx] == kNil) clear_bucket_bit(idx);
    if (in_bucket.found) {
      if (!best.found || in_bucket.time < best.time ||
          (in_bucket.time == best.time && in_bucket.seq < best.seq)) {
        return in_bucket;
      }
      return best;
    }
    ++off;  // chain was all tombstones; keep scanning
  }
  return best;
}

inline void Simulator::detach(const Candidate& c) {
  Node& n = node(static_cast<std::uint32_t>(c.slot));
  assert(n.live && n.seq == c.seq && "candidate must still be scheduled");
  if (c.from_heap) {
    assert(!heap_.empty() && heap_.front().slot == c.slot);
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  } else {
    const std::uint64_t idx = c.bucket & kBucketMask;
    (c.prev == kNil ? bucket_head_[idx]
                    : node(static_cast<std::uint32_t>(c.prev)).next) = n.next;
    if (bucket_head_[idx] == kNil) clear_bucket_bit(idx);
  }
  n.live = false;  // cancel() on this id now correctly reports "already ran"
  --live_;
  next_time_ = kUnset;
}

inline bool Simulator::run_one() {
  if (aborted()) return false;
  const Candidate c = peek_min();
  if (!c.found) {
    assert(live_ == 0 && "an idle queue cannot hold live events");
    return false;
  }
  if (!begin_event(c.time, c.seq)) return false;  // abort: the event stays pending
  detach(c);
  // Chunk addresses are stable, so the closure runs in place -- no
  // 80-byte move-out per event. The slot is only reclaimed afterwards,
  // so anything the closure schedules cannot reuse it mid-invoke.
  node(static_cast<std::uint32_t>(c.slot)).fn();
  free_node(c.slot);
  return true;
}

inline bool Simulator::continue_at(TimePs t) {
  if (t < now_) t = now_;  // at()'s past-time clamp
  // Past the running run_until()'s end (or outside one), an at(t) event
  // would wait for a later run. Past the horizon it would enter the
  // heap, where peek_min() stops its dead-entry purge at it. And a
  // wheel tombstone could be reclaimed at another scan than with at(),
  // which queued_nodes() would show (DESIGN.md §8 item 9).
  if (chain_end_ < t || wheel_dead_ != 0 ||
      (static_cast<std::uint64_t>(t.ps()) >> kWidthBits) >= now_bucket() + kBuckets) {
    return false;
  }
  if (next_time_ == kUnset) {
    const Candidate c = peek_min();
    next_time_ = c.found ? c.time : TimePs::max();
  }
  // A pending event at `t` has a smaller seq, so it runs first; so does
  // the at() event when a guard would trip on it, and then it stays
  // pending as the run aborts.
  if (next_time_ <= t || guard_verdict(t) != AbortCause::kNone) return false;
  begin_event(t, next_seq_++);
  return true;
}

/// Self-rescheduling periodic task; the first tick fires one period
/// from start. stop() leaves the task restartable via start(); a
/// default-constructed or moved-from task is explicitly dead (all
/// operations are no-ops). State lives behind a stable heap allocation,
/// so tasks are movable and can be stored in vectors.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(Simulator& sim, TimePs period, Simulator::Action fn)
      // hicc-lint: allow(hot-heap-alloc) -- one allocation per task at
      // construction; ticks reschedule without allocating.
      : state_(std::make_unique<State>(&sim, period, std::move(fn))) {
    arm(*state_);
  }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  PeriodicTask(PeriodicTask&&) noexcept = default;
  PeriodicTask& operator=(PeriodicTask&& o) noexcept {
    if (this != &o) {
      stop();
      state_ = std::move(o.state_);
    }
    return *this;
  }
  ~PeriodicTask() { stop(); }

  /// Cancels the pending tick. The task keeps its simulator, period and
  /// callback, so start() can rearm it later.
  void stop() {
    if (state_ == nullptr) return;
    state_->sim->cancel(state_->pending);
    state_->pending = {};
  }

  /// Rearms a stopped task (next tick one period from now). No-op when
  /// already running or dead.
  void start() {
    if (state_ == nullptr || state_->pending.valid()) return;
    arm(*state_);
  }

  /// True while a tick is scheduled. Dead tasks report false.
  [[nodiscard]] bool running() const { return state_ != nullptr && state_->pending.valid(); }

 private:
  /// The scheduled closure captures this stable address, never the
  /// PeriodicTask itself -- which is what makes moves safe.
  struct State {
    State(Simulator* s, TimePs p, Simulator::Action f)
        : sim(s), period(p), fn(std::move(f)) {}
    Simulator* sim;
    TimePs period;
    Simulator::Action fn;
    EventId pending{};
  };

  static void arm(State& s) {
    s.pending = s.sim->after(s.period, [sp = &s] {
      arm(*sp);  // rearm first so fn may stop() the task
      sp->fn();
    });
  }

  std::unique_ptr<State> state_;
};

}  // namespace hicc::sim
