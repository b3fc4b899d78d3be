// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace hicc::sim {

Simulator::Simulator() { bucket_head_.fill(kNil); }

std::int32_t Simulator::alloc_node_slow() {
  // Chunked growth keeps every existing Node at a stable address, so a
  // closure can run in place while new events are being scheduled.
  if (node_count_ == chunks_.size() * kChunkSize) {
    // hicc-lint: allow(hot-heap-alloc, hot-vector-growth) -- slab growth:
    // one allocation per 256 nodes until the high-water mark, then the
    // free list recycles forever (SteadyStateIsAllocationFree).
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return static_cast<std::int32_t>(node_count_++);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  if (id.slot >= node_count_) return false;
  Node& n = node(id.slot);
  // Generation check: a handle for an event that already ran (or whose
  // slot was recycled) no longer matches the node's stamp.
  if (n.seq != id.seq || !n.live) return false;
  n.live = false;  // tombstone; the node is reclaimed at the next scan
  n.fn = nullptr;  // release captured resources immediately
  ++(n.in_heap ? heap_dead_ : wheel_dead_);
  --live_;
  next_time_ = kUnset;  // it may have been the earliest
  return true;
}

bool Simulator::trip(AbortCause cause, TimePs t) {
  abort_cause_ = cause;
  if (cause == AbortCause::kEventBudget) {
    abort_reason_ = "event budget exhausted (" + std::to_string(watchdog_.max_events) +
                    " events executed) at t=" + std::to_string(t.us()) + "us";
  } else {
    // The tripping event would have made the streak one longer.
    abort_reason_ = "no time progress: " + std::to_string(same_time_streak_ + 1) +
                    " consecutive events at t=" + std::to_string(t.us()) +
                    "us (self-rescheduling loop?)";
  }
  return false;
}

void Simulator::run_until(TimePs end) {
  if (aborted() || end < now_) return;
  chain_end_ = end;  // continue_at() chains only inside this loop
  for (;;) {
    const Candidate c = peek_min();
    if (!c.found) {
      assert(live_ == 0 && "an idle queue cannot hold live events");
      break;
    }
    if (end < c.time) break;
    if (!begin_event(c.time, c.seq)) {  // abort: now_ stays put
      chain_end_ = kUnset;
      return;
    }
    detach(c);
    node(static_cast<std::uint32_t>(c.slot)).fn();
    free_node(c.slot);
  }
  chain_end_ = kUnset;
  // Everything issued so far at or before `end` has now run.
  now_ = end;
  passed_seq_ = next_seq_ - 1;
}

}  // namespace hicc::sim
