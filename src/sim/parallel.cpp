// hicc-lint: hotpath -- window loop and mailbox drain run per barrier.
#include "sim/parallel.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace hicc::sim {
namespace {

/// sched_yield rounds a handoff wait makes before it parks. Long enough
/// to outlast the usual imbalance between threads in one window (on
/// clos_openloop at 2 threads, 256 rounds still parked in ~7% of the
/// windows, 1024 in under 1%), so threads park only when the engine is
/// idle. Waits never pause-spin: when engine threads outnumber the
/// cores (taskset, a busy `ctest -j`, a `--jobs` x `--parallel` sweep),
/// a yield hands the core to the thread being waited for.
constexpr int kYieldRounds = 1024;

}  // namespace

ParallelEngine::ParallelEngine(ParallelParams params)
    : params_(params),
      partitions_(params.partitions < 1 ? 1 : params.partitions),
      threads_(params.threads < 1 ? 1 : params.threads) {
  if (partitions_ > 1 && params_.lookahead <= TimePs{}) {
    throw std::invalid_argument("ParallelEngine: a multi-partition engine needs lookahead > 0");
  }
  if (threads_ > partitions_) threads_ = partitions_;
  const auto n = static_cast<std::size_t>(partitions_);
  sims_.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    // hicc-lint: allow(hot-heap-alloc) -- construction only, one per partition.
    sims_.push_back(std::make_unique<Simulator>());
  }
  inbound_.resize(n);
  lanes_ = std::vector<Lane>(static_cast<std::size_t>(threads_));
  for (Lane& lane : lanes_) {
    lane.keys.reserve(64);
    lane.overflowed.reserve(n);
  }
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  try {
    for (int t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t] { worker_main(t); });
    }
  } catch (...) {
    stop_workers();  // a thread failed to start: join the ones that did
    throw;
  }
}

ParallelEngine::~ParallelEngine() { stop_workers(); }

void ParallelEngine::stop_workers() {
  if (workers_.empty()) return;
  shutdown_ = true;
  // Workers wait for the next window's epoch; publishing it with
  // shutdown_ set releases them to exit.
  epoch_.store(static_cast<std::uint32_t>(windows_ + 1), std::memory_order_seq_cst);
  epoch_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ParallelEngine::arrive(std::atomic<std::uint32_t>& word, std::uint32_t target) {
  if (word.fetch_add(1, std::memory_order_seq_cst) + 1 == target) wake(word);
}

void ParallelEngine::await(const std::atomic<std::uint32_t>& word, std::uint32_t target) {
  for (int i = 0; i < kYieldRounds; ++i) {
    if (word.load(std::memory_order_acquire) == target) return;
    std::this_thread::yield();
  }
  // Registering as parked before the re-check pairs with wake(): either
  // the waker sees parked_ > 0 and notifies, or this load sees its store
  // (both sides are seq_cst).
  parked_.fetch_add(1, std::memory_order_seq_cst);
  std::uint32_t v = word.load(std::memory_order_seq_cst);
  while (v != target) {
    word.wait(v, std::memory_order_seq_cst);
    v = word.load(std::memory_order_seq_cst);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

void ParallelEngine::wake(std::atomic<std::uint32_t>& word) {
  if (parked_.load(std::memory_order_seq_cst) != 0) word.notify_all();
}

ParallelEngine::Channel ParallelEngine::connect(int src, int dst) {
  if (src < 0 || src >= partitions_ || dst < 0 || dst >= partitions_) {
    throw std::invalid_argument("ParallelEngine::connect: partition out of range");
  }
  std::vector<Channel>& in = inbound_[static_cast<std::size_t>(dst)];
  const auto pos =
      std::ranges::lower_bound(in, src, {}, [this](Channel c) { return mailbox(c).src; });
  if (pos != in.end() && mailbox(*pos).src == src) return *pos;
  const auto channel = static_cast<Channel>(mailboxes_.size());
  // hicc-lint: allow(hot-vector-growth) -- construction only, one per channel.
  Mailbox& box = mailboxes_.emplace_back();
  box.src = src;
  box.msgs.reserve(16);
  in.insert(pos, channel);
  return channel;
}

void ParallelEngine::worker_main(int t) {
  for (std::uint32_t epoch = 1;; ++epoch) {
    await(epoch_, epoch);
    if (shutdown_) return;
    run_share(t, epoch);
    arrive(drained_, epoch * static_cast<std::uint32_t>(threads_ - 1));
  }
}

void ParallelEngine::run_share(int t, std::uint32_t epoch) {
  Lane& lane = lanes_[static_cast<std::size_t>(t)];
  for (int p = t; p < partitions_; p += threads_) {
    Simulator& s = *sims_[static_cast<std::size_t>(p)];
    if (!s.aborted()) s.run_until(window_end_);
    if (s.aborted() && lane.first_aborted < 0) lane.first_aborted = p;
  }
  if (threads_ > 1) {
    // Every thread drains channels that every other thread appends to.
    const std::uint32_t all = epoch * static_cast<std::uint32_t>(threads_);
    arrive(ran_, all);
    await(ran_, all);
  }
  for (int dst = t; dst < partitions_; dst += threads_) drain_into(dst, lane);
}

void ParallelEngine::drain_into(int dst, Lane& lane) {
  const std::vector<Channel>& in = inbound_[static_cast<std::size_t>(dst)];
  lane.keys.clear();
  for (std::size_t j = 0; j < in.size(); ++j) {
    Mailbox& box = mailbox(in[j]);
    lane.max_depth = std::max(lane.max_depth, box.msgs.size());
    if (box.overflowed) {
      box.overflowed = false;
      lane.overflowed.push_back(box.src);
    }
    const std::uint64_t base = static_cast<std::uint64_t>(j) << 32;
    for (std::size_t i = 0; i < box.msgs.size(); ++i) {
      lane.keys.push_back(MergeKey{box.msgs[i].time, base | i});
    }
  }
  if (lane.keys.empty()) return;
  // Canonical cross-partition order: (time, src partition, seq), the
  // inbound position standing in for src and the channel index being
  // the per-channel seq. (src, index) pairs are unique, so this is a
  // strict total order and plain sort is deterministic.
  std::sort(lane.keys.begin(), lane.keys.end(), [](const MergeKey& a, const MergeKey& b) {
    return a.time != b.time ? a.time < b.time : a.order < b.order;
  });
  Simulator& target = *sims_[static_cast<std::size_t>(dst)];
  for (const MergeKey& k : lane.keys) {
    Mailbox& box = mailbox(in[k.order >> 32]);
    target.at(k.time, std::move(box.msgs[k.order & 0xffffffffu].fn));
  }
  for (const Channel channel : in) mailbox(channel).msgs.clear();
  lane.delivered += lane.keys.size();
}

bool ParallelEngine::check_aborts() {
  int first = partitions_;  // lowest aborted partition; partitions_ when none
  for (Lane& lane : lanes_) {
    // Mailbox overflow aborts the *posting* partition so run_status
    // points at the source of the traffic, mirroring a watchdog trip.
    for (const int src : lane.overflowed) {
      Simulator& s = *sims_[static_cast<std::size_t>(src)];
      if (!s.aborted()) {
        s.abort_run(AbortCause::kMailboxOverflow,
                    "cross-partition mailbox exceeded capacity " +
                        std::to_string(params_.mailbox_capacity));
      }
      first = std::min(first, src);
    }
    lane.overflowed.clear();
    if (lane.first_aborted >= 0) first = std::min(first, lane.first_aborted);
  }
  if (first == partitions_) return false;
  if (first_aborted_ < 0) first_aborted_ = first;
  return true;
}

void ParallelEngine::run_until(TimePs end) {
  // Deliver anything posted before the run (or between run_until
  // calls); the workers are idle, so this thread drains every channel.
  for (int dst = 0; dst < partitions_; ++dst) drain_into(dst, lanes_[0]);
  while (now_ < end && !aborted()) {
    TimePs wend = end;
    if (partitions_ > 1) {
      const TimePs next = now_ + params_.lookahead;
      if (next < wend) wend = next;
    }
    window_end_ = wend;
    const auto epoch = static_cast<std::uint32_t>(windows_ + 1);
    if (!workers_.empty()) {
      epoch_.store(epoch, std::memory_order_seq_cst);
      wake(epoch_);
    }
    run_share(0, epoch);  // the coordinator is thread 0
    if (!workers_.empty()) {
      await(drained_, epoch * static_cast<std::uint32_t>(threads_ - 1));
    }
    now_ = wend;
    ++windows_;
    const bool stop = check_aborts();
    if (barrier_hook_) barrier_hook_();
    if (stop) break;
  }
}

std::uint64_t ParallelEngine::executed_total() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->executed();
  return total;
}

std::uint64_t ParallelEngine::messages_delivered() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.delivered;
  return total;
}

std::size_t ParallelEngine::max_mailbox_depth() const {
  std::size_t depth = 0;
  for (const Lane& lane : lanes_) depth = std::max(depth, lane.max_depth);
  return depth;
}

}  // namespace hicc::sim
