// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "iommu/iommu.h"

#include <utility>

namespace hicc::iommu {

namespace {
/// PWC tag: the IOVA prefix covered by one entry at `level`. The
/// per-level caches are separate structures, so the prefix alone tags.
Iova pwc_tag(Iova iova, int level) { return level_prefix(iova, level); }
}  // namespace

Iommu::Iommu(sim::Simulator& sim, mem::MemorySystem& mem, IommuParams params, Rng rng,
             trace::Tracer* tracer)
    : sim_(sim),
      mem_(mem),
      params_(params),
      rng_(rng),
      iotlb_(params.iotlb_sets,
             params.iotlb_entries / (params.iotlb_sets > 0 ? params.iotlb_sets : 1)),
      pwc_l4_(1, params.pwc_l4_entries > 0 ? params.pwc_l4_entries : 1),
      pwc_l3_(1, params.pwc_l3_entries > 0 ? params.pwc_l3_entries : 1),
      pwc_l2_(1, params.pwc_l2_entries > 0 ? params.pwc_l2_entries : 1) {
  if (tracer != nullptr) {
    // All polled from state the IOMMU already keeps: tracing adds no
    // work to the translation fast path.
    tracer->counter("iommu.iotlb_hits", "lookups",
                    [this] { return static_cast<double>(stats_.hits); });
    tracer->counter("iommu.iotlb_misses", "lookups",
                    [this] { return static_cast<double>(stats_.misses); });
    tracer->counter("iommu.invalidations", "commands",
                    [this] { return static_cast<double>(stats_.invalidations); });
    tracer->gauge("iommu.pending_walks", "walks", [this] {
      return static_cast<double>(walk_queue_.size()) + static_cast<double>(walkers_busy_);
    });
  }
}

void Iommu::unmap_region(RegionId id) {
  const Region r = table_.region(id);
  for (std::int64_t p = 0; p < r.num_pages(); ++p) {
    if (iotlb_.invalidate(IoPageTable::iotlb_tag(r, r.page_iova(p)))) ++stats_.invalidations;
  }
  table_.unmap_region(id);
}

bool Iommu::invalidate_page(Iova iova) {
  const Region* region = table_.find(iova);
  if (region == nullptr) return false;
  if (iotlb_.invalidate(IoPageTable::iotlb_tag(*region, iova))) {
    ++stats_.invalidations;
    return true;
  }
  return false;
}

Iommu::FastPath Iommu::translate_fast(Iova iova) {
  if (!params_.enabled) return {TimePs(0), true};
  ++stats_.lookups;
  const Region* region = table_.find(iova);
  if (region == nullptr) {
    // DMA fault: in hardware this aborts the transaction. The callers
    // in this codebase only present mapped addresses; count and treat
    // as an instantaneous completion to stay robust.
    ++stats_.faults;
    return {TimePs(0), true};
  }
  if (iotlb_.lookup(IoPageTable::iotlb_tag(*region, iova))) {
    ++stats_.hits;
    return {params_.hit_latency, true};
  }
  ++stats_.misses;
  return {};
}

std::optional<TimePs> Iommu::try_translate(Iova iova) {
  const FastPath r = translate_fast(iova);
  if (!r.translated) return std::nullopt;
  return r.latency;
}

void Iommu::translate_slow(Iova iova, sim::InlineCallback<void()> done) {
  const Region* region = table_.find(iova);
  Walk walk;
  walk.iova = iova;
  walk.page_size = region != nullptr ? region->page_size : PageSize::k4K;
  walk.done = std::move(done);
  walk_queue_.push_back(std::move(walk));
  pump_walkers();
}

void Iommu::invalidate_page_async(Iova iova) {
  (void)invalidate_page(iova);  // entry disappears immediately
  Walk inval;
  inval.iova = iova;
  inval.is_invalidation = true;
  walk_queue_.push_back(std::move(inval));
  pump_walkers();
}

bool Iommu::invalidate_random_page(Rng& rng) {
  const std::size_t regions = table_.region_count();
  if (regions == 0) return false;
  const Region& r = table_.region(
      RegionId{static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(regions)))});
  if (r.num_pages() <= 0) return false;
  invalidate_page_async(r.page_iova(
      static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(r.num_pages())))));
  return true;
}

void Iommu::pump_walkers() {
  while (walkers_busy_ < params_.walkers && !walk_queue_.empty()) {
    Walk walk = std::move(walk_queue_.front());
    walk_queue_.pop_front();
    ++walkers_busy_;

    if (walk.is_invalidation) {
      // Invalidation command: holds the pipeline slot, no memory reads.
      sim_.after(params_.invalidation_latency, [this] {
        --walkers_busy_;
        pump_walkers();
      });
      continue;
    }

    // Decide which levels must be read from memory. The leaf level is
    // always read (its absence from the IOTLB is why we are walking);
    // upper levels are skipped when the page-walk caches cover them.
    // Levels are read root-first: L4 -> L3 -> L2 [-> L1].
    const int leaf = (walk.page_size == PageSize::k4K) ? 1 : 2;
    for (int level = 4; level >= leaf; --level) {
      bool cached = false;
      if (level == 4 && params_.pwc_l4_entries > 0) cached = pwc_l4_.lookup(pwc_tag(walk.iova, 4));
      if (level == 3 && params_.pwc_l3_entries > 0) cached = pwc_l3_.lookup(pwc_tag(walk.iova, 3));
      if (level == 2 && leaf != 2 && params_.pwc_l2_entries > 0) {
        cached = pwc_l2_.lookup(pwc_tag(walk.iova, 2));
      }
      if (level == leaf || !cached) {
        walk.levels[walk.num_levels++] = static_cast<std::int8_t>(level);
      }
    }
    walk_step(std::move(walk));
  }
}

void Iommu::walk_step(Walk walk) {
  if (walk.next_level >= walk.num_levels) {
    // Walk complete: install the leaf in the IOTLB and the traversed
    // upper levels in the page-walk caches.
    const Region* region = table_.find(walk.iova);
    if (region != nullptr) iotlb_.insert(IoPageTable::iotlb_tag(*region, walk.iova));
    const int leaf = (walk.page_size == PageSize::k4K) ? 1 : 2;
    for (std::uint8_t i = 0; i < walk.num_levels; ++i) {
      const int level = walk.levels[i];
      if (level == leaf) continue;
      if (level == 4) pwc_l4_.insert(pwc_tag(walk.iova, 4));
      if (level == 3) pwc_l3_.insert(pwc_tag(walk.iova, 3));
      if (level == 2) pwc_l2_.insert(pwc_tag(walk.iova, 2));
    }
    ++stats_.walks_completed;
    --walkers_busy_;
    auto done = std::move(walk.done);
    pump_walkers();
    if (done) done();
    return;
  }
  // One dependent page-table-entry read. Hot page-table entries stay
  // resident in the CPU cache hierarchy; only the miss fraction pays a
  // DRAM access (and shows up as memory-bus traffic).
  ++stats_.walk_memory_reads;
  const TimePs latency =
      rng_.chance(params_.pt_cache_hit_fraction)
          ? params_.pt_cache_latency
          : mem_.request(mem::MemClass::kIommuWalk, mem::kCacheLine, true);
  ++walk.next_level;
  // `[this, walk]` is 72 bytes: the whole chained walk state rides in
  // the event node's inline buffer.
  sim_.after(latency, [this, walk = std::move(walk)]() mutable {
    walk_step(std::move(walk));
  });
}

}  // namespace hicc::iommu
