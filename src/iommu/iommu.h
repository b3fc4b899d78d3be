// The IO memory management unit (§2 step 4, §3.1).
//
// Every DMA initiated by the NIC carries an IO virtual address; the
// PCIe root complex asks the IOMMU to translate it. Translations are
// served by the IOTLB (a small cache -- 128 entries on the paper's
// testbed) in a few nanoseconds; a miss requires a page-table walk of
// one or more dependent memory reads (fewer when the page-walk caches
// hold the upper levels), each subject to the current memory-bus load.
// Walks are performed by a small pool of hardware walkers; when all
// walkers are busy, walk requests queue.
//
// This is the mechanism chain behind Figures 3-5: more registered
// pages -> IOTLB overflow -> misses per packet -> hundreds of ns of
// extra per-DMA latency -> PCIe credit throughput ceiling.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <optional>

#include "common/ring.h"
#include "common/rng.h"
#include "common/units.h"
#include "iommu/lru_cache.h"
#include "iommu/page_table.h"
#include "mem/memory_system.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc::iommu {

/// Configuration of the IOMMU hardware.
struct IommuParams {
  /// Master switch: when false, DMA addresses are physical and the
  /// translation path is skipped entirely (the paper's "IOMMU OFF").
  bool enabled = true;
  /// IOTLB capacity in entries (paper testbed: 128).
  int iotlb_entries = 128;
  /// IOTLB sets; 1 = fully associative (default).
  int iotlb_sets = 1;
  /// IOTLB hit latency ("a few nanoseconds", §3.1).
  TimePs hit_latency = TimePs::from_ns(2);
  /// Page-walk cache sizes per level (entries). Zero disables a level.
  int pwc_l4_entries = 8;
  int pwc_l3_entries = 8;
  int pwc_l2_entries = 32;
  /// Number of concurrent hardware page walkers.
  int walkers = 2;
  /// Service time of one IOTLB invalidation command; invalidations
  /// share the walker/command pipeline with translations, which is why
  /// strict-mode unmapping is so expensive (§3.1).
  TimePs invalidation_latency = TimePs::from_ns(250);
  /// Probability that a page-table-entry read hits in the CPU cache
  /// hierarchy (PT entries of the hot working set stay LLC-resident)
  /// instead of going to DRAM, and its latency when it does.
  double pt_cache_hit_fraction = 0.4;
  TimePs pt_cache_latency = TimePs::from_ns(30);
};

/// Counters exposed to experiments (the paper's infrastructure counters).
struct IommuStats {
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t walks_completed = 0;
  std::int64_t walk_memory_reads = 0;
  std::int64_t invalidations = 0;
  std::int64_t faults = 0;  // lookups outside any mapped region
};

/// The IOMMU: region registration (loose mode), IOTLB, PWC, walkers.
class Iommu {
 public:
  /// `tracer`, when non-null, registers the `iommu.*` probes (all
  /// polled from IommuStats / walker state -- the translation hot path
  /// is untouched).
  Iommu(sim::Simulator& sim, mem::MemorySystem& mem, IommuParams params,
        Rng rng, trace::Tracer* tracer = nullptr);

  Iommu(const Iommu&) = delete;
  Iommu& operator=(const Iommu&) = delete;

  [[nodiscard]] bool enabled() const { return params_.enabled; }

  /// Registers a DMA region (called by the network stack at startup in
  /// loose mode, or per-buffer in strict-mode experiments).
  RegionId map_region(Bytes size, PageSize page_size) {
    return table_.map_region(size, page_size);
  }

  /// Unmaps a region and invalidates its IOTLB entries (strict mode).
  void unmap_region(RegionId id);

  /// Invalidates the single IOTLB entry covering `iova` (per-buffer
  /// unmap in strict mode: the mapping itself stays registered, but
  /// the cached translation is shot down). Returns true if an entry
  /// was present.
  bool invalidate_page(Iova iova);

  /// Queues an IOTLB invalidation command for `iova`'s page. The entry
  /// is removed immediately, but the command occupies a walker slot
  /// for invalidation_latency, delaying queued translations.
  void invalidate_page_async(Iova iova);

  /// Fault hook (iommu.storm): async-invalidates one uniformly chosen
  /// mapped page, emulating an unrelated driver churning its mappings.
  /// No-op (returns false) when nothing is mapped.
  bool invalidate_random_page(Rng& rng);

  [[nodiscard]] const Region& region(RegionId id) const { return table_.region(id); }
  [[nodiscard]] const IoPageTable& page_table() const { return table_; }

  /// Fast path: completes the translation without a page walk if
  /// possible. Returns the translation latency on an IOTLB hit (or
  /// zero when the IOMMU is disabled); std::nullopt means a walk is
  /// required and the caller must use translate_slow().
  [[nodiscard]] std::optional<TimePs> try_translate(Iova iova);

  /// try_translate() as a plain pair, for the per-TLP caller: GCC
  /// returns it in two registers, where it builds a std::optional on
  /// the stack and reloads it past a store-forwarding stall, inlined
  /// or not.
  struct FastPath {
    TimePs latency{};
    bool translated = false;  // false: a walk is required
  };
  [[nodiscard]] FastPath translate_fast(Iova iova);

  /// Slow path: queues a page walk for `iova`; `done` runs when the
  /// translation is installed (walk latency has already elapsed on the
  /// simulator clock). Call only after try_translate() returned nullopt.
  void translate_slow(Iova iova, sim::InlineCallback<void()> done);

  [[nodiscard]] const IommuStats& stats() const { return stats_; }

  /// Number of distinct leaf pages currently mapped: the IOTLB
  /// working-set size that Figures 3-5 sweep.
  [[nodiscard]] std::int64_t mapped_pages() const { return table_.total_mapped_pages(); }

 private:
  /// One queued walk (or invalidation command). The levels still to be
  /// read are a fixed in-object array (root-first; at most L4..L1), so
  /// the whole Walk rides inside an event closure's inline buffer --
  /// no per-walk heap allocation.
  struct Walk {
    Iova iova = 0;
    PageSize page_size = PageSize::k4K;
    bool is_invalidation = false;
    std::uint8_t num_levels = 0;
    std::uint8_t next_level = 0;  // index into `levels` of the next read
    std::int8_t levels[4] = {};
    sim::InlineCallback<void()> done;
  };

  /// Starts queued walks while walkers are available.
  void pump_walkers();
  /// Executes the next level read of `walk`; chains until done.
  void walk_step(Walk walk);

  sim::Simulator& sim_;
  mem::MemorySystem& mem_;
  IommuParams params_;
  Rng rng_;
  IoPageTable table_;
  LruCache<Iova> iotlb_;
  LruCache<Iova> pwc_l4_;
  LruCache<Iova> pwc_l3_;
  LruCache<Iova> pwc_l2_;
  Ring<Walk> walk_queue_;
  int walkers_busy_ = 0;
  IommuStats stats_;
};

}  // namespace hicc::iommu
