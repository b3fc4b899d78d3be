// IO virtual address space layout and 4-level page-table geometry.
//
// The IOMMU's second-level page table is a 4-level radix tree with
// 9 bits per level (x86/VT-d geometry): a 4K translation reads entries
// at levels L4->L3->L2->L1; a 2M ("hugepage") translation terminates at
// L2. Regions registered by the network stack ("loose mode": mapped
// once at startup, never invalidated at runtime -- §3.1's setup) are
// carved out of the IOVA space by a bump allocator.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace hicc::iommu {

/// An IO virtual address as seen by the NIC in Rx descriptors.
using Iova = std::uint64_t;

/// Leaf page size of a mapping.
enum class PageSize : std::uint8_t {
  k4K,  // standard 4KiB pages
  k2M,  // hugepages
};

inline constexpr Bytes page_bytes(PageSize ps) {
  return ps == PageSize::k4K ? Bytes(4096) : Bytes(2 * 1024 * 1024);
}

/// log2 of page_bytes(ps): the shift that turns an IOVA into a page
/// number, so per-TLP page arithmetic never divides.
inline constexpr int page_shift(PageSize ps) { return ps == PageSize::k4K ? 12 : 21; }

/// Number of page-table levels that must be read to translate a leaf
/// of the given size, assuming nothing is cached (L4,L3,L2[,L1]).
inline constexpr int walk_levels(PageSize ps) { return ps == PageSize::k4K ? 4 : 3; }

/// Bit position of the low edge of each level's index field.
/// Level 1 = PT (4K leaves), 2 = PD (2M leaves), 3 = PDPT, 4 = PML4.
inline constexpr int level_shift(int level) { return 12 + 9 * (level - 1); }

/// The IOVA prefix that selects a single entry at `level` (i.e. the
/// address truncated to that level's coverage). Two addresses with the
/// same prefix share the page-table entry at that level.
inline constexpr Iova level_prefix(Iova iova, int level) {
  return iova >> level_shift(level);
}

/// A registered DMA-able memory region.
struct Region {
  Iova base = 0;
  Bytes size{};
  PageSize page_size = PageSize::k2M;

  [[nodiscard]] constexpr std::int64_t num_pages() const {
    const auto psz = page_bytes(page_size).count();
    return (size.count() + psz - 1) / psz;
  }
  /// IOVA of the n-th page of the region.
  [[nodiscard]] constexpr Iova page_iova(std::int64_t n) const {
    return base + static_cast<Iova>(n * page_bytes(page_size).count());
  }
  [[nodiscard]] constexpr bool contains(Iova a) const {
    return a >= base && a < base + static_cast<Iova>(size.count());
  }
};

/// Handle to a registered region.
struct RegionId {
  std::int32_t index = -1;
  [[nodiscard]] constexpr bool valid() const { return index >= 0; }
};

/// The IO page table: tracks registered regions and answers geometry
/// queries (which region an IOVA belongs to, page base, walk depth).
/// It does not store actual PTE contents -- the simulator needs only
/// the structure that determines translation cost.
class IoPageTable {
 public:
  /// Registers a region of `size`, mapped with `page_size` leaves.
  /// Returns its id; base addresses are assigned by a bump allocator
  /// aligned to the leaf size, so regions are sorted by base.
  RegionId map_region(Bytes size, PageSize page_size) {
    const auto align = static_cast<Iova>(page_bytes(page_size).count());
    next_base_ = (next_base_ + align - 1) / align * align;
    Region r{next_base_, size, page_size};
    next_base_ += static_cast<Iova>(r.num_pages() * page_bytes(page_size).count());
    const auto index = static_cast<std::int32_t>(regions_.size());
    // hicc-lint: allow(hot-vector-growth) -- region registration is
    // setup-time (loose mode pins once); never on the datapath.
    regions_.push_back(Slot{r, true});
    if (size.count() > 0) {
      // Chunks up to this region's last byte that no earlier region
      // reaches start their search here.
      const Iova last = (r.base + static_cast<Iova>(size.count()) - 1) >> kChunkShift;
      if (last >= first_region_.size()) first_region_.resize(last + 1, index);
    }
    total_mapped_pages_ += r.num_pages();
    return RegionId{index};
  }

  /// Removes a region's mapping (strict-mode experiments). The region
  /// slot stays allocated; subsequent find() no longer returns it.
  /// Unmapping an unmapped region does nothing.
  void unmap_region(RegionId id) {
    Slot& s = regions_.at(static_cast<std::size_t>(id.index));
    if (!s.mapped) return;
    s.mapped = false;
    total_mapped_pages_ -= s.region.num_pages();
  }

  [[nodiscard]] const Region& region(RegionId id) const {
    return regions_.at(static_cast<std::size_t>(id.index)).region;
  }

  /// Finds the mapped region containing `iova`, or null. The 2 MiB
  /// chunk directory names the first region that can contain it; the
  /// scan past it only crosses the few regions sharing that chunk. The
  /// pointer is valid until the next map_region().
  [[nodiscard]] const Region* find(Iova iova) const {
    const Iova chunk = iova >> kChunkShift;
    if (chunk >= first_region_.size()) return nullptr;
    for (auto i = static_cast<std::size_t>(first_region_[chunk]);
         i < regions_.size() && regions_[i].region.base <= iova; ++i) {
      const Slot& s = regions_[i];
      if (s.region.contains(iova)) return s.mapped ? &s.region : nullptr;
    }
    return nullptr;
  }

  /// IOVA rounded down to its page base, given the owning region's
  /// page size. Pages are powers of two, so this masks.
  [[nodiscard]] static Iova page_base(const Region& r, Iova iova) {
    return iova & ~((Iova{1} << page_shift(r.page_size)) - 1);
  }

  /// IOTLB tag of the page holding `iova`: its page number, with the
  /// top bit set for a 2 MiB page so the two sizes' numbers never
  /// collide. Consecutive pages get consecutive tags, so a
  /// set-associative IOTLB (tag modulo the set count) spreads them
  /// over every set, as hardware indexing by low page-number bits does.
  [[nodiscard]] static Iova iotlb_tag(const Region& r, Iova iova) {
    const Iova huge = r.page_size == PageSize::k2M ? Iova{1} << 63 : 0;
    return (iova >> page_shift(r.page_size)) | huge;
  }

  /// Total leaf pages currently mapped (the IOTLB working-set bound).
  [[nodiscard]] std::int64_t total_mapped_pages() const { return total_mapped_pages_; }

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

 private:
  struct Slot {
    Region region;
    bool mapped = true;
  };
  /// log2 of the directory's chunk: one 2 MiB hugepage.
  static constexpr int kChunkShift = 21;

  // IOVA 0 is left unmapped so a zero address is always a fault.
  Iova next_base_ = 1ull << 21;
  std::vector<Slot> regions_;  // in id order, which is base order
  /// Per 2 MiB chunk of IOVA space up to the highest mapped byte: the
  /// first region whose end lies past the chunk's start.
  std::vector<std::int32_t> first_region_;
  std::int64_t total_mapped_pages_ = 0;
};

}  // namespace hicc::iommu
