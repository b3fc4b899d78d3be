// The receiver NIC (§2 steps 1-7).
//
// Arriving packets enter a small shared SRAM input buffer (~1MB on
// commodity NICs; all flows share it, so drops violate isolation --
// §3's drop-rate metric). The DMA engine drains the buffer in FIFO
// order: each packet consumes one prefetched Rx descriptor, its payload
// is cut into PCIe posted-write TLPs addressed at a page of the owning
// thread's registered data region ("lack of locality in IOMMU access
// patterns": concurrent flows land on random pages), and after all
// payload TLPs retire, a completion-queue entry is written; only then
// is the packet visible to the host thread.
//
// Per data packet the NIC touches, as in the paper's footnote 3:
//   - the payload page(s) (1 hugepage, or 2 4K pages for a 4K MTU),
//   - the descriptor ring page (prefetched read),
//   - the completion queue page (posted write),
//   - and, for its ACK, the ACK buffer page (Tx fetch read).
// All of these translate through the IOMMU when it is enabled.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "common/units.h"
#include "iommu/iommu.h"
#include "iommu/lru_cache.h"
#include "net/packet.h"
#include "pcie/pcie_bus.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc::nic {

/// NIC hardware + driver-layout configuration.
struct NicParams {
  /// Shared input SRAM (paper testbed: ~1MB).
  Bytes input_buffer = Bytes::mib(1);
  /// Rx descriptors the host keeps posted per thread queue.
  int descriptors_per_queue = 512;
  /// Descriptors the NIC prefetches ahead per queue.
  int descriptor_prefetch = 8;
  /// Control pages (4K mappings) per thread: descriptor ring,
  /// completion queue, ACK/Tx buffers. These are what make the
  /// working set ~16 IOTLB entries per thread with a 12MB data region.
  int ring_pages = 2;
  int cq_pages = 2;
  int ack_pages = 6;
  /// Bytes of a descriptor fetch and of a completion entry write.
  Bytes descriptor_bytes = Bytes(64);
  Bytes cq_entry_bytes = Bytes(32);
  /// Input-buffer occupancy (fraction) above which the out-of-band
  /// host congestion signal fires (kHostSignal experiments).
  double signal_threshold = 0.75;
  /// PCIe ATS (§4a): the NIC keeps a device TLB and translates DMA
  /// addresses itself, prefetching translations when packets arrive,
  /// so IOTLB misses never stall the root complex's ordered pipeline.
  bool ats_enabled = false;
  int dev_tlb_entries = 64;
  /// Extra round trip of an ATS translation request over the link.
  TimePs ats_request_latency = TimePs::from_ns(100);
  /// Strict IOMMU mode: the driver revokes each payload buffer's
  /// mapping as soon as its packet is delivered, shooting down the
  /// cached translation ("dynamically deleting IOMMU mappings at run
  /// time are known to cause even worse IOTLB misses", §3.1).
  bool strict_invalidation = false;
};

/// NIC-level counters.
struct NicStats {
  std::int64_t arrivals = 0;
  std::int64_t buffer_drops = 0;      // shared-SRAM tail drops
  std::int64_t delivered = 0;         // packets handed to host threads
  std::int64_t bytes_delivered = 0;   // payload bytes DMA-completed
  std::int64_t descriptor_fetches = 0;
  std::int64_t cq_writes = 0;
  std::int64_t tx_packets = 0;
  std::int64_t hol_descriptor_stalls = 0;
  std::int64_t ats_prefetches = 0;    // device-TLB fills requested
  std::int64_t ats_hol_waits = 0;     // DMA admissions stalled on ATS
};

/// The receiver-side NIC model.
class Nic {
 public:
  /// `deliver(thread, packet, nic_arrival)` hands a DMA-completed
  /// packet to a host thread; `transmit` puts a packet (ACK / read
  /// request) on the reverse fabric path; `buffer_pressure` fires on
  /// arrivals that find the buffer above the signal threshold.
  /// All three fire on per-packet paths, so they use inline-storage
  /// callables (the host side captures `[this]`).
  struct Callbacks {
    sim::InlineCallback<void(int, net::Packet, TimePs)> deliver;
    sim::InlineCallback<bool(net::Packet)> transmit;
    sim::InlineCallback<void()> buffer_pressure;
  };

  /// Registers per-thread data regions (`data_region_size` each, with
  /// `data_page` leaves -- 2M when hugepages are enabled, 4K when
  /// disabled) and 4K control regions with the IOMMU, as the SNAP
  /// stack does once at startup (loose mode). `tracer`, when non-null,
  /// registers the `nic.*` probes (all polled from NicStats / buffer
  /// occupancy -- the arrival and DMA paths are untouched).
  Nic(sim::Simulator& sim, pcie::PcieBus& pcie, iommu::Iommu& iommu, NicParams params,
      int num_threads, Bytes data_region_size, iommu::PageSize data_page,
      sim::InlineCallback<int(std::int32_t)> thread_of_flow, Rng rng,
      trace::Tracer* tracer = nullptr);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// A packet arrives from the fabric (access-link delivery).
  void on_arrival(net::Packet p);

  /// Host thread returns `n` descriptors to its Rx queue (done while
  /// processing completions).
  void post_descriptors(int thread, int n);

  /// Host thread transmits a packet (ACK or read request): the NIC
  /// fetches it from the thread's ACK buffer page over PCIe, then puts
  /// it on the wire.
  void send_packet(net::Packet p, int thread);

  /// Fault hook (nic.buffer_squeeze): caps the admissible input-buffer
  /// occupancy below the configured SRAM size. Bytes(0) restores the
  /// configured limit; packets already buffered are never evicted.
  void set_buffer_limit(Bytes limit) { buffer_limit_override_ = limit; }
  /// The currently effective admission limit.
  [[nodiscard]] Bytes buffer_limit() const {
    return buffer_limit_override_.count() > 0 ? buffer_limit_override_ : params_.input_buffer;
  }

  [[nodiscard]] Bytes buffer_used() const { return buffer_used_; }
  [[nodiscard]] const NicStats& stats() const { return stats_; }
  [[nodiscard]] int posted_descriptors(int thread) const {
    return queues_[static_cast<std::size_t>(thread)].posted;
  }

 private:
  struct Queue {
    iommu::RegionId data_region{};
    iommu::RegionId control_region{};
    int posted = 0;       // host-posted descriptors not yet fetched
    int fetched = 0;      // descriptors ready on the NIC
    int fetch_in_flight = 0;
    std::int64_t ring_cursor = 0;  // rotates ring pages
    std::int64_t cq_cursor = 0;    // rotates CQ pages
    std::int64_t ack_cursor = 0;   // rotates ACK pages
  };

  /// A buffered packet with its (pre-picked) payload target pages.
  struct Buffered {
    net::Packet pkt;
    iommu::Iova first_page = 0;
    iommu::Iova second_page = 0;
  };

  /// A packet whose DMA is in progress.
  struct DmaJob {
    net::Packet pkt;
    TimePs arrival{};
    int thread = 0;
    iommu::Iova first_page = 0;   // payload target page
    iommu::Iova second_page = 0;  // used when 4K pages split the MTU
    bool pre_translated = false;  // ATS: addresses translated on-device
    int tlps_total = 0;
    int tlps_sent = 0;
  };

  /// Drives descriptor prefetch for one queue.
  void ensure_descriptor_fetch(int thread);
  /// Advances the DMA pipeline: CQ writes first, then payload TLPs,
  /// then admits the next buffered packet.
  void pump();
  void start_cq_write(std::int32_t slot);

  [[nodiscard]] iommu::Iova control_page(const Queue& q, int first, int count,
                                         std::int64_t cursor) const;
  [[nodiscard]] iommu::Iova pick_data_page(Queue& q);
  /// ATS: requests a device-TLB fill for `page` if none is cached or
  /// in flight.
  void ats_prefetch(iommu::Iova page);
  /// ATS: true when the device TLB covers every page of the entry.
  [[nodiscard]] bool ats_ready(const Buffered& b);

  sim::Simulator& sim_;
  pcie::PcieBus& pcie_;
  iommu::Iommu& iommu_;
  NicParams params_;
  iommu::PageSize data_page_;
  sim::InlineCallback<int(std::int32_t)> thread_of_flow_;
  Rng rng_;
  Callbacks cbs_;

  std::vector<Queue> queues_;
  Ring<Buffered> input_;                    // buffered, not yet DMA-started
  Bytes buffer_used_{};
  Bytes buffer_limit_override_{};           // fault hook; 0 = use params_

  iommu::LruCache<iommu::Iova> dev_tlb_;    // ATS device TLB
  // hicc-lint: allow(hot-node-container) -- ATS runs only: one node per
  // device-TLB fill in flight, never touched when ATS is off.
  std::unordered_map<iommu::Iova, bool> ats_pending_;
  /// Packets whose DMA is in progress, by slot. Slots recycle through
  /// `free_jobs_`, so completions capture `[this, slot]` and find their
  /// job by index. A job takes its slot at admission and keeps it
  /// until its completion-queue write retires.
  std::vector<DmaJob> jobs_;
  std::vector<std::int32_t> free_jobs_;
  /// Slot of the job whose payload TLPs are still being emitted (-1: none).
  std::int32_t sending_job_ = -1;
  /// Tx packets parked while their ACK-buffer fetch is on the PCIe bus.
  /// A free-list slab: the fetch completion captures only `[this,
  /// slot]`, which keeps the per-ACK closure inside the inline buffer
  /// (a by-value Packet capture would not fit a CompletionFn).
  std::vector<net::Packet> tx_stash_;
  std::vector<std::int32_t> tx_free_;
  Ring<std::int32_t> cq_pending_;           // job slots whose CQ write awaits credits
  NicStats stats_;
};

}  // namespace hicc::nic
