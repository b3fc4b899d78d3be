// The PCIe datapath between NIC and host memory (§2 steps 3-6).
//
// Model, downstream (NIC -> memory) direction:
//
//   [NIC DMA engine] --credits--> [link serializer] --> [RC ordered queue]
//        ^                                                   |
//        |                                    translate (IOTLB / page walk)
//        |                                                   v
//        +---- credit release <--- [write buffer] ---> memory write
//
//  * Credit-based flow control: the NIC may only place a TLP on the
//    link when it holds enough posted credits; credits for a TLP are
//    returned when the root complex moves it out of its receive queue
//    into the write buffer (i.e. after address translation).
//  * The RC receive queue is processed in order -- PCIe posted writes
//    cannot pass one another -- so a single IOTLB miss stalls every
//    TLP behind it, delaying credit return. This is how per-DMA latency
//    becomes a throughput ceiling (the paper's C*pkt/(Tbase + M*Tmiss)).
//  * The write buffer bounds posted data outstanding to DRAM. When the
//    memory bus is contended (§3.2) writes retire slowly, the buffer
//    fills, the pipeline stalls, and credit return slows -- identical
//    symptom, different root cause.
//
// Non-posted reads (Rx descriptor fetches, Tx/ACK payload fetches)
// traverse the same link and ordered pipeline, then complete with a
// memory read plus the upstream link latency.
//
// Link arrivals and write retirements are reserved engine slots
// (sim::Simulator::reserve_seq), not events: most of them only bump a
// counter, which the bus settles with passed() when it reads it. An
// event is built, in the reserved slot, only when the step has work to
// do -- an arrival that wakes an idle RC, a retirement that fires a
// completion or may unblock a head waiting on the write buffer.
//
// A translation that the engine would run next anyway runs in place
// (sim::Simulator::continue_at): pump_rc() is the last thing each of
// its callers does, and every root-complex event ends by running the
// translations it chained. See DESIGN.md §8 item 9.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring.h"
#include "common/send_time_memo.h"
#include "common/units.h"
#include "iommu/iommu.h"
#include "mem/ddio.h"
#include "mem/memory_system.h"
#include "pcie/params.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc::pcie {

/// Counters for experiments and tests.
struct PcieStats {
  std::int64_t write_tlps = 0;
  std::int64_t read_tlps = 0;
  std::int64_t bytes_written = 0;   // payload bytes DMA'd to memory
  std::int64_t bytes_read = 0;      // payload bytes fetched from memory
  std::int64_t translation_stalls = 0;  // head-of-line page-walk stalls
  std::int64_t write_buffer_stalls = 0;
  std::int64_t ddio_write_hits = 0;     // DMA writes absorbed by the LLC
};

/// One PCIe link + root complex serving one NIC. When a DdioModel is
/// supplied, the root complex implements direct cache access: DMA
/// writes that hit the LLC's IO ways retire at cache latency and never
/// touch the memory bus (footnote 2 of the paper).
class PcieBus {
 public:
  /// Completion callbacks ride the per-TLP hot path; inline storage
  /// keeps them allocation-free (the NIC captures at most
  /// `[this, slot]`-sized state).
  using CompletionFn = sim::InlineCallback<void()>;

  /// `tracer`, when non-null, registers the `pcie.*` probes (all
  /// polled from the credit/queue/buffer state the bus already keeps).
  PcieBus(sim::Simulator& sim, mem::MemorySystem& mem, iommu::Iommu& iommu,
          PcieParams params, mem::DdioModel* ddio = nullptr,
          trace::Tracer* tracer = nullptr);

  PcieBus(const PcieBus&) = delete;
  PcieBus& operator=(const PcieBus&) = delete;

  [[nodiscard]] const PcieParams& params() const { return params_; }

  /// True when the NIC holds enough credits to emit a posted write TLP
  /// of `payload` bytes.
  [[nodiscard]] bool can_send_write(Bytes payload) const {
    return !credits_frozen_ && credits_free_ >= params_.tlp_wire_bytes(payload);
  }

  /// Fault hook (nic.credit_stall): while frozen the NIC sees no
  /// posted credits, emulating a root complex that stops returning
  /// them. Unfreezing notifies the credit subscriber so DMA resumes.
  void set_credit_freeze(bool frozen) {
    const bool was = credits_frozen_;
    credits_frozen_ = frozen;
    if (was && !frozen && credits_cb_) credits_cb_();
  }

  /// Emits one posted write TLP. Preconditions: can_send_write().
  /// `retired` fires when the payload has been written to host memory
  /// (used for delivery timestamps and completion-queue ordering).
  /// `pre_translated` marks a TLP whose address the device already
  /// translated via ATS; the root complex skips the IOMMU for it.
  void send_write_tlp(iommu::Iova iova, Bytes payload, CompletionFn retired,
                      bool pre_translated = false);

  /// Emits one TLP of a write burst: the TLPs of one DMA, completed as
  /// a whole. Pass `last_retired` with the burst's last TLP only: it
  /// fires once, when every TLP of the burst has retired (the latest
  /// retirement in `(time, seq)` order), and closes the burst. Other
  /// writes and reads may interleave with an open burst; bursts may
  /// not interleave with each other.
  void send_burst_tlp(iommu::Iova iova, Bytes payload, CompletionFn last_retired,
                      bool pre_translated = false);

  /// Emits one non-posted read (descriptor or Tx payload fetch) of
  /// `payload` bytes; `done` fires when the completion reaches the NIC.
  void send_read(iommu::Iova iova, Bytes payload, CompletionFn done);

  /// Registers the single credit-availability subscriber (the NIC DMA
  /// engine); invoked after credits are released.
  void on_credits_available(CompletionFn cb) { credits_cb_ = std::move(cb); }

  [[nodiscard]] Bytes credits_free() const { return credits_free_; }
  [[nodiscard]] Bytes credits_in_use() const { return params_.credit_bytes - credits_free_; }
  /// Bytes of committed writes not yet retired to memory.
  [[nodiscard]] Bytes write_buffer_used() const;
  /// TLPs that have reached the root complex and not yet left it.
  [[nodiscard]] std::size_t rc_queue_depth() const;
  [[nodiscard]] const PcieStats& stats() const { return stats_; }

 private:
  struct Tlp {
    iommu::Iova iova = 0;
    Bytes payload{};
    bool is_read = false;
    bool pre_translated = false;
    bool burst = false;  // part of the open burst (send_burst_tlp)
    CompletionFn done;
    /// Reserved slot of the link arrival.
    TimePs arrive{};
    std::uint64_t seq = 0;
  };

  /// A committed write whose retirement is not yet settled: its
  /// reserved `(time, seq)` slot.
  struct Retirement {
    TimePs time{};
    std::uint64_t seq = 0;
    Bytes payload{};
    bool built = false;  // an event exists for the slot
  };

  /// A completion waiting for the retirement slot `seq` to run.
  struct Completion {
    std::uint64_t seq = 0;
    CompletionFn done;
  };

  void send_write(Tlp&& tlp);
  /// Places a TLP on the downstream link; it reaches the RC queue
  /// after serialization + propagation.
  void transmit(Tlp&& tlp);
  [[nodiscard]] bool arrived(const Tlp& t) const { return sim_.passed(t.arrive, t.seq); }
  /// Builds the RC head's arrival event in its reserved slot.
  void arm_arrival();
  /// Starts processing the RC queue head if idle and arrived; an idle
  /// RC whose head is still on the link arms the head's arrival.
  /// Callers reach it in tail position: it may chain a translation.
  void pump_rc();
  /// Finishes the head's translation `delay` from now: in place when
  /// the engine lets it chain (chained_), else as an event.
  void translation_done_after(TimePs delay);
  /// The end of every root-complex event: runs the translations chained
  /// so far, one after another (each may chain the next; none recurses).
  void run_chained();
  /// Head TLP's translation finished; dispatch by type.
  void finish_translation();
  /// Tries to move the head posted write into the write buffer.
  void try_commit_write();
  [[nodiscard]] bool retired(const Retirement& r) const { return sim_.passed(r.time, r.seq); }
  /// Builds the event for a pending retirement in its reserved slot.
  void arm_retirement(Retirement& r);
  /// Subtracts every retirement the engine has passed from wb_used_.
  void settle_retired();
  /// The built retirement event of slot `seq`: fires the slot's
  /// completion if it has one, then retries a head waiting on the
  /// write buffer.
  void retire(std::uint64_t seq);

  sim::Simulator& sim_;
  mem::MemorySystem& mem_;
  iommu::Iommu& iommu_;
  PcieParams params_;
  mem::DdioModel* ddio_;

  Bytes credits_free_;
  bool credits_frozen_ = false;
  /// Serialization times at params_.link_rate().
  SendTimeMemo link_time_;
  TimePs link_free_at_{};
  /// Every TLP on the link or in the RC, in transmit order. Arrival
  /// times strictly increase, so the link is FIFO: the prefix whose
  /// arrival slots the engine has passed is the RC queue, and the rest
  /// is in flight.
  Ring<Tlp> rc_queue_;
  bool rc_busy_ = false;
  /// A translation is running in place of its event: run_chained()
  /// finishes it.
  bool chained_ = false;
  bool head_waiting_wb_ = false;
  /// Committed write bytes, less the retirements settled so far.
  Bytes wb_used_{};
  /// Unsettled retirements in `(time, seq)` order. Retire times are
  /// nearly monotone (memory jitter, and DDIO hits retiring early), so
  /// an insert steps back past only a few entries.
  Ring<Retirement> retiring_;
  /// Completions of built retirement events, in no order.
  std::vector<Completion> completions_;
  /// Latest retirement slot among the open burst's committed TLPs
  /// (seq 0: none yet).
  TimePs burst_time_{};
  std::uint64_t burst_seq_ = 0;
  CompletionFn credits_cb_;
  PcieStats stats_;
};

}  // namespace hicc::pcie
