// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "pcie/pcie_bus.h"

#include <cassert>
#include <utility>

namespace hicc::pcie {

PcieBus::PcieBus(sim::Simulator& sim, mem::MemorySystem& mem, iommu::Iommu& iommu,
                 PcieParams params, mem::DdioModel* ddio, trace::Tracer* tracer)
    : sim_(sim),
      mem_(mem),
      iommu_(iommu),
      params_(params),
      ddio_(ddio),
      credits_free_(params.credit_bytes) {
  if (tracer != nullptr) {
    // All polled: the sampler reads flow-control state the bus already
    // maintains, so the per-TLP path carries no tracing work.
    tracer->gauge("pcie.credits_in_use", "bytes",
                  [this] { return static_cast<double>(credits_in_use().count()); });
    tracer->gauge("pcie.rc_queue_depth", "tlps",
                  [this] { return static_cast<double>(rc_arrived_); });
    tracer->gauge("pcie.write_buffer_bytes", "bytes",
                  [this] { return static_cast<double>(wb_used_.count()); });
    tracer->counter("pcie.translation_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.translation_stalls); });
    tracer->counter("pcie.write_buffer_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.write_buffer_stalls); });
  }
}

void PcieBus::send_write_tlp(iommu::Iova iova, Bytes payload, CompletionFn retired,
                             bool pre_translated) {
  assert(can_send_write(payload));
  credits_free_ -= params_.tlp_wire_bytes(payload);
  ++stats_.write_tlps;
  transmit(Tlp{iova, payload, /*is_read=*/false, pre_translated, std::move(retired)});
}

void PcieBus::send_read(iommu::Iova iova, Bytes payload, CompletionFn done) {
  ++stats_.read_tlps;
  // Read requests carry no data downstream; only the header goes on
  // the wire. (Non-posted credits are not modeled: descriptor/ACK
  // traffic is far below the non-posted credit limits.)
  transmit(Tlp{iova, payload, /*is_read=*/true, /*pre_translated=*/false, std::move(done)});
}

void PcieBus::transmit(Tlp tlp) {
  const Bytes wire =
      tlp.is_read ? params_.tlp_overhead : params_.tlp_wire_bytes(tlp.payload);
  const TimePs start = std::max(link_free_at_, sim_.now());
  link_free_at_ = start + params_.link_rate().time_to_send(wire);
  rc_queue_.push_back(std::move(tlp));
  sim_.at(link_free_at_ + params_.link_latency, [this] {
    ++rc_arrived_;
    pump_rc();
  });
}

void PcieBus::pump_rc() {
  if (rc_busy_ || rc_arrived_ == 0) return;
  rc_busy_ = true;
  const Tlp& head = rc_queue_.front();
  if (head.pre_translated) {
    // ATS: the address was translated on the device; no IOMMU work and
    // no possible head-of-line walk stall.
    sim_.after(params_.tlp_proc_time, [this] { finish_translation(); });
    return;
  }
  if (const auto fast = iommu_.try_translate(head.iova)) {
    sim_.after(params_.tlp_proc_time + *fast, [this] { finish_translation(); });
  } else {
    // Head-of-line page walk: everything behind waits (posted writes
    // cannot pass each other), and the credits of every queued TLP
    // stay captive until the walk resolves.
    ++stats_.translation_stalls;
    iommu_.translate_slow(head.iova, [this] {
      sim_.after(params_.tlp_proc_time + params_.walk_overhead,
                 [this] { finish_translation(); });
    });
  }
}

void PcieBus::finish_translation() {
  assert(rc_busy_ && rc_arrived_ > 0);
  Tlp& head = rc_queue_.front();
  if (head.is_read) {
    stats_.bytes_read += head.payload.count();
    const TimePs lat = mem_.request(mem::MemClass::kNicDma, head.payload, /*is_read=*/true);
    auto done = std::move(head.done);
    rc_queue_.pop_front();
    --rc_arrived_;
    rc_busy_ = false;
    // Completion returns over the upstream link.
    sim_.after(lat + params_.link_latency, std::move(done));
    pump_rc();
    return;
  }
  try_commit_write();
}

void PcieBus::try_commit_write() {
  assert(rc_busy_ && rc_arrived_ > 0);
  Tlp& head = rc_queue_.front();
  if (wb_used_ + head.payload > params_.write_buffer_bytes) {
    // Memory is not draining fast enough: park until a write retires.
    if (!head_waiting_wb_) {
      head_waiting_wb_ = true;
      ++stats_.write_buffer_stalls;
    }
    return;
  }
  head_waiting_wb_ = false;
  const Bytes payload = head.payload;
  auto done = std::move(head.done);
  rc_queue_.pop_front();
  --rc_arrived_;
  rc_busy_ = false;

  // The TLP has left the receive queue: its flow-control credits are
  // released back to the NIC.
  credits_free_ += params_.tlp_wire_bytes(payload);
  assert(credits_free_ <= params_.credit_bytes);

  wb_used_ += payload;
  stats_.bytes_written += payload.count();
  // DDIO: writes that land in the LLC's IO ways retire at cache
  // latency and place no load on the memory bus.
  TimePs lat;
  if (ddio_ != nullptr && ddio_->enabled() && ddio_->write_hits()) {
    ++stats_.ddio_write_hits;
    lat = ddio_->params().llc_write_latency;
  } else {
    lat = mem_.request(mem::MemClass::kNicDma, payload, /*is_read=*/false);
  }
  sim_.after(lat, [this, payload, done = std::move(done)] {
    wb_used_ -= payload;
    if (done) done();
    if (head_waiting_wb_) try_commit_write();
  });

  if (credits_cb_) credits_cb_();
  pump_rc();
}

}  // namespace hicc::pcie
