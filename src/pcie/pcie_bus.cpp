// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "pcie/pcie_bus.h"

#include <algorithm>
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
      credits_free_(params.credit_bytes),
      link_time_(params.link_rate()) {
  // Completions pending at once: about one per packet in the write
  // buffer, plus its CQ entry; more grow once.
  completions_.reserve(16);
  if (tracer != nullptr) {
    // All polled: the sampler reads flow-control state the bus already
    // maintains, so the per-TLP path carries no tracing work.
    tracer->gauge("pcie.credits_in_use", "bytes",
                  [this] { return static_cast<double>(credits_in_use().count()); });
    tracer->gauge("pcie.rc_queue_depth", "tlps",
                  [this] { return static_cast<double>(rc_queue_depth()); });
    tracer->gauge("pcie.write_buffer_bytes", "bytes",
                  [this] { return static_cast<double>(write_buffer_used().count()); });
    tracer->counter("pcie.translation_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.translation_stalls); });
    tracer->counter("pcie.write_buffer_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.write_buffer_stalls); });
  }
}

Bytes PcieBus::write_buffer_used() const {
  Bytes used = wb_used_;
  for (std::size_t i = 0; i < retiring_.size() && retired(retiring_[i]); ++i) {
    used -= retiring_[i].payload;
  }
  return used;
}

std::size_t PcieBus::rc_queue_depth() const {
  std::size_t n = 0;
  while (n < rc_queue_.size() && arrived(rc_queue_[n])) ++n;
  return n;
}

void PcieBus::send_write_tlp(iommu::Iova iova, Bytes payload, CompletionFn retired,
                             bool pre_translated) {
  send_write(Tlp{iova, payload, /*is_read=*/false, pre_translated, /*burst=*/false,
                 std::move(retired)});
}

void PcieBus::send_burst_tlp(iommu::Iova iova, Bytes payload, CompletionFn last_retired,
                             bool pre_translated) {
  send_write(Tlp{iova, payload, /*is_read=*/false, pre_translated, /*burst=*/true,
                 std::move(last_retired)});
}

void PcieBus::send_write(Tlp&& tlp) {
  assert(can_send_write(tlp.payload));
  credits_free_ -= params_.tlp_wire_bytes(tlp.payload);
  ++stats_.write_tlps;
  transmit(std::move(tlp));
}

void PcieBus::send_read(iommu::Iova iova, Bytes payload, CompletionFn done) {
  ++stats_.read_tlps;
  // Read requests carry no data downstream; only the header goes on
  // the wire. (Non-posted credits are not modeled: descriptor/ACK
  // traffic is far below the non-posted credit limits.)
  transmit(Tlp{iova, payload, /*is_read=*/true, /*pre_translated=*/false, /*burst=*/false,
               std::move(done)});
}

void PcieBus::transmit(Tlp&& tlp) {
  const Bytes wire =
      tlp.is_read ? params_.tlp_overhead : params_.tlp_wire_bytes(tlp.payload);
  const TimePs start = std::max(link_free_at_, sim_.now());
  link_free_at_ = start + link_time_.time_to_send(wire);
  tlp.arrive = link_free_at_ + params_.link_latency;
  tlp.seq = sim_.reserve_seq();
  rc_queue_.push_back(std::move(tlp));
  // An arrival only has work to do when it reaches an idle RC. A busy
  // RC finds its next TLP through passed(); pump_rc() arms the head
  // itself when the RC goes idle with the head still on the link.
  if (!rc_busy_ && rc_queue_.size() == 1) arm_arrival();
}

void PcieBus::arm_arrival() {
  const Tlp& head = rc_queue_.front();
  sim_.at_reserved(head.arrive, head.seq, [this] {
    pump_rc();
    run_chained();
  });
}

void PcieBus::pump_rc() {
  if (rc_busy_ || rc_queue_.empty()) return;
  const Tlp& head = rc_queue_.front();
  if (!arrived(head)) {
    arm_arrival();
    return;
  }
  rc_busy_ = true;
  if (head.pre_translated) {
    // ATS: the address was translated on the device; no IOMMU work and
    // no possible head-of-line walk stall.
    translation_done_after(params_.tlp_proc_time);
    return;
  }
  if (const iommu::Iommu::FastPath fast = iommu_.translate_fast(head.iova); fast.translated) {
    translation_done_after(params_.tlp_proc_time + fast.latency);
  } else {
    // Head-of-line page walk: everything behind waits (posted writes
    // cannot pass each other), and the credits of every queued TLP
    // stay captive until the walk resolves. The walk's callback runs in
    // an IOMMU event, so its translation stays an event.
    ++stats_.translation_stalls;
    iommu_.translate_slow(head.iova, [this] {
      sim_.after(params_.tlp_proc_time + params_.walk_overhead, [this] {
        finish_translation();
        run_chained();
      });
    });
  }
}

void PcieBus::translation_done_after(TimePs delay) {
  assert(!chained_);
  if (sim_.continue_at(sim_.now() + delay)) {
    chained_ = true;
    return;
  }
  sim_.after(delay, [this] {
    finish_translation();
    run_chained();
  });
}

void PcieBus::run_chained() {
  while (chained_) {
    chained_ = false;
    finish_translation();
  }
}

void PcieBus::finish_translation() {
  assert(rc_busy_ && !rc_queue_.empty());
  Tlp& head = rc_queue_.front();
  if (head.is_read) {
    stats_.bytes_read += head.payload.count();
    const TimePs lat = mem_.request(mem::MemClass::kNicDma, head.payload, /*is_read=*/true);
    auto done = std::move(head.done);
    rc_queue_.pop_front();
    rc_busy_ = false;
    // Completion returns over the upstream link.
    sim_.after(lat + params_.link_latency, std::move(done));
    pump_rc();
    return;
  }
  try_commit_write();
}

void PcieBus::try_commit_write() {
  assert(rc_busy_ && !rc_queue_.empty());
  settle_retired();
  Tlp& head = rc_queue_.front();
  if (wb_used_ + head.payload > params_.write_buffer_bytes) {
    // Memory is not draining fast enough: park until a write retires.
    if (!head_waiting_wb_) {
      head_waiting_wb_ = true;
      ++stats_.write_buffer_stalls;
    }
    // Only a retirement makes room, and the earliest comes first: it
    // must be an event to retry the head.
    if (!retiring_.empty() && !retiring_.front().built) arm_retirement(retiring_.front());
    return;
  }
  head_waiting_wb_ = false;
  const Bytes payload = head.payload;
  const bool burst = head.burst;
  auto done = std::move(head.done);
  rc_queue_.pop_front();

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
  // The retirement takes the slot an event scheduled here would get.
  const TimePs time = sim_.now() + std::max(lat, TimePs{});
  const std::uint64_t seq = sim_.reserve_seq();
  std::uint64_t fire = seq;
  if (burst) {
    // Seqs only grow, so a retirement no earlier than the burst's
    // latest so far is the new latest.
    if (burst_seq_ == 0 || time >= burst_time_) {
      burst_time_ = time;
      burst_seq_ = seq;
    }
    fire = burst_seq_;
    if (done) burst_seq_ = 0;  // the last TLP closes the burst
  }
  // Written field by field into its sorted place (GCC builds an
  // aggregate temporary on the stack and copies it out with overlapping
  // 16-byte moves). Its seq is the newest, so only a pending retirement
  // at a later time sorts after it.
  std::size_t at = retiring_.size();
  while (at > 0 && retiring_[at - 1].time > time) --at;
  retiring_.emplace_back();
  for (std::size_t i = retiring_.size() - 1; i > at; --i) retiring_[i] = retiring_[i - 1];
  Retirement& r = retiring_[at];
  r.time = time;
  r.seq = seq;
  r.payload = payload;
  r.built = false;
  if (done) {
    // The RC commits in order, so a burst's latest retirement is known
    // at its last commit, and it is still pending: it is no earlier
    // than this one.
    for (std::size_t i = retiring_.size(); i-- > 0;) {
      Retirement& p = retiring_[i];
      if (p.seq != fire) continue;
      if (!p.built) arm_retirement(p);
      break;
    }
    completions_.push_back(Completion{fire, std::move(done)});
  }

  if (credits_cb_) credits_cb_();
  // Idle only now: a TLP sent from the credit callback queues behind
  // the new head instead of arming an arrival of its own.
  rc_busy_ = false;
  pump_rc();
}

void PcieBus::arm_retirement(Retirement& r) {
  r.built = true;
  sim_.at_reserved(r.time, r.seq, [this, seq = r.seq] {
    retire(seq);
    run_chained();
  });
}

void PcieBus::settle_retired() {
  while (!retiring_.empty() && retired(retiring_.front())) {
    wb_used_ -= retiring_.front().payload;
    retiring_.pop_front();
  }
}

void PcieBus::retire(std::uint64_t seq) {
  // Only try_commit_write() reads wb_used_, and it settles first.
  for (Completion& c : completions_) {
    if (c.seq != seq) continue;
    const CompletionFn done = std::move(c.done);
    c = std::move(completions_.back());
    completions_.pop_back();
    done();
    break;
  }
  if (head_waiting_wb_) try_commit_write();
}

}  // namespace hicc::pcie
