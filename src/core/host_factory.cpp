#include "core/host_factory.h"

#include "transport/swift.h"

namespace hicc {

std::unique_ptr<transport::CongestionControl> make_congestion_control(
    sim::Simulator& sim, const ExperimentConfig& cfg, trace::Tracer* tracer) {
  switch (cfg.cc) {
    case transport::CcAlgorithm::kSwift:
      return std::make_unique<transport::SwiftCc>(sim, cfg.swift,
                                                  /*react_to_host_signal=*/false, tracer);
    case transport::CcAlgorithm::kTcpLike:
      return std::make_unique<transport::TcpLikeCc>(sim);
    case transport::CcAlgorithm::kHostSignal:
      return std::make_unique<transport::SwiftCc>(sim, cfg.swift,
                                                  /*react_to_host_signal=*/true, tracer);
  }
  return nullptr;
}

host::ReceiverParams HostFactory::receiver_params(const ExperimentConfig& cfg, bool open_loop,
                                                  int open_loop_slots) {
  host::ReceiverParams rp;
  rp.threads = cfg.rx_threads;
  rp.data_region = cfg.data_region;
  rp.hugepages = cfg.hugepages;
  rp.iommu = cfg.iommu;
  rp.iommu.enabled = cfg.iommu_enabled;
  rp.pcie = cfg.pcie;
  rp.nic = cfg.nic;
  rp.nic.ats_enabled = cfg.ats_enabled;
  rp.nic.strict_invalidation = cfg.strict_iommu;
  rp.thread = cfg.thread;
  rp.ddio = cfg.ddio;
  rp.copy_read_fraction = cfg.copy_read_fraction;
  rp.read_size = cfg.read_size;
  rp.read_pipeline = cfg.read_pipeline;
  rp.victim_flows = cfg.victim_flows;
  rp.victim_read_size = cfg.victim_read_size;
  rp.send_host_signals = (cfg.cc == transport::CcAlgorithm::kHostSignal);
  if (open_loop) {
    rp.open_loop = true;
    rp.open_loop_slots = open_loop_slots;
    rp.victim_flows = 0;  // victims are closed-loop by definition
  }
  return rp;
}

FullHost HostFactory::make_full_host(const ExperimentConfig& cfg, int num_senders, Rng& rng,
                                     trace::Tracer* tracer, bool open_loop,
                                     int open_loop_slots) const {
  FullHost h;
  // Probes cover the NIC-local NUMA node only; the remote node's
  // mem.* probes would collide by name and it is idle in most setups.
  h.mem = std::make_unique<mem::MemorySystem>(sim_, cfg.dram, rng.fork(), TimePs::from_us(5),
                                              tracer);
  h.remote_mem = std::make_unique<mem::MemorySystem>(sim_, cfg.dram, rng.fork());
  // §4: scheduling the memory-hungry application on the NUMA node the
  // NIC is NOT attached to removes it from the contended bus entirely.
  mem::MemorySystem& antagonist_node = cfg.antagonist_remote_numa ? *h.remote_mem : *h.mem;
  h.antagonist = std::make_unique<mem::StreamAntagonist>(antagonist_node, cfg.antagonist,
                                                         cfg.antagonist_cores);
  if (cfg.antagonist_throttle_gbps > 0.0) {
    antagonist_node.set_class_throttle(
        mem::MemClass::kAntagonist, BitRate::gigabytes_per_sec(cfg.antagonist_throttle_gbps));
  }
  h.receiver = std::make_unique<host::ReceiverHost>(
      sim_, *h.mem, receiver_params(cfg, open_loop, open_loop_slots), num_senders, cfg.wire,
      rng.fork(), tracer);
  return h;
}

void HostFactory::skip_full_host(Rng& rng) {
  // mem, remote mem, receiver: make_full_host()'s three forks.
  for (int i = 0; i < 3; ++i) (void)rng.fork();
}

HostCounterSnapshot snapshot_host_counters(const HostHarvestSources& src,
                                           std::int64_t fabric_drops) {
  HostCounterSnapshot s;
  s.iotlb_misses = src.receiver->iommu().stats().misses;
  s.iotlb_lookups = src.receiver->iommu().stats().lookups;
  s.nic_arrivals = src.receiver->nic().stats().arrivals;
  s.nic_drops = src.receiver->nic().stats().buffer_drops;
  s.delivered = src.receiver->nic().stats().delivered;
  s.fabric_drops = fabric_drops;
  s.translation_stalls = src.receiver->pcie().stats().translation_stalls;
  s.wb_stalls = src.receiver->pcie().stats().write_buffer_stalls;
  s.hol_stalls = src.receiver->nic().stats().hol_descriptor_stalls;
  for (const transport::SenderHost* sender : src.senders) {
    for (const auto& [id, flow] : sender->flows()) {
      s.data_sent += flow->stats().data_packets_sent;
      s.retransmits += flow->stats().retransmits;
      s.rto_fires += flow->stats().rto_fires;
    }
  }
  return s;
}

RunStatus to_run_status(sim::AbortCause cause) {
  switch (cause) {
    case sim::AbortCause::kNone: return RunStatus::kOk;
    case sim::AbortCause::kEventBudget: return RunStatus::kEventBudget;
    case sim::AbortCause::kTimestampStall: return RunStatus::kStalled;
    case sim::AbortCause::kMailboxOverflow: return RunStatus::kMailboxOverflow;
  }
  return RunStatus::kOk;
}

Metrics harvest_host_window(const HostHarvestSources& src,
                            const HostCounterSnapshot& window_start,
                            TimePs window_start_time, std::int64_t fabric_drops_now) {
  const HostCounterSnapshot now = snapshot_host_counters(src, fabric_drops_now);
  const double secs = (src.sim->now() - window_start_time).sec();
  Metrics m;
  m.simulated_seconds = secs;
  m.events_executed = src.sim->executed();
  m.run_status = to_run_status(src.sim->abort_cause());
  m.run_status_detail = src.sim->abort_reason();
  if (src.fault_engine != nullptr) {
    const fault::FaultReport fr = src.fault_engine->report();
    m.fault_windows = fr.windows;
    m.fault_drops = fr.drops;
    m.fault_active_us = fr.active_us;
    m.fault_blind_us = fr.blind_us;
  }
  if (secs <= 0.0) return m;

  const auto& win = src.receiver->window();
  m.app_throughput_gbps = static_cast<double>(win.processed_bytes) * 8.0 / secs * 1e-9;

  const std::int64_t arrivals = now.nic_arrivals - window_start.nic_arrivals;
  const double wire_bits = static_cast<double>(arrivals) * src.wire.data_wire().bits();
  m.link_utilization = wire_bits / secs / src.link_rate.bps();

  m.delivered_packets = win.processed_packets;
  m.nic_buffer_drops = now.nic_drops - window_start.nic_drops;
  m.fabric_drops = now.fabric_drops - window_start.fabric_drops;
  m.data_packets_sent = (now.data_sent - window_start.data_sent) +
                        (now.retransmits - window_start.retransmits);
  m.retransmits = now.retransmits - window_start.retransmits;
  m.rto_fires = now.rto_fires - window_start.rto_fires;
  m.drop_rate = m.data_packets_sent > 0 ? static_cast<double>(m.nic_buffer_drops) /
                                              static_cast<double>(m.data_packets_sent)
                                        : 0.0;

  m.iotlb_misses = now.iotlb_misses - window_start.iotlb_misses;
  m.iotlb_lookups = now.iotlb_lookups - window_start.iotlb_lookups;
  const std::int64_t delivered_delta = now.delivered - window_start.delivered;
  m.iotlb_misses_per_packet =
      delivered_delta > 0
          ? static_cast<double>(m.iotlb_misses) / static_cast<double>(delivered_delta)
          : 0.0;

  m.memory = src.mem->window_report();
  m.remote_memory = src.remote_mem->window_report();
  m.host_delay_p50_us = win.host_delay_us.percentile(50);
  m.host_delay_p99_us = win.host_delay_us.percentile(99);
  m.host_delay_max_us = win.host_delay_us.max_value();
  m.victim_reads = win.victim_read_us.count();
  m.victim_read_p50_us = win.victim_read_us.percentile(50);
  m.victim_read_p99_us = win.victim_read_us.percentile(99);

  m.pcie_translation_stalls = now.translation_stalls - window_start.translation_stalls;
  m.pcie_write_buffer_stalls = now.wb_stalls - window_start.wb_stalls;
  m.hol_descriptor_stalls = now.hol_stalls - window_start.hol_stalls;

  double cwnd_sum = 0.0;
  std::int64_t flows = 0;
  for (const transport::SenderHost* sender : src.senders) {
    for (const auto& [id, flow] : sender->flows()) {
      cwnd_sum += flow->cwnd();
      ++flows;
    }
  }
  m.avg_cwnd = flows > 0 ? cwnd_sum / static_cast<double>(flows) : 0.0;
  return m;
}

}  // namespace hicc
