#include "core/experiment.h"

#include <cassert>

namespace hicc {

Experiment::Experiment(ExperimentConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  cfg_.iommu.enabled = cfg_.iommu_enabled;

  if (cfg_.trace.enabled) tracer_ = std::make_unique<trace::Tracer>(sim_, cfg_.trace);

  // The factory builds the full stack (memory pair, antagonist,
  // receiver) in the canonical fork order; ClusterExperiment runs the
  // identical path once per host, which is what makes the degenerate
  // one-leaf parity bitwise rather than coincidental.
  HostFactory factory(sim_);
  FullHost host = factory.make_full_host(cfg_, cfg_.num_senders, rng_, tracer_.get());
  mem_ = std::move(host.mem);
  remote_mem_ = std::move(host.remote_mem);
  antagonist_ = std::move(host.antagonist);
  receiver_ = std::move(host.receiver);

  // Host 0 is the receiver, host 1+i sender i (single_host_topology).
  fabric_ = std::make_unique<net::ClosFabric>(
      sim_, single_host_topology(cfg_), [this](int h, net::Packet p) {
        if (h == 0) {
          receiver_->on_arrival(std::move(p));
        } else {
          senders_[static_cast<std::size_t>(h - 1)]->on_packet(p);
        }
      });

  senders_.reserve(static_cast<std::size_t>(cfg_.num_senders));
  for (int i = 0; i < cfg_.num_senders; ++i) {
    senders_.push_back(std::make_unique<transport::SenderHost>(
        sim_, i, cfg_.wire,
        [this, i](net::Packet p) {
          p.dst = 0;
          return fabric_->send_from_host(1 + i, std::move(p));
        },
        rng_.fork()));
  }
  // Every controller feeds the same delay histograms, registered once
  // where the first controller is built.
  const transport::SwiftProbes probes = receiver_->num_flows() > 0
                                            ? swift_probes(cfg_, tracer_.get())
                                            : transport::SwiftProbes{};
  for (std::int32_t flow = 0; flow < receiver_->num_flows(); ++flow) {
    senders_[static_cast<std::size_t>(receiver_->sender_of_flow(flow))]->add_flow(
        flow, make_congestion_control(sim_, cfg_, probes));
  }

  // ACKs and read requests carry the sender index they address.
  receiver_->set_transmit([this](net::Packet p) {
    p.dst = 1 + p.sender;
    return fabric_->send_from_host(0, std::move(p));
  });

  if (tracer_ != nullptr) {
    tracer_->gauge("transport.cwnd_avg", "packets", [this] {
      double sum = 0.0;
      std::int64_t flows = 0;
      for (const auto& sender : senders_) {
        for (const auto& [id, flow] : sender->flows()) {
          sum += flow->cwnd();
          ++flows;
        }
      }
      return flows > 0 ? sum / static_cast<double>(flows) : 0.0;
    });
  }

  sim_.set_watchdog(cfg_.watchdog);

  // Last on purpose: the engine forks the experiment RNG after every
  // component has taken its stream, and scripts with no due events
  // schedule nothing that executes -- so an idle engine leaves the run
  // bitwise identical to one without it (tests/fault_test.cpp).
  if (!cfg_.faults.empty()) {
    fault_engine_ = std::make_unique<fault::FaultEngine>(
        sim_, cfg_.faults,
        fault::FaultTargets{.fabric = fabric_.get(),
                            .receiver = receiver_.get(),
                            .antagonist = antagonist_.get()},
        rng_.fork(), tracer_.get());
  }
}

Experiment::~Experiment() = default;

void Experiment::start() {
  if (started_) return;
  started_ = true;
  if (tracer_ != nullptr) tracer_->start();
  receiver_->start();
}

void Experiment::advance(TimePs dt) { sim_.run_until(sim_.now() + dt); }

HostHarvestSources Experiment::harvest_sources() const {
  HostHarvestSources src;
  src.sim = &sim_;
  src.receiver = receiver_.get();
  src.mem = mem_.get();
  src.remote_mem = remote_mem_.get();
  src.senders.reserve(senders_.size());
  for (const auto& sender : senders_) src.senders.push_back(sender.get());
  src.fault_engine = fault_engine_.get();
  src.wire = cfg_.wire;
  src.link_rate = cfg_.fabric.link_rate;
  return src;
}

void Experiment::begin_window() {
  window_start_ = snapshot_host_counters(harvest_sources(), fabric_->fabric_drops());
  window_start_time_ = sim_.now();
  mem_->begin_window();
  remote_mem_->begin_window();
  receiver_->begin_window();
}

Metrics Experiment::snapshot() const {
  return harvest_host_window(harvest_sources(), window_start_, window_start_time_,
                             fabric_->fabric_drops());
}

Metrics Experiment::run() {
  start();
  sim_.run_until(cfg_.warmup);
  begin_window();
  sim_.run_until(cfg_.warmup + cfg_.measure);
  return snapshot();
}

}  // namespace hicc
