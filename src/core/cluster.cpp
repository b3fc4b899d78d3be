#include "core/cluster.h"

#include <algorithm>
#include <utility>

#include "workload/engine.h"

namespace hicc {

ClusterConfig degenerate_cluster(const ExperimentConfig& cfg) {
  ClusterConfig c;
  c.host = cfg;
  c.topology = single_host_topology(cfg);
  c.receivers = 1;
  c.sender_stack_streams = false;
  return c;
}

ClusterExperiment::ClusterExperiment(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.host.seed),
      // Partition 0 the fabric interior, 1+h host h; the edge-link
      // propagation is the conservative lookahead.
      engine_({.partitions = 1 + cfg_.topology.num_hosts(),
               .lookahead = cfg_.topology.edge_propagation,
               .threads = cfg_.parallelism,
               .mailbox_capacity = cfg_.mailbox_capacity > 0
                                       ? cfg_.mailbox_capacity
                                       : sim::ParallelParams{}.mailbox_capacity}) {
  receivers_ = cfg_.receivers;
  senders_per_receiver_ = cfg_.topology.num_hosts() - receivers_;
  cfg_.host.num_senders = senders_per_receiver_;
  cfg_.host.iommu.enabled = cfg_.host.iommu_enabled;
  cfg_.host.faults = fault::FaultScript{};  // cluster script is cfg_.faults
  engine_.set_barrier_hook(sim::InlineAction([this] { on_barrier(); }));

  if (cfg_.host.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(simulator(), cfg_.host.trace);
  }

  fabric_ = std::make_unique<net::ClosFabric>(
      engine_, cfg_.topology, [this](int h, net::Packet p) { dispatch(h, std::move(p)); });

  // Receiver stacks first, then the sender-stack streams, then the
  // serving transports -- a fixed fork order so equal seeds reproduce
  // bitwise, and so the K=1 case without sender-stack streams forks
  // exactly like the legacy Experiment (mem, remote mem, receiver,
  // senders 0..M-1).
  // Construction is always single-threaded; each host's components
  // simply schedule on its partition simulator, so the fork order (and
  // hence every RNG stream) is thread-count independent.
  const bool open_loop = cfg_.workload.enabled();
  groups_.reserve(static_cast<std::size_t>(receivers_));
  for (int r = 0; r < receivers_; ++r) {
    const trace::Tracer::ScopedPrefix prefix(tracer_.get(), trace::host_prefix(r));
    const HostFactory factory(host_sim(r));
    ExperimentConfig host_cfg = cfg_.host;
    if (!cfg_.antagonist_profile.empty()) {
      host_cfg.antagonist_cores = cfg_.antagonist_profile[static_cast<std::size_t>(r) %
                                                          cfg_.antagonist_profile.size()];
    }
    ReceiverGroup group;
    group.host = factory.make_full_host(host_cfg, senders_per_receiver_, rng_, tracer_.get(),
                                        open_loop, cfg_.workload.max_active);
    groups_.push_back(std::move(group));
  }
  if (cfg_.sender_stack_streams) {
    for (int s = 0; s < senders_per_receiver_; ++s) HostFactory::skip_full_host(rng_);
  }

  sender_ports_.resize(static_cast<std::size_t>(senders_per_receiver_));
  for (int r = 0; r < receivers_; ++r) {
    ReceiverGroup& group = groups_[static_cast<std::size_t>(r)];
    host::ReceiverHost& recv = *group.host.receiver;
    for (int s = 0; s < senders_per_receiver_; ++s) {
      const int g = receivers_ + s;
      const trace::Tracer::ScopedPrefix prefix(tracer_.get(), trace::host_prefix(g));
      sender_ports_[static_cast<std::size_t>(s)].push_back(
          std::make_unique<transport::SenderHost>(
              host_sim(g), s, cfg_.host.wire,
              [this, g, r](net::Packet p) {
                p.dst = r;
                return fabric_->send_from_host(g, std::move(p));
              },
              rng_.fork()));
      group.senders.push_back(sender_ports_[static_cast<std::size_t>(s)].back().get());
    }
    if (open_loop) {
      // Dynamic flows: sender-side state is created lazily on the
      // first read request for each slot (then reused by every later
      // occupancy). Controllers skip per-flow trace probes -- factory
      // creation happens mid-run, and probe registration must stay
      // construction-time-only.
      for (int s = 0; s < senders_per_receiver_; ++s) {
        const int g = receivers_ + s;
        group.senders[static_cast<std::size_t>(s)]->set_flow_factory(
            [this, g](std::int32_t) {
              return make_congestion_control(host_sim(g), cfg_.host, nullptr);
            });
      }
    } else {
      for (std::int32_t flow = 0; flow < recv.num_flows(); ++flow) {
        const int s = recv.sender_of_flow(flow);
        const int g = receivers_ + s;
        // The controller's shared transport.* histograms are prefixed
        // per sender machine: flows on different machines observe from
        // different partitions, and host<g>.transport.* keeps every
        // histogram single-writer.
        const trace::Tracer::ScopedPrefix prefix(tracer_.get(), trace::host_prefix(g));
        group.senders[static_cast<std::size_t>(s)]->add_flow(
            flow, make_congestion_control(host_sim(g), cfg_.host, tracer_.get()));
      }
    }
    recv.set_transmit([this, r](net::Packet p) {
      // `p.sender` is the receiver-local sender index the packet is
      // addressed to; route to that machine and stamp the receiver's
      // index in its place so the sender machine can dispatch to its
      // per-receiver transport (SenderHost never reads p.sender).
      p.dst = receivers_ + p.sender;
      p.sender = r;
      return fabric_->send_from_host(r, std::move(p));
    });
  }

  if (open_loop) {
    // One arrival engine per receiver, forked in receiver order right
    // after the transports (still ahead of the fault engine, which
    // must stay last). Each engine lives on its receiver's partition
    // simulator, so parallel runs stay bitwise deterministic.
    workload_engines_.reserve(static_cast<std::size_t>(receivers_));
    const std::int64_t target = cfg_.workload.target_flows;
    for (int r = 0; r < receivers_; ++r) {
      const trace::Tracer::ScopedPrefix prefix(tracer_.get(), trace::host_prefix(r));
      workload::WorkloadEngine::Wiring w;
      w.sim = &host_sim(r);
      w.receiver = groups_[static_cast<std::size_t>(r)].host.receiver.get();
      w.num_senders = senders_per_receiver_;
      w.receiver_index = r;
      w.target_flows =
          target > 0 ? target / receivers_ + (r < target % receivers_ ? 1 : 0) : 0;
      // Ideal-FCT baseline for slowdowns: the 4-hop propagation round
      // trip plus size / host-link rate (docs/WORKLOADS.md).
      w.base_rtt = TimePs(4 * (cfg_.topology.edge_propagation.ps() +
                               cfg_.topology.fabric_propagation.ps()));
      w.link_rate = cfg_.topology.host_link_rate;
      workload_engines_.push_back(std::make_unique<workload::WorkloadEngine>(
          cfg_.workload, w, rng_.fork(), tracer_.get()));
    }
  }

  if (tracer_ != nullptr) {
    for (int r = 0; r < receivers_; ++r) {
      tracer_->counter(trace::host_probe(r, "cluster.port_drops"), "packets",
                       [this, r] { return static_cast<double>(fabric_->host_port_drops(r)); });
      tracer_->gauge(trace::host_probe(r, "cluster.port_queue_bytes"), "bytes",
                     [this, r] { return static_cast<double>(fabric_->host_queue(r).count()); });
    }
    tracer_->gauge("transport.cwnd_avg", "packets", [this] {
      double sum = 0.0;
      std::int64_t flows = 0;
      for (const auto& per_receiver : sender_ports_) {
        for (const auto& sender : per_receiver) {
          for (const auto& [id, flow] : sender->flows()) {
            sum += flow->cwnd();
            ++flows;
          }
        }
      }
      return flows > 0 ? sum / static_cast<double>(flows) : 0.0;
    });
  }

  // Watchdogs guard each partition independently (deterministic per
  // partition); the engine stops the whole run at the barrier after
  // any trips.
  for (int p = 0; p < engine_.partitions(); ++p) {
    engine_.sim(p).set_watchdog(cfg_.host.watchdog);
  }

  // Last on purpose, exactly like Experiment: the fault engine forks
  // the cluster RNG after every component has taken its stream. Its
  // home is receiver 0's partition (host injectors, drop accounting);
  // net.* entries also run on their link's partition.
  if (!cfg_.faults.empty()) {
    fault::FaultTargets targets;
    targets.fabric = fabric_.get();
    targets.receiver = groups_[0].host.receiver.get();
    targets.antagonist = groups_[0].host.antagonist.get();
    fault_engine_ = std::make_unique<fault::FaultEngine>(host_sim(0), cfg_.faults, targets,
                                                         rng_.fork(), tracer_.get());
  }
}

ClusterExperiment::~ClusterExperiment() = default;

void ClusterExperiment::dispatch(int host, net::Packet p) {
  if (host < receivers_) {
    groups_[static_cast<std::size_t>(host)].host.receiver->on_arrival(std::move(p));
    return;
  }
  // Reverse-path traffic (ACK / read request / host signal): p.sender
  // carries the originating receiver's index.
  sender_ports_[static_cast<std::size_t>(host - receivers_)][static_cast<std::size_t>(p.sender)]
      ->on_packet(p);
}

HostHarvestSources ClusterExperiment::harvest_sources(int r) const {
  const ReceiverGroup& group = groups_[static_cast<std::size_t>(r)];
  HostHarvestSources src;
  src.sim = &host_sim(r);
  src.receiver = group.host.receiver.get();
  src.mem = group.host.mem.get();
  src.remote_mem = group.host.remote_mem.get();
  src.senders = group.senders;
  src.fault_engine = fault_engine_.get();
  src.wire = cfg_.host.wire;
  src.link_rate = cfg_.topology.host_link_rate;
  return src;
}

void ClusterExperiment::start() {
  if (started_) return;
  started_ = true;
  if (tracer_ != nullptr) {
    // Sampling runs from the window-barrier hook instead of a
    // PeriodicTask (a mid-window sample would read partitions that are
    // executing); barrier instants are thread-count independent, so
    // trace output stays bitwise deterministic.
    tracer_->start(/*arm_sampler=*/false);
    next_sample_ = engine_.now() + tracer_->params().sample_period;
  }
  for (auto& group : groups_) group.host.receiver->start();
  for (auto& engine : workload_engines_) engine->start();
}

void ClusterExperiment::on_barrier() {
  if (tracer_ == nullptr || !started_) return;
  if (engine_.now() >= next_sample_) {
    tracer_->sample_now();
    // One sample per barrier, stamped at the barrier time; catch up the
    // schedule if a window spanned several periods.
    while (next_sample_ <= engine_.now()) {
      next_sample_ = next_sample_ + tracer_->params().sample_period;
    }
  }
}

void ClusterExperiment::begin_window() {
  window_start_time_ = simulator().now();
  fabric_window_start_ = fabric_->fabric_drops();
  for (int r = 0; r < receivers_; ++r) {
    ReceiverGroup& group = groups_[static_cast<std::size_t>(r)];
    group.window_start = snapshot_host_counters(harvest_sources(r), fabric_->host_port_drops(r));
    group.host.mem->begin_window();
    group.host.remote_mem->begin_window();
    group.host.receiver->begin_window();
    if (!workload_engines_.empty()) {
      workload_engines_[static_cast<std::size_t>(r)]->begin_window();
    }
  }
}

ClusterMetrics ClusterExperiment::snapshot() const {
  ClusterMetrics cm;
  cm.per_receiver.reserve(static_cast<std::size_t>(receivers_));
  for (int r = 0; r < receivers_; ++r) {
    const ReceiverGroup& group = groups_[static_cast<std::size_t>(r)];
    cm.per_receiver.push_back(harvest_host_window(harvest_sources(r), group.window_start,
                                                  window_start_time_,
                                                  fabric_->host_port_drops(r)));
  }
  for (const Metrics& m : cm.per_receiver) {
    cm.total_app_throughput_gbps += m.app_throughput_gbps;
    cm.total_nic_buffer_drops += m.nic_buffer_drops;
    cm.total_data_packets_sent += m.data_packets_sent;
    cm.max_host_delay_p99_us = std::max(cm.max_host_delay_p99_us, m.host_delay_p99_us);
  }
  cm.total_fabric_drops = fabric_->fabric_drops() - fabric_window_start_;
  if (!workload_engines_.empty()) {
    WorkloadMetrics& wm = cm.workload;
    wm.enabled = true;
    wm.fct_us = QuantileSketch(cfg_.workload.sketch_relative_error);
    wm.slowdown = QuantileSketch(cfg_.workload.sketch_relative_error);
    wm.host_delay_us = QuantileSketch(cfg_.workload.sketch_relative_error);
    // Fixed receiver order; sketch merges are exact, so this equals
    // one sketch fed by every receiver's stream regardless of
    // partitioning (the --parallel=N determinism probe).
    for (const auto& engine : workload_engines_) {
      const workload::WorkloadWindow& win = engine->window();
      wm.flows_started += win.flows_started;
      wm.flows_completed += win.flows_completed;
      wm.pool_exhausted += win.pool_exhausted;
      wm.collectives_completed += win.collectives_completed;
      wm.active_flows += engine->active_flows();
      wm.fct_us.merge(engine->fct_us());
      wm.slowdown.merge(engine->slowdown());
      wm.host_delay_us.merge(engine->host_delay_us());
    }
    wm.fct_p50_us = wm.fct_us.quantile(0.5);
    wm.fct_p99_us = wm.fct_us.quantile(0.99);
    wm.fct_p999_us = wm.fct_us.quantile(0.999);
    wm.slowdown_p50 = wm.slowdown.quantile(0.5);
    wm.slowdown_p99 = wm.slowdown.quantile(0.99);
    wm.slowdown_p999 = wm.slowdown.quantile(0.999);
    wm.host_delay_p50_us = wm.host_delay_us.quantile(0.5);
    wm.host_delay_p99_us = wm.host_delay_us.quantile(0.99);
    wm.host_delay_p999_us = wm.host_delay_us.quantile(0.999);
  }
  if (!cm.per_receiver.empty()) cm.simulated_seconds = cm.per_receiver[0].simulated_seconds;
  // Run-global figures span every partition; per-receiver Metrics
  // carry the same run-global values (matching the legacy contract
  // that events_executed/run_status are not per-host quantities).
  cm.partitions = engine_.partitions();
  cm.parallel_windows = engine_.windows();
  cm.parallel_messages = engine_.messages_delivered();
  cm.events_executed = engine_.executed_total();
  const int fa = engine_.first_aborted_partition();
  cm.run_status = fa >= 0 ? to_run_status(engine_.sim(fa).abort_cause()) : RunStatus::kOk;
  for (Metrics& m : cm.per_receiver) {
    m.events_executed = cm.events_executed;
    m.run_status = cm.run_status;
    if (fa >= 0) m.run_status_detail = engine_.sim(fa).abort_reason();
  }
  return cm;
}

ClusterMetrics ClusterExperiment::run() {
  start();
  engine_.run_until(cfg_.host.warmup);
  begin_window();
  engine_.run_until(cfg_.host.warmup + cfg_.host.measure);
  return snapshot();
}

}  // namespace hicc
