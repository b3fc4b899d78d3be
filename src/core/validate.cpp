#include "core/validate.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "core/cluster.h"

namespace hicc {
namespace {

/// Collects violations with a shared field-path prefix.
class Checker {
 public:
  explicit Checker(std::vector<ConfigViolation>* out) : out_(out) {}

  void fail(std::string field, std::string message) {
    out_->push_back(ConfigViolation{std::move(field), std::move(message)});
  }

  void require(bool ok, std::string field, std::string message) {
    if (!ok) fail(std::move(field), std::move(message));
  }

 private:
  std::vector<ConfigViolation>* out_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Per-kind parameter contract of the fault script: which keys an
/// injector understands (validated so a typo like `core=8` fails loudly
/// instead of silently applying the default).
const std::set<std::string>& known_params(fault::FaultKind kind) {
  static const std::set<std::string> net_link{"leaf", "spine", "host"};
  static const std::set<std::string> net_rate{"leaf", "spine", "host", "gbps"};
  static const std::set<std::string> net_loss{"leaf", "spine", "host", "prob"};
  static const std::set<std::string> none{};
  static const std::set<std::string> squeeze{"kb"};
  static const std::set<std::string> storm{"per_us"};
  static const std::set<std::string> antagonist{"cores"};
  static const std::set<std::string> ddio{"ways"};
  static const std::set<std::string> deschedule{"threads"};
  static const std::set<std::string> churn{"flows"};
  switch (kind) {
    case fault::FaultKind::kNetLinkDown:
      return net_link;
    case fault::FaultKind::kNetRate:
      return net_rate;
    case fault::FaultKind::kNetLoss:
      return net_loss;
    case fault::FaultKind::kNicCreditStall:
      return none;
    case fault::FaultKind::kNicBufferSqueeze:
      return squeeze;
    case fault::FaultKind::kIommuStorm:
      return storm;
    case fault::FaultKind::kMemAntagonist:
      return antagonist;
    case fault::FaultKind::kMemDdioSqueeze:
      return ddio;
    case fault::FaultKind::kHostDeschedule:
      return deschedule;
    case fault::FaultKind::kTransportChurn:
      return churn;
  }
  return none;
}

/// net.* entries name a link of `topo` by its `leaf=`+`spine=` /
/// `host=` coordinates, or none for receiver 0's downlink.
void validate_fault_event(const ExperimentConfig& cfg, const fault::FaultEvent& e,
                          const std::string& where, Checker& c,
                          const net::TopologyConfig& topo) {
  c.require(e.at >= TimePs(0), where + ".at", "activation time must be >= 0");
  c.require(e.duration >= TimePs(0), where + ".duration", "duration must be >= 0");
  if (e.period != TimePs(0)) {
    c.require(e.duration > TimePs(0), where + ".period",
              "a repeating fault needs a finite window: give it a '+<duration>'");
    c.require(e.period > e.duration, where + ".period",
              "repeat period must exceed the window duration (the window must close before "
              "it reopens)");
  }

  for (const auto& [key, value] : e.params) {
    if (known_params(e.kind).count(key) == 0) {
      c.fail(where + "." + key,
             "unknown parameter for " + std::string(fault::to_string(e.kind)) +
                 " (check docs/FAULTS.md for the injector's keys)");
    }
    (void)value;
  }

  const auto has = [&e](const char* key) { return e.params.count(key) > 0; };
  const auto get = [&e](const char* key, double def) {
    const auto it = e.params.find(key);
    return it == e.params.end() ? def : it->second;
  };

  switch (e.kind) {
    case fault::FaultKind::kNetLinkDown:
    case fault::FaultKind::kNetRate:
    case fault::FaultKind::kNetLoss: {
      const double leaf = get("leaf", -1.0);
      const double spine = get("spine", -1.0);
      const double host = get("host", -1.0);
      c.require(has("leaf") == has("spine"), where + ".leaf",
                "leaf= and spine= name a leaf-spine link together; give both or neither");
      c.require(!(has("host") && (has("leaf") || has("spine"))), where + ".host",
                "host= (an edge uplink) is exclusive with leaf=/spine=");
      if (has("leaf")) {
        c.require(leaf >= 0.0 && leaf < static_cast<double>(topo.leaves) &&
                      leaf == std::floor(leaf),
                  where + ".leaf",
                  "leaf must be an index in [0, " + std::to_string(topo.leaves) + ")");
      }
      if (has("spine")) {
        c.require(spine >= 0.0 && spine < static_cast<double>(topo.spines) &&
                      spine == std::floor(spine),
                  where + ".spine",
                  "spine must be an index in [0, " + std::to_string(topo.spines) + ")");
      }
      if (has("host")) {
        c.require(host >= 0.0 && host < static_cast<double>(topo.num_hosts()) &&
                      host == std::floor(host),
                  where + ".host",
                  "host must be an index in [0, " + std::to_string(topo.num_hosts()) + ")");
      }
      if (e.kind == fault::FaultKind::kNetRate) {
        c.require(has("gbps"), where + ".gbps", "net.rate needs a target rate, e.g. gbps=25");
        c.require(get("gbps", 1.0) > 0.0, where + ".gbps",
                  "downgraded rate must be > 0 (use net.link_down for a dead link)");
      }
      if (e.kind == fault::FaultKind::kNetLoss) {
        const double prob = get("prob", 0.1);
        c.require(prob >= 0.0 && prob <= 1.0, where + ".prob",
                  "loss probability must be in [0, 1], got " + fmt(prob));
      }
      break;
    }
    case fault::FaultKind::kNicCreditStall:
      break;
    case fault::FaultKind::kNicBufferSqueeze: {
      const double kb = get("kb", 64.0);
      c.require(kb > 0.0, where + ".kb", "squeezed buffer limit must be > 0 KiB");
      c.require(Bytes::kib(kb) >= cfg.wire.data_wire(), where + ".kb",
                "squeezed buffer must still fit one wire MTU (" +
                    std::to_string(cfg.wire.data_wire().count()) + " bytes)");
      break;
    }
    case fault::FaultKind::kIommuStorm: {
      const double per_us = get("per_us", 1.0);
      c.require(per_us > 0.0, where + ".per_us", "invalidation rate must be > 0 per us");
      c.require(per_us <= 1e6, where + ".per_us",
                "invalidation rate above 1e6/us gives the storm ticker a zero period (the "
                "run watchdog would abort it as a stall)");
      break;
    }
    case fault::FaultKind::kMemAntagonist:
      c.require(get("cores", 8.0) >= 0.0, where + ".cores", "core count must be >= 0");
      break;
    case fault::FaultKind::kMemDdioSqueeze: {
      const double ways = get("ways", 1.0);
      c.require(ways >= 0.0 && ways <= static_cast<double>(cfg.ddio.llc_ways), where + ".ways",
                "squeezed way count must be in [0, llc_ways=" +
                    std::to_string(cfg.ddio.llc_ways) + "]");
      break;
    }
    case fault::FaultKind::kHostDeschedule: {
      const double threads = get("threads", 1.0);
      c.require(threads >= 1.0 && threads <= static_cast<double>(cfg.rx_threads),
                where + ".threads",
                "descheduled thread count must be in [1, rx_threads=" +
                    std::to_string(cfg.rx_threads) + "]");
      break;
    }
    case fault::FaultKind::kTransportChurn: {
      const int num_flows = cfg.num_senders * cfg.rx_threads + cfg.victim_flows;
      const double flows = get("flows", 1.0);
      c.require(flows >= 1.0 && flows <= static_cast<double>(num_flows), where + ".flows",
                "paused flow count must be in [1, num_flows=" + std::to_string(num_flows) +
                    "]");
      break;
    }
  }
}

}  // namespace

std::vector<ConfigViolation> validate(const ExperimentConfig& cfg) {
  std::vector<ConfigViolation> violations;
  Checker c(&violations);

  // Workload shape.
  c.require(cfg.num_senders >= 1, "num_senders", "need at least one sender host");
  c.require(cfg.rx_threads >= 1, "rx_threads", "need at least one receiver thread");
  c.require(cfg.read_size.count() > 0, "read_size", "RPC read size must be > 0 bytes");
  c.require(cfg.read_pipeline >= 1, "read_pipeline", "each flow needs >= 1 outstanding read");
  c.require(cfg.victim_flows >= 0, "victim_flows", "victim flow count cannot be negative");
  c.require(cfg.victim_flows == 0 || cfg.victim_read_size.count() > 0, "victim_read_size",
            "victim read size must be > 0 bytes when victim flows exist");

  // Receiver memory layout.
  c.require(cfg.data_region.count() > 0, "data_region",
            "per-thread Rx data region must be > 0 bytes");
  c.require(cfg.antagonist_cores >= 0, "antagonist_cores",
            "antagonist core count cannot be negative");

  // IOMMU geometry.
  c.require(cfg.iommu.iotlb_entries >= 1, "iommu.iotlb_entries", "IOTLB needs >= 1 entry");
  c.require(cfg.iommu.iotlb_sets >= 1, "iommu.iotlb_sets", "IOTLB needs >= 1 set");
  c.require(cfg.iommu.iotlb_sets < 1 || cfg.iommu.iotlb_entries % cfg.iommu.iotlb_sets == 0,
            "iommu.iotlb_entries",
            "entry count must divide evenly into sets (entries % sets == 0)");
  c.require(cfg.iommu.walkers >= 1, "iommu.walkers", "need >= 1 hardware page walker");

  // NIC.
  c.require(cfg.nic.input_buffer >= cfg.wire.data_wire(), "nic.input_buffer",
            "input buffer must hold at least one wire MTU (" +
                std::to_string(cfg.wire.data_wire().count()) + " bytes)");
  c.require(cfg.nic.descriptors_per_queue >= 1, "nic.descriptors_per_queue",
            "each queue needs >= 1 Rx descriptor");
  c.require(cfg.nic.descriptor_prefetch >= 1 &&
                cfg.nic.descriptor_prefetch <= cfg.nic.descriptors_per_queue,
            "nic.descriptor_prefetch",
            "prefetch depth must be in [1, descriptors_per_queue=" +
                std::to_string(cfg.nic.descriptors_per_queue) + "]");

  // PCIe.
  c.require(cfg.pcie.max_payload.count() > 0, "pcie.max_payload",
            "TLP max payload must be > 0 bytes");
  c.require(cfg.pcie.credit_bytes >= cfg.pcie.tlp_wire_bytes(cfg.pcie.max_payload),
            "pcie.credit_bytes",
            "credit pool must cover at least one max-payload TLP (" +
                std::to_string(cfg.pcie.tlp_wire_bytes(cfg.pcie.max_payload).count()) +
                " bytes), or no write can ever be admitted");
  c.require(cfg.pcie.write_buffer_bytes.count() > 0, "pcie.write_buffer_bytes",
            "root-complex write buffer must be > 0 bytes");

  // DDIO geometry.
  c.require(cfg.ddio.llc_ways >= 1, "ddio.llc_ways", "LLC needs >= 1 way");
  c.require(cfg.ddio.ddio_ways >= 0 && cfg.ddio.ddio_ways <= cfg.ddio.llc_ways,
            "ddio.ddio_ways",
            "IO ways must be in [0, llc_ways=" + std::to_string(cfg.ddio.llc_ways) + "]");

  // Fabric: the bounds validate(ClusterConfig) puts on its edge ports.
  c.require(cfg.fabric.link_rate.bps() > 0.0, "fabric.link_rate", "link rate must be > 0");
  c.require(cfg.fabric.switch_buffer >= cfg.wire.data_wire(), "fabric.switch_buffer",
            "switch port buffer must hold at least one wire MTU (" +
                std::to_string(cfg.wire.data_wire().count()) + " bytes)");
  c.require(cfg.fabric.propagation >= TimePs(0), "fabric.propagation",
            "propagation delay cannot be negative");

  // Transport.
  c.require(cfg.swift.host_target > TimePs(0), "swift.host_target",
            "Swift host delay target must be > 0");
  c.require(cfg.swift.fabric_target > TimePs(0), "swift.fabric_target",
            "Swift fabric delay target must be > 0");
  c.require(cfg.swift.max_cwnd >= cfg.swift.min_cwnd, "swift.max_cwnd",
            "max_cwnd must be >= min_cwnd");

  // Run control.
  c.require(cfg.warmup >= TimePs(0), "warmup", "warmup cannot be negative");
  c.require(cfg.measure > TimePs(0), "measure", "measurement window must be > 0");
  c.require(!cfg.trace.enabled || cfg.trace.sample_period > TimePs(0), "trace.sample_period",
            "trace sampling period must be > 0 when tracing is enabled");

  // Fault script semantics (syntax errors are caught by parse_script).
  const net::TopologyConfig topo = single_host_topology(cfg);
  for (std::size_t i = 0; i < cfg.faults.events.size(); ++i) {
    validate_fault_event(cfg, cfg.faults.events[i], "faults[" + std::to_string(i) + "]", c,
                         topo);
  }

  return violations;
}

std::vector<ConfigViolation> validate(const ClusterConfig& cfg) {
  std::vector<ConfigViolation> violations;
  Checker c(&violations);
  const net::TopologyConfig& topo = cfg.topology;

  // Topology shape.
  c.require(topo.leaves >= 1, "topology.leaves", "need at least one leaf switch");
  c.require(topo.spines >= 1, "topology.spines", "need at least one spine switch");
  c.require(topo.hosts_per_leaf >= 1, "topology.hosts_per_leaf",
            "each leaf needs at least one host");
  c.require(topo.num_hosts() >= 2, "topology.hosts_per_leaf",
            "a cluster needs >= 2 hosts (one receiver plus one sender machine)");
  c.require(topo.host_link_rate.bps() > 0.0, "topology.host_link_rate",
            "host link rate must be > 0");
  c.require(topo.fabric_link_rate.bps() > 0.0, "topology.fabric_link_rate",
            "fabric link rate must be > 0");
  c.require(topo.edge_propagation > TimePs(0), "topology.edge_propagation",
            "edge_propagation must be > 0: it is the engine's lookahead window");
  c.require(topo.fabric_propagation >= TimePs(0), "topology.fabric_propagation",
            "propagation delay cannot be negative");
  c.require(topo.edge_buffer >= cfg.host.wire.data_wire(), "topology.edge_buffer",
            "edge port buffer must hold at least one wire MTU (" +
                std::to_string(cfg.host.wire.data_wire().count()) + " bytes)");
  c.require(topo.fabric_buffer >= cfg.host.wire.data_wire(), "topology.fabric_buffer",
            "fabric port buffer must hold at least one wire MTU (" +
                std::to_string(cfg.host.wire.data_wire().count()) + " bytes)");
  c.require(cfg.receivers >= 1 && cfg.receivers < topo.num_hosts(), "receivers",
            "receiver count must be in [1, num_hosts=" + std::to_string(topo.num_hosts()) +
                "), leaving at least one sender machine");

  c.require(cfg.parallelism >= 1, "parallelism", "parallelism must be >= 1 (engine threads)");

  // Open-loop workload generation (src/workload, docs/WORKLOADS.md).
  if (cfg.workload.enabled()) {
    const workload::WorkloadParams& wl = cfg.workload;
    const int senders = std::max(1, topo.num_hosts() - cfg.receivers);
    c.require(wl.rate_per_s > 0.0 && std::isfinite(wl.rate_per_s), "workload.rate_per_s",
              "open-loop arrival rate must be positive and finite");
    c.require(wl.fanout >= 1 && wl.fanout <= senders, "workload.fanout",
              "incast fanout must be in [1, sender machines=" + std::to_string(senders) + "]");
    c.require(wl.max_active >= senders, "workload.max_active",
              "the flow pool needs at least one slot per sender machine (" +
                  std::to_string(senders) + ")");
    c.require(wl.target_flows >= 0, "workload.target_flows",
              "target_flows must be >= 0 (0 = unbounded)");
    c.require(wl.fixed_size.count() >= 1, "workload.fixed_size",
              "fixed flow size must be >= 1 byte");
    c.require(wl.sketch_relative_error > 0.0 && wl.sketch_relative_error < 0.5,
              "workload.sketch_relative_error",
              "quantile-sketch relative error must be in (0, 0.5)");
    if (wl.arrival == workload::Arrival::kBursty) {
      c.require(wl.burst_factor >= 1.0 && std::isfinite(wl.burst_factor),
                "workload.burst_factor", "burst factor must be >= 1 and finite");
      c.require(wl.burst_on_fraction > 0.0 && wl.burst_on_fraction <= 1.0,
                "workload.burst_on_fraction", "burst on-fraction must be in (0, 1]");
      c.require(wl.burst_period > TimePs(0), "workload.burst_period",
                "burst period must be > 0");
    }
    c.require(cfg.host.victim_flows == 0, "host.victim_flows",
              "victim flows are closed-loop and unavailable with an open-loop "
              "workload (use the workload's own FCT sketches instead)");
  }

  for (const int cores : cfg.antagonist_profile) {
    c.require(cores >= 0 && cores <= 64, "antagonist_profile",
              "per-receiver antagonist cores must be in [0, 64]");
  }

  // The per-host template, as ClusterExperiment will actually run it:
  // num_senders overridden by the topology, the template's fault script
  // ignored in favor of cfg.faults.
  ExperimentConfig host = cfg.host;
  host.num_senders = std::max(1, topo.num_hosts() - cfg.receivers);
  host.faults = fault::FaultScript{};
  for (ConfigViolation& v : validate(host)) {
    v.field = "host." + v.field;
    violations.push_back(std::move(v));
  }

  for (std::size_t i = 0; i < cfg.faults.events.size(); ++i) {
    validate_fault_event(host, cfg.faults.events[i], "faults[" + std::to_string(i) + "]", c,
                         topo);
  }

  return violations;
}

std::vector<ConfigViolation> validate(const SupervisorParams& params) {
  std::vector<ConfigViolation> violations;
  Checker c(&violations);
  c.require(params.point_timeout_s >= 0.0, "supervisor.point_timeout_s",
            "per-point timeout cannot be negative (0 disables it)");
  c.require(std::isfinite(params.point_timeout_s), "supervisor.point_timeout_s",
            "per-point timeout must be finite");
  c.require(params.max_attempts >= 1, "supervisor.max_attempts",
            "every point needs at least one attempt");
  c.require(params.backoff_base_s >= 0.0 && std::isfinite(params.backoff_base_s),
            "supervisor.backoff_base_s", "backoff base must be finite and >= 0");
  c.require(params.backoff_cap_s >= params.backoff_base_s &&
                std::isfinite(params.backoff_cap_s),
            "supervisor.backoff_cap_s", "backoff cap must be finite and >= the base");
  return violations;
}

std::string describe(const std::vector<ConfigViolation>& violations) {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << '\n';
    os << violations[i].field << ": " << violations[i].message;
  }
  return os.str();
}

}  // namespace hicc
