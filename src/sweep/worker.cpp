#include "sweep/worker.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/fmt.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/script.h"
#include "sweep/sweep.h"

namespace hicc::sweep {
namespace {

/// Spec-line writer: one `key=value` per line, doubles through the
/// round-trip formatter so parse_point_spec restores them exactly.
class SpecWriter {
 public:
  explicit SpecWriter(std::ostream& os) : os_(os) { os_ << "hicc.point.v1\n"; }
  void put(const char* key, double v) {
    os_ << key << '=';
    put_double(os_, v);
    os_ << '\n';
  }
  void put(const char* key, std::int64_t v) { os_ << key << '=' << v << '\n'; }
  void put(const char* key, std::uint64_t v) { os_ << key << '=' << v << '\n'; }
  void put(const char* key, int v) { os_ << key << '=' << v << '\n'; }
  void put(const char* key, bool v) { os_ << key << '=' << (v ? 1 : 0) << '\n'; }
  void put(const char* key, const std::string& v) { os_ << key << '=' << v << '\n'; }

 private:
  std::ostream& os_;
};

/// The shared single-host surface of both spec forms -- exactly the
/// fields hicc.sweep.v1 serializes (sweep.cpp write_config) plus
/// watchdog and trace run control.
void write_host_lines(SpecWriter& w, const ExperimentConfig& cfg) {
  w.put("num_senders", cfg.num_senders);
  w.put("rx_threads", cfg.rx_threads);
  w.put("read_size_bytes", cfg.read_size.count());
  w.put("read_pipeline", cfg.read_pipeline);
  w.put("iommu_enabled", cfg.iommu_enabled);
  w.put("hugepages", cfg.hugepages);
  w.put("data_region_bytes", cfg.data_region.count());
  w.put("antagonist_cores", cfg.antagonist_cores);
  w.put("antagonist_throttle_gbps", cfg.antagonist_throttle_gbps);
  w.put("antagonist_remote_numa", cfg.antagonist_remote_numa);
  w.put("ats_enabled", cfg.ats_enabled);
  w.put("strict_iommu", cfg.strict_iommu);
  w.put("ddio_enabled", cfg.ddio.enabled);
  w.put("victim_flows", cfg.victim_flows);
  w.put("victim_read_size_bytes", cfg.victim_read_size.count());
  w.put("cc", std::string(transport::to_string(cfg.cc)));
  w.put("swift_host_target_us", cfg.swift.host_target.us());
  w.put("iotlb_entries", cfg.iommu.iotlb_entries);
  w.put("nic_buffer_bytes", cfg.nic.input_buffer.count());
  w.put("pcie_gigatransfers_per_lane", cfg.pcie.gigatransfers_per_lane);
  w.put("warmup_us", cfg.warmup.us());
  w.put("measure_us", cfg.measure.us());
  w.put("seed", cfg.seed);
  w.put("max_events", cfg.watchdog.max_events);
  w.put("max_events_per_timestamp", cfg.watchdog.max_events_per_timestamp);
  w.put("trace_enabled", cfg.trace.enabled);
  w.put("trace_period_us", cfg.trace.sample_period.us());
}

/// Runs the injected failure, if any. Returns -1 to continue with the
/// real point, or an exit code ("exit:N"). The process-killing modes
/// do not return; this is the sanctioned seam where a worker may die
/// on purpose (tests + CI drive it; docs/ROBUSTNESS.md).
int apply_inject(const std::string& inject, int attempt) {
  if (inject.empty()) return -1;
  const auto arg = [&inject]() -> int {
    const auto colon = inject.find(':');
    return colon == std::string::npos
               ? 0
               : static_cast<int>(std::strtol(inject.c_str() + colon + 1, nullptr, 10));
  };
  const std::string mode = inject.substr(0, inject.find(':'));
  if (mode == "flaky-segv" || mode == "flaky-kill") {
    if (attempt >= arg()) return -1;  // recovered on this attempt
    std::raise(mode == "flaky-segv" ? SIGSEGV : SIGKILL);
  } else if (mode == "segv") {
    std::raise(SIGSEGV);
  } else if (mode == "abort") {
    std::abort();
  } else if (mode == "kill") {
    std::raise(SIGKILL);
  } else if (mode == "hang") {
    // Sleep far past any sane --point-timeout; the supervisor SIGKILLs.
    while (true) {
      timespec ts{3600, 0};
      ::nanosleep(&ts, nullptr);
    }
  } else if (mode == "exit") {
    return arg();
  }
  return -1;  // unreachable for the killing modes
}

}  // namespace

ClusterConfig PointSpec::cluster() const {
  ClusterConfig cfg;
  cfg.host = host;
  // Cluster scripts live at cluster scope (topology targeting); the
  // spec's single `faults=` line carries them there.
  cfg.faults = cfg.host.faults;
  cfg.host.faults = fault::FaultScript{};
  // Metrics-only records: per-host trace harvesting stays an
  // in-process --topology feature.
  cfg.host.trace.enabled = false;
  cfg.topology.leaves = leaves;
  cfg.topology.spines = spines;
  cfg.topology.hosts_per_leaf = leaves > 0 ? hosts / leaves : hosts;
  cfg.topology.ecmp_seed = ecmp_seed;
  cfg.topology.host_link_rate = BitRate::gbps(host_gbps);
  cfg.topology.fabric_link_rate = BitRate::gbps(fabric_gbps);
  cfg.receivers = receivers;
  cfg.parallelism = parallelism;
  cfg.mailbox_capacity = mailbox_capacity;
  return cfg;
}

std::string point_spec(const ExperimentConfig& cfg, std::size_t index) {
  std::ostringstream os;
  SpecWriter w(os);
  w.put("index", static_cast<std::uint64_t>(index));
  write_host_lines(w, cfg);
  w.put("faults", cfg.faults.to_spec());
  return os.str();
}

std::string cluster_point_spec(const ClusterConfig& cfg, std::size_t index) {
  std::ostringstream os;
  SpecWriter w(os);
  w.put("index", static_cast<std::uint64_t>(index));
  write_host_lines(w, cfg.host);
  w.put("faults", cfg.faults.to_spec());
  std::ostringstream topo;
  topo << cfg.topology.leaves << 'x' << cfg.topology.spines << 'x'
       << cfg.topology.leaves * cfg.topology.hosts_per_leaf;
  w.put("topology", topo.str());
  w.put("receivers", cfg.receivers);
  w.put("ecmp_seed", cfg.topology.ecmp_seed);
  w.put("host_gbps", cfg.topology.host_link_rate.bps() / 1e9);
  w.put("fabric_gbps", cfg.topology.fabric_link_rate.bps() / 1e9);
  w.put("parallelism", cfg.parallelism);
  w.put("mailbox_capacity", static_cast<std::uint64_t>(cfg.mailbox_capacity));
  return os.str();
}

SpecParse parse_point_spec(const std::string& text) {
  SpecParse out;
  PointSpec& spec = out.spec;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "hicc.point.v1") {
    out.errors.push_back("line 1: expected the 'hicc.point.v1' header");
    return out;
  }

  int lineno = 1;
  const auto fail = [&out, &lineno](const std::string& what) {
    out.errors.push_back("line " + std::to_string(lineno) + ": " + what);
  };
  const auto as_i64 = [&fail](const std::string& v, std::int64_t* dst) {
    char* end = nullptr;
    errno = 0;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      fail("expected an integer, got '" + v + "'");
      return;
    }
    *dst = n;
  };
  const auto as_u64 = [&fail](const std::string& v, std::uint64_t* dst) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      fail("expected an unsigned integer, got '" + v + "'");
      return;
    }
    *dst = n;
  };
  const auto as_int = [&as_i64](const std::string& v, int* dst) {
    std::int64_t n = *dst;
    as_i64(v, &n);
    *dst = static_cast<int>(n);
  };
  const auto as_dbl = [&fail](const std::string& v, double* dst) {
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(v.c_str(), &end);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      fail("expected a number, got '" + v + "'");
      return;
    }
    *dst = d;
  };
  const auto as_bool = [&fail](const std::string& v, bool* dst) {
    if (v == "0" || v == "1") {
      *dst = v == "1";
    } else {
      fail("expected 0 or 1, got '" + v + "'");
    }
  };
  const auto as_bytes = [&as_i64](const std::string& v, Bytes* dst) {
    std::int64_t n = dst->count();
    as_i64(v, &n);
    *dst = Bytes(n);
  };
  const auto as_us = [&as_dbl](const std::string& v, TimePs* dst) {
    double us = dst->us();
    as_dbl(v, &us);
    *dst = TimePs::from_us(us);
  };

  ExperimentConfig& cfg = spec.host;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail("expected key=value, got '" + line + "'");
      continue;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    if (key == "index") {
      std::uint64_t v = 0;
      as_u64(value, &v);
      spec.index = static_cast<std::size_t>(v);
    } else if (key == "attempt") {
      as_int(value, &spec.attempt);
      if (spec.attempt < 1) fail("attempt must be >= 1");
    } else if (key == "inject") {
      static constexpr const char* kModes[] = {"segv", "abort",      "kill",
                                               "hang", "exit",       "flaky-segv",
                                               "flaky-kill"};
      const std::string mode = value.substr(0, value.find(':'));
      bool known = value.empty();
      for (const char* m : kModes) known = known || mode == m;
      if (!known) fail("unknown inject mode '" + value + "'");
      spec.inject = value;
    } else if (key == "num_senders") {
      as_int(value, &cfg.num_senders);
    } else if (key == "rx_threads") {
      as_int(value, &cfg.rx_threads);
    } else if (key == "read_size_bytes") {
      as_bytes(value, &cfg.read_size);
    } else if (key == "read_pipeline") {
      as_int(value, &cfg.read_pipeline);
    } else if (key == "iommu_enabled") {
      as_bool(value, &cfg.iommu_enabled);
    } else if (key == "hugepages") {
      as_bool(value, &cfg.hugepages);
    } else if (key == "data_region_bytes") {
      as_bytes(value, &cfg.data_region);
    } else if (key == "antagonist_cores") {
      as_int(value, &cfg.antagonist_cores);
    } else if (key == "antagonist_throttle_gbps") {
      as_dbl(value, &cfg.antagonist_throttle_gbps);
    } else if (key == "antagonist_remote_numa") {
      as_bool(value, &cfg.antagonist_remote_numa);
    } else if (key == "ats_enabled") {
      as_bool(value, &cfg.ats_enabled);
    } else if (key == "strict_iommu") {
      as_bool(value, &cfg.strict_iommu);
    } else if (key == "ddio_enabled") {
      as_bool(value, &cfg.ddio.enabled);
    } else if (key == "victim_flows") {
      as_int(value, &cfg.victim_flows);
    } else if (key == "victim_read_size_bytes") {
      as_bytes(value, &cfg.victim_read_size);
    } else if (key == "cc") {
      if (!transport::cc_from_string(value.c_str(), &cfg.cc)) fail("unknown cc '" + value + "'");
    } else if (key == "swift_host_target_us") {
      as_us(value, &cfg.swift.host_target);
    } else if (key == "iotlb_entries") {
      as_int(value, &cfg.iommu.iotlb_entries);
    } else if (key == "nic_buffer_bytes") {
      as_bytes(value, &cfg.nic.input_buffer);
    } else if (key == "pcie_gigatransfers_per_lane") {
      as_dbl(value, &cfg.pcie.gigatransfers_per_lane);
    } else if (key == "warmup_us") {
      as_us(value, &cfg.warmup);
    } else if (key == "measure_us") {
      as_us(value, &cfg.measure);
    } else if (key == "seed") {
      as_u64(value, &cfg.seed);
    } else if (key == "max_events") {
      as_u64(value, &cfg.watchdog.max_events);
    } else if (key == "max_events_per_timestamp") {
      as_u64(value, &cfg.watchdog.max_events_per_timestamp);
    } else if (key == "trace_enabled") {
      as_bool(value, &cfg.trace.enabled);
    } else if (key == "trace_period_us") {
      as_us(value, &cfg.trace.sample_period);
    } else if (key == "faults") {
      if (!value.empty()) {
        fault::ParseResult parsed = fault::parse_script(value);
        if (!parsed.ok()) {
          for (const auto& err : parsed.errors) fail("faults: " + err);
        } else {
          cfg.faults = std::move(parsed.script);
        }
      }
    } else if (key == "topology") {
      int leaves = 0, spines = 0, hosts = 0;
      char excess = '\0';
      if (std::sscanf(value.c_str(), "%dx%dx%d%c", &leaves, &spines, &hosts, &excess) != 3 ||
          leaves <= 0 || hosts <= 0 || hosts % leaves != 0) {
        fail("bad topology '" + value + "' (want LxSxH with H divisible by L)");
      } else {
        spec.is_cluster = true;
        spec.leaves = leaves;
        spec.spines = spines;
        spec.hosts = hosts;
      }
    } else if (key == "receivers") {
      as_int(value, &spec.receivers);
    } else if (key == "ecmp_seed") {
      as_u64(value, &spec.ecmp_seed);
    } else if (key == "host_gbps") {
      as_dbl(value, &spec.host_gbps);
    } else if (key == "fabric_gbps") {
      as_dbl(value, &spec.fabric_gbps);
    } else if (key == "parallelism") {
      as_int(value, &spec.parallelism);
    } else if (key == "mailbox_capacity") {
      std::uint64_t v = 0;
      as_u64(value, &v);
      spec.mailbox_capacity = static_cast<std::size_t>(v);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  return out;
}

int run_point_worker(std::istream& in, std::ostream& out, std::ostream& err) {
  std::ostringstream buf;
  buf << in.rdbuf();
  SpecParse parsed = parse_point_spec(buf.str());
  if (!parsed.ok()) {
    err << "bad hicc.point.v1 spec:\n";
    for (const auto& e : parsed.errors) err << "  " << e << '\n';
    return kExitFaultParse;
  }
  PointSpec& spec = parsed.spec;

  if (const int injected = apply_inject(spec.inject, spec.attempt); injected >= 0) {
    return injected;
  }

  try {
    std::vector<SweepResult> points;
    if (spec.is_cluster) {
      ClusterConfig cfg = spec.cluster();
      if (const auto violations = validate(cfg); !violations.empty()) {
        err << "invalid point configuration:\n" << describe(violations) << '\n';
        return kExitConfigInvalid;
      }
      ClusterExperiment exp(std::move(cfg));
      const ClusterMetrics cm = exp.run();
      points.resize(static_cast<std::size_t>(exp.num_receivers()));
      for (int r = 0; r < exp.num_receivers(); ++r) {
        SweepResult& p = points[static_cast<std::size_t>(r)];
        p.index = spec.index + static_cast<std::size_t>(r);
        p.config = exp.config().host;
        p.metrics = cm.per_receiver[static_cast<std::size_t>(r)];
        p.extra["host"] = r;
        p.extra["cluster.port_drops"] =
            static_cast<double>(exp.fabric().host_port_drops(r));
        p.extra["cluster.port_queue_bytes"] =
            static_cast<double>(exp.fabric().host_queue(r).count());
      }
    } else {
      ExperimentConfig& cfg = spec.host;
      if (const auto violations = validate(cfg); !violations.empty()) {
        err << "invalid point configuration:\n" << describe(violations) << '\n';
        return kExitConfigInvalid;
      }
      points.resize(1);
      SweepResult& p = points.front();
      p.index = spec.index;
      p.config = cfg;
      Experiment exp(p.config);
      p.metrics = exp.run();
      // Same harvest the in-process sweep path applies to traced
      // replicas, so isolated and in-process records carry the same
      // extra.trace.* keys.
      if (cfg.trace.enabled) harvest_trace(exp, p);
    }
    // wall_seconds stays 0.0 on every element: a worker record is a
    // pure function of its spec, which is what lets a resumed sweep be
    // bitwise identical to an uninterrupted one.
    write_json(points, out);
    out.flush();
    return kExitOk;
  } catch (const std::exception& e) {
    err << "point worker failed: " << e.what() << '\n';
    return kExitUsage;
  }
}

}  // namespace hicc::sweep
