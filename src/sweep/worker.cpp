#include "sweep/worker.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/fmt.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/script.h"
#include "sweep/sweep.h"

namespace hicc::sweep {
namespace {

/// Spec-line writer: one `key=value` per line, doubles through the
/// round-trip formatter so parse_point_spec restores them exactly. One
/// put() per value type the config visitor yields (core/config.h).
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
  void put(const char* key, const char* v) { os_ << key << '=' << v << '\n'; }
  void put(const char* key, const std::string& v) { put(key, v.c_str()); }
  void put(const char* key, Bytes v) { put(key, v.count()); }
  void put(const char* key, TimePs v) { put(key, v.us()); }
  void put(const char* key, transport::CcAlgorithm v) { put(key, transport::to_string(v)); }
  void put(const char* key, const fault::FaultScript& v) { put(key, v.to_spec()); }
  template <class T>
  void put(const char* key, SpecOnly<T> v) { put(key, v.value); }

 private:
  std::ostream& os_;
};

/// Every config key, the run-control ones included, in visitor order.
void write_host_lines(SpecWriter& w, const ExperimentConfig& cfg) {
  for_each_field(cfg, [&w](const char* key, const auto& v) { w.put(key, v); });
}

/// Parses spec values into typed fields, one read() per value type the
/// config visitor yields; a malformed value leaves its field untouched
/// and reports through `fail`.
template <class Fail>
class SpecReader {
 public:
  explicit SpecReader(Fail fail) : fail_(fail) {}

  void read(const std::string& v, std::int64_t& dst) {
    char* end = nullptr;
    errno = 0;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      fail_("expected an integer, got '" + v + "'");
      return;
    }
    dst = n;
  }
  void read(const std::string& v, std::uint64_t& dst) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      fail_("expected an unsigned integer, got '" + v + "'");
      return;
    }
    dst = n;
  }
  void read(const std::string& v, int& dst) {
    std::int64_t n = dst;
    read(v, n);
    dst = static_cast<int>(n);
  }
  void read(const std::string& v, double& dst) {
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(v.c_str(), &end);
    if (errno != 0 || end == v.c_str() || *end != '\0') {
      fail_("expected a number, got '" + v + "'");
      return;
    }
    dst = d;
  }
  void read(const std::string& v, bool& dst) {
    if (v == "0" || v == "1") {
      dst = v == "1";
    } else {
      fail_("expected 0 or 1, got '" + v + "'");
    }
  }
  void read(const std::string& v, Bytes& dst) {
    std::int64_t n = dst.count();
    read(v, n);
    dst = Bytes(n);
  }
  void read(const std::string& v, TimePs& dst) {
    double us = dst.us();
    read(v, us);
    dst = TimePs::from_us(us);
  }
  void read(const std::string& v, transport::CcAlgorithm& dst) {
    if (!transport::cc_from_string(v.c_str(), &dst)) fail_("unknown cc '" + v + "'");
  }
  void read(const std::string& v, fault::FaultScript& dst) {
    if (v.empty()) return;
    fault::ParseResult parsed = fault::parse_script(v);
    if (!parsed.ok()) {
      for (const auto& err : parsed.errors) fail_("faults: " + err);
    } else {
      dst = std::move(parsed.script);
    }
  }
  template <class T>
  void read(const std::string& v, SpecOnly<T> dst) { read(v, dst.value); }

 private:
  Fail fail_;
};

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
  return os.str();
}

std::string cluster_point_spec(const ClusterConfig& cfg, std::size_t index) {
  // The spec's one `faults=` line carries the cluster-scope script.
  ExperimentConfig host = cfg.host;
  host.faults = cfg.faults;
  std::ostringstream os;
  SpecWriter w(os);
  w.put("index", static_cast<std::uint64_t>(index));
  write_host_lines(w, host);
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
  SpecReader reader(fail);

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

    bool host_key = false;
    for_each_field(spec.host, [&](const char* name, auto&& field) {
      if (host_key || key != name) return;
      host_key = true;
      reader.read(value, field);
    });
    if (host_key) continue;

    if (key == "index") {
      reader.read(value, spec.index);
    } else if (key == "attempt") {
      reader.read(value, spec.attempt);
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
      reader.read(value, spec.receivers);
    } else if (key == "ecmp_seed") {
      reader.read(value, spec.ecmp_seed);
    } else if (key == "host_gbps") {
      reader.read(value, spec.host_gbps);
    } else if (key == "fabric_gbps") {
      reader.read(value, spec.fabric_gbps);
    } else if (key == "parallelism") {
      reader.read(value, spec.parallelism);
    } else if (key == "mailbox_capacity") {
      reader.read(value, spec.mailbox_capacity);
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
      points = cluster_points(exp, cm, spec.index);
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
