// hicc_perfbench: the repository benchmark program (perfbench/README.md).
//
//   hicc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--short] [--out-dir DIR] [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 repeats the workload for S seconds with span tracing off
// and reports the end-to-end metrics. --trace 1 adds isolated layer
// call timings and span-traced repetitions, and reports the per-layer
// metrics. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every repetition passed its checks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "layer_calls.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Fingerprints pinned at the seed build: the default seed, one
/// held-out seed never used while tuning, and the short mode the
/// benchmark's own test runs. host_telemetry pins equal host_incast's
/// because probe tracing may change only the event count.
struct Pin {
  Workload workload;
  bool short_mode;
  std::uint64_t seed;
  std::uint64_t fingerprint;
};
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 4242;
constexpr Pin kPins[] = {
    {Workload::kHostIncast, false, kDefaultSeed, 0x21a6d658d80954c2ULL},
    {Workload::kHostIncast, false, kHeldOutSeed, 0xb46e2ad36a2bca3cULL},
    {Workload::kHostIncast, true, kDefaultSeed, 0x104e32390f39dd10ULL},
    {Workload::kClosOpenloop, false, kDefaultSeed, 0x3024562c4f886247ULL},
    {Workload::kClosOpenloop, false, kHeldOutSeed, 0xcaea38eca67d646fULL},
    {Workload::kClosOpenloop, true, kDefaultSeed, 0x765c41be83f6ed8bULL},
    {Workload::kHostTelemetry, false, kDefaultSeed, 0x21a6d658d80954c2ULL},
    {Workload::kHostTelemetry, false, kHeldOutSeed, 0xb46e2ad36a2bca3cULL},
    {Workload::kHostTelemetry, true, kDefaultSeed, 0x104e32390f39dd10ULL},
};

struct Args {
  Workload workload = Workload::kHostIncast;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hicc_perfbench: %s\n"
               "usage: hicc_perfbench --workload host_incast|clos_openloop|host_telemetry\n"
               "         --seed N --seconds S --trace 0|1 [--short] [--out-dir DIR]\n"
               "         [--git-sha SHA] [--src-digest HEX]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--short") {
      a.short_mode = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      if (!workload_from_string(value, &a.workload)) usage(("unknown workload " + value).c_str());
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else if (key == "--src-digest") {
      a.src_digest = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `v` (copied), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The fastest sample. Other tenants of a shared machine only ever add
/// time, so set-up and layer timings report the fastest of their samples
/// (and run_s the fastest of each slice, see SliceFloor).
double fastest(const std::vector<double>& v) { return quantile(v, 0.0); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The fastest host time seen for each simulated slice over repetitions
/// of one config. The repetitions simulate identical slices, so the sum
/// is the run's host time with as much of the other tenants' load taken
/// out of each slice as any repetition managed; the load comes and goes
/// within a repetition, so this is steadier than the fastest repetition.
class SliceFloor {
 public:
  /// Folds in one repetition; false when its slices do not line up.
  bool add(const RepResult& r) {
    if (slice_s_.empty()) {
      slice_s_ = r.slice_s;
      finish_s_ = r.finish_s;
      return !slice_s_.empty();
    }
    if (r.slice_s.size() != slice_s_.size()) return false;
    for (std::size_t i = 0; i < slice_s_.size(); ++i) {
      slice_s_[i] = std::min(slice_s_[i], r.slice_s[i]);
    }
    finish_s_ = std::min(finish_s_, r.finish_s);
    return true;
  }

  [[nodiscard]] double run_s() const {
    double sum = finish_s_;
    for (const double s : slice_s_) sum += s;
    return sum;
  }

 private:
  std::vector<double> slice_s_;
  double finish_s_ = 0.0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every repetition's fingerprint must equal the pinned value for this
/// (workload, mode, seed) when there is one, else the first passing
/// repetition's.
class FingerprintCheck {
 public:
  FingerprintCheck(Workload w, bool short_mode, std::uint64_t seed) {
    for (const Pin& p : kPins) {
      if (p.workload == w && p.short_mode == short_mode && p.seed == seed) {
        expected_ = p.fingerprint;
        pinned_ = true;
      }
    }
  }

  /// Records one repetition; returns false when it counts as failed.
  bool record(const RepResult& r, const char* phase) {
    ++attempted_;
    if (r.ok && !have_) {
      if (!pinned_) expected_ = r.fingerprint;
      have_ = true;
    }
    if (r.ok && r.fingerprint == expected_) return true;
    ++failed_;
    std::fprintf(stderr, "%s repetition failed: %s\n", phase,
                 r.ok ? "fingerprint mismatch" : r.error.c_str());
    std::fprintf(stderr, "  fingerprint 0x%016llx, expected 0x%016llx%s\n",
                 static_cast<unsigned long long>(r.fingerprint),
                 static_cast<unsigned long long>(expected_), pinned_ ? " (pinned)" : "");
    return false;
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t expected() const { return expected_; }
  [[nodiscard]] bool pinned() const { return pinned_; }

 private:
  std::uint64_t expected_ = 0;
  bool pinned_ = false;
  bool have_ = false;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Folds a passing repetition into `floor`, then records it; returns
/// false when it counts as failed.
bool record(FingerprintCheck& fp, SliceFloor& floor, RepResult& r, const char* phase) {
  if (r.ok && !floor.add(r)) {
    r.ok = false;
    r.error = "slices do not line up with the first repetition's";
  }
  return fp.record(r, phase);
}

RepResult failure(std::string error) {
  RepResult r;
  r.error = std::move(error);
  return r;
}

void print_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

void print_context(const Args& a, const FingerprintCheck& fp, double ref_spin_ns) {
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"short\": %s, "
      "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\", \"ref_spin_ns\": ",
      to_string(a.workload), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      a.short_mode ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN), HICC_BENCH_COMPILER,
      HICC_BENCH_BUILD_TYPE, a.git_sha.c_str(), a.src_digest.c_str());
  print_number(ref_spin_ns);
  std::printf(", \"fingerprint\": \"0x%016llx\", \"pinned\": %s}}\n",
              static_cast<unsigned long long>(fp.expected()), fp.pinned() ? "true" : "false");
}

/// Human-readable lines, then the context record, then the result.
void report(const Args& a, const FingerprintCheck& fp, double ref_spin_ns,
            const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s ", m.name.c_str());
    print_number(m.value);
    std::printf(" %s\n", m.unit.c_str());
  }
  print_context(a, fp, ref_spin_ns);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              fp.failed() == 0 && fp.attempted() > 0 ? "true" : "false",
              static_cast<long long>(fp.attempted()), static_cast<long long>(fp.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", metrics[i].name.c_str());
    print_number(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// --trace 0: set-up samples, then untraced repetitions until the time
/// is spent.
std::vector<Metric> end_to_end(const Args& a, const RepOptions& opts, FingerprintCheck& fp) {
  const auto t0 = Clock::now();
  // Set-up takes well under a millisecond on the single-host workloads,
  // so it is sampled many times: 2% of the budget, at least 10 samples.
  std::vector<double> setup_s;
  while (setup_s.size() < 10 || since(t0) < 0.02 * a.seconds) {
    const double s = setup_only(opts);
    if (s < 0) {
      std::fprintf(stderr, "set-up failed\n");
      fp.record(failure("set-up failed"), "set-up");
      break;
    }
    setup_s.push_back(s);
  }

  const int min_reps = a.short_mode ? 1 : 3;
  std::vector<double> run_s;
  SliceFloor floor;
  std::int64_t delivered = 0;
  for (int rep = 0;; ++rep) {
    const auto rep_t0 = Clock::now();
    RepResult r = run_rep(opts, nullptr);
    const double rep_wall = since(rep_t0);
    std::fprintf(stderr, "rep %d: setup %.6f s, run %.4f s, cpu %.4f s, %llu events\n", rep,
                 r.setup_s(), r.run_s, r.cpu_s, static_cast<unsigned long long>(r.counts.events));
    if (record(fp, floor, r, "untraced")) {
      setup_s.push_back(r.setup_s());
      run_s.push_back(r.run_s);
      delivered = r.counts.delivered;
    }
    if (rep + 1 >= min_reps && since(t0) + rep_wall > a.seconds) break;
  }
  std::fprintf(stderr,
               "run_s over %zu repetitions: slice floor %.4f s, fastest %.4f s, median %.4f s\n",
               run_s.size(), floor.run_s(), fastest(run_s), median(run_s));
  return {
      {"setup_s", fastest(setup_s), "s"},
      {"run_s", floor.run_s(), "s"},
      {"pkts_per_s", static_cast<double>(delivered) / floor.run_s(), "packets/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// --trace 1: isolated layer calls, then cycles of an untraced
/// repetition, a span-traced one and (host_telemetry) one with the
/// probe tracer off, until the time is spent.
std::vector<Metric> per_layer(const Args& a, const RepOptions& opts, FingerprintCheck& fp) {
  const auto t0 = Clock::now();
  const LayerCallTimes calls = time_layer_calls();
  const bool telemetry = a.workload == Workload::kHostTelemetry;
  RepOptions probe_off = opts;
  probe_off.probe_trace = false;

  SpanRecorder spans;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  SliceFloor untraced_floor;
  SliceFloor traced_floor;
  SliceFloor probe_off_floor;
  const int min_cycles = a.short_mode ? 1 : 2;
  for (int cycle = 0;; ++cycle) {
    const auto cycle_t0 = Clock::now();
    RepResult u = run_rep(opts, nullptr);
    RepResult s = run_rep(opts, &spans);
    if (record(fp, untraced_floor, u, "untraced")) untraced.push_back(std::move(u));
    if (record(fp, traced_floor, s, "span-traced")) traced.push_back(std::move(s));
    if (telemetry) {
      RepResult p = run_rep(probe_off, nullptr);
      record(fp, probe_off_floor, p, "probe-trace-off");
    }
    if (cycle + 1 >= min_cycles && since(t0) + since(cycle_t0) > a.seconds) break;
  }
  const std::string span_path = a.out_dir + "/spans-" + to_string(a.workload) + "-seed" +
                                std::to_string(a.seed) + ".json";
  if (!spans.write_chrome_json(span_path)) {
    fp.record(failure("cannot write " + span_path), "span-traced");
  } else {
    std::fprintf(stderr, "spans written to %s\n", span_path.c_str());
  }
  if (untraced.empty() || traced.empty()) return {};

  // run_s is the untraced slice floor, the set-up timings the fastest
  // untraced repetition, ratios the median.
  const auto over_untraced = [&](auto field, double q) {
    std::vector<double> v;
    for (const RepResult& r : untraced) v.push_back(field(r));
    return quantile(v, q);
  };
  const auto best_ms = [&](auto field) { return over_untraced(field, 0.0) * 1e3; };
  const double run_s = untraced_floor.run_s();
  std::vector<double> slices;
  std::uint64_t queue_nodes_max = 0;
  std::int64_t nic_buffer_max = 0;
  for (const RepResult& r : traced) {
    slices.insert(slices.end(), r.slice_s.begin(), r.slice_s.end());
    queue_nodes_max = std::max(queue_nodes_max, r.queue_nodes_max);
    nic_buffer_max = std::max(nic_buffer_max, r.nic_buffer_max_bytes);
  }
  // The highest percentile with at least ten slices beyond it.
  const double tail_q = std::max(0.5, 1.0 - 10.0 / static_cast<double>(slices.size()));

  const LayerCounts& c = untraced.front().counts;
  const RepResult& u = untraced.front();
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double events = d(c.events);
  const double trace_overhead =
      telemetry && probe_off_floor.run_s() > 0 ? run_s / probe_off_floor.run_s() - 1.0 : 0.0;
  const double workload_share =
      c.flows_started > 0
          ? (d(c.flows_started) * calls.workload_pool_churn_ns +
             d(2 * c.flows_completed + c.delivered) * calls.workload_sketch_add_ns) * 1e-9 / run_s
          : 0.0;
  std::vector<Metric> m = {
      {"core.validate_ms", best_ms([](const RepResult& r) { return r.validate_s; }), "ms"},
      {"core.construct_ms", best_ms([](const RepResult& r) { return r.construct_s; }), "ms"},
      {"core.start_ms", best_ms([](const RepResult& r) { return r.start_s; }), "ms"},
      {"core.harvest_ms", best_ms([](const RepResult& r) { return r.harvest_s; }), "ms"},
      {"sim.events", events, "events"},
      {"sim.events_per_s", events / run_s, "events/s"},
      {"sim.ns_per_event", run_s / events * 1e9, "ns"},
      {"sim.schedule_run_ns", calls.sim_schedule_run_ns, "ns"},
      {"sim.est_share", events * calls.sim_schedule_run_ns * 1e-9 / run_s, "ratio"},
      {"sim.slice_count", d(slices.size()), "slices"},
      {"sim.slice_p50_ms", quantile(slices, 0.5) * 1e3, "ms"},
      {"sim.slice_tail_ms", quantile(slices, tail_q) * 1e3, "ms"},
      {"sim.queue_nodes_max", d(queue_nodes_max), "nodes"},
      {"par.windows", d(c.windows), "windows"},
      {"par.messages", d(c.messages), "messages"},
      {"par.msgs_per_window", ratio(d(c.messages), d(c.windows)), "messages"},
      {"par.max_mailbox_depth", d(c.max_mailbox_depth), "messages"},
      {"par.imbalance", c.partition_imbalance, "ratio"},
      {"par.cpu_per_wall", over_untraced([](const RepResult& r) { return r.cpu_s / r.run_s; }, 0.5), "ratio"},
      {"par.barrier_ns", calls.par_barrier_ns, "ns"},
      {"par.est_share", d(c.windows) * calls.par_barrier_ns * 1e-9 / run_s, "ratio"},
      {"net.data_packets", d(c.data_packets), "packets"},
      {"net.fabric_drops", d(c.fabric_drops), "packets"},
      {"net.forward_ns", calls.net_forward_ns, "ns"},
      {"nic.arrivals", d(c.nic_arrivals), "packets"},
      {"nic.buffer_drops", d(c.nic_drops), "packets"},
      {"nic.drop_ratio", ratio(d(c.nic_drops), d(c.nic_arrivals)), "ratio"},
      {"nic.hol_stalls", d(c.hol_stalls), "stalls"},
      {"nic.buffer_max_kb", d(nic_buffer_max) / 1024.0, "KB"},
      {"pcie.write_tlps", d(c.write_tlps), "TLPs"},
      {"pcie.translation_stalls", d(c.translation_stalls), "stalls"},
      {"pcie.write_buffer_stalls", d(c.write_buffer_stalls), "stalls"},
      {"iommu.lookups", d(c.iommu_lookups), "lookups"},
      {"iommu.misses", d(c.iommu_misses), "misses"},
      {"iommu.hit_ratio", c.iommu_lookups > 0 ? 1.0 - ratio(d(c.iommu_misses), d(c.iommu_lookups)) : 0.0, "ratio"},
      {"iommu.walk_mem_reads", d(c.walk_mem_reads), "reads"},
      {"iommu.translate_hit_ns", calls.iommu_translate_hit_ns, "ns"},
      {"iommu.est_share", d(c.iommu_lookups) * calls.iommu_translate_hit_ns * 1e-9 / run_s, "ratio"},
      {"mem.request_ns", calls.mem_request_ns, "ns"},
      {"mem.epoch_ns", calls.mem_epoch_ns, "ns"},
      {"mem.total_gbs", c.mem_total_gbs, "GB/s"},
      {"transport.data_sent", d(c.data_packets - c.retransmits), "packets"},
      {"transport.retransmits", d(c.retransmits), "packets"},
      {"transport.rto_fires", d(c.rto_fires), "timeouts"},
      {"transport.goodput_ratio", ratio(d(c.delivered), d(c.data_packets)), "ratio"},
      {"workload.flows_started", d(c.flows_started), "flows"},
      {"workload.flows_completed", d(c.flows_completed), "flows"},
      {"workload.pool_exhausted", d(c.pool_exhausted), "flows"},
      {"workload.admit_ratio", ratio(d(c.flows_started), d(c.flows_started + c.pool_exhausted)), "ratio"},
      {"workload.pool_churn_ns", calls.workload_pool_churn_ns, "ns"},
      {"workload.sketch_add_ns", calls.workload_sketch_add_ns, "ns"},
      {"workload.est_share", workload_share, "ratio"},
      {"fault.windows", d(c.fault_windows), "windows"},
      {"fault.active_frac", ratio(c.fault_active_us, c.simulated_us), "ratio"},
      {"fault.blind_frac", ratio(c.fault_blind_us, c.fault_active_us), "ratio"},
      {"trace.rows", d(u.trace_rows), "rows"},
      {"trace.row_ns", calls.trace_row_ns, "ns"},
      {"trace.overhead_frac", trace_overhead, "ratio"},
      {"trace.est_share", d(u.trace_rows) * calls.trace_row_ns * 1e-9 / run_s, "ratio"},
      {"trace_mb", d(u.trace_bytes) / 1e6, "MB"},
      {"bench.span_overhead_frac", traced_floor.run_s() / run_s - 1.0, "ratio"},
  };
  return m;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", a.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  RepOptions opts;
  opts.workload = a.workload;
  opts.seed = a.seed;
  opts.short_mode = a.short_mode;

  const double ref_spin_ns = reference_spin_ns();
  FingerprintCheck fp(a.workload, a.short_mode, a.seed);
  std::vector<Metric> metrics = a.trace ? per_layer(a, opts, fp) : end_to_end(a, opts, fp);
  if (a.trace) {
    metrics.push_back({"bench.ref_spin_ns", ref_spin_ns, "ns"});
    metrics.push_back({"failed_frac", ratio(static_cast<double>(fp.failed()),
                                            static_cast<double>(fp.attempted())),
                       "ratio"});
  }
  report(a, fp, ref_spin_ns, metrics);
  return fp.failed() == 0 && fp.attempted() > 0 && !metrics.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicc_perfbench: %s\n", e.what());
    return 1;
  }
}
