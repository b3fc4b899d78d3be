#include "sweep/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include <sstream>
#include <stdexcept>

#include "common/fmt.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "trace/trace.h"

namespace hicc::sweep {

namespace {

class JsonObject {
 public:
  JsonObject(std::ostream& os, int indent) : os_(os), indent_(indent) { os_ << "{"; }

  void field(const char* key, double v) {
    next(key);
    put_double(os_, v);
  }
  void field(const char* key, std::int64_t v) { next(key); os_ << v; }
  void field(const char* key, std::uint64_t v) { next(key); os_ << v; }
  void field(const char* key, int v) { next(key); os_ << v; }
  void field(const char* key, bool v) { next(key); os_ << (v ? "true" : "false"); }
  void field(const char* key, const char* v) { next(key); os_ << '"' << v << '"'; }
  /// Opens a nested object; the caller closes it via the returned
  /// object's close().
  void open(const char* key) { next(key); }

  void close() {
    os_ << "\n";
    pad(indent_);
    os_ << "}";
  }

 private:
  void next(const char* key) {
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    pad(indent_ + 2);
    os_ << '"' << key << "\": ";
  }
  void pad(int n) {
    for (int i = 0; i < n; ++i) os_ << ' ';
  }

  std::ostream& os_;
  int indent_;
  bool first_ = true;
};

void write_config(std::ostream& os, const ExperimentConfig& cfg, int indent) {
  JsonObject o(os, indent);
  o.field("num_senders", cfg.num_senders);
  o.field("rx_threads", cfg.rx_threads);
  o.field("read_size_bytes", cfg.read_size.count());
  o.field("read_pipeline", cfg.read_pipeline);
  o.field("iommu_enabled", cfg.iommu_enabled);
  o.field("hugepages", cfg.hugepages);
  o.field("data_region_bytes", cfg.data_region.count());
  o.field("antagonist_cores", cfg.antagonist_cores);
  o.field("antagonist_throttle_gbps", cfg.antagonist_throttle_gbps);
  o.field("antagonist_remote_numa", cfg.antagonist_remote_numa);
  o.field("ats_enabled", cfg.ats_enabled);
  o.field("strict_iommu", cfg.strict_iommu);
  o.field("ddio_enabled", cfg.ddio.enabled);
  o.field("victim_flows", cfg.victim_flows);
  o.field("victim_read_size_bytes", cfg.victim_read_size.count());
  o.field("cc", transport::to_string(cfg.cc));
  o.field("swift_host_target_us", cfg.swift.host_target.us());
  o.field("iotlb_entries", cfg.iommu.iotlb_entries);
  o.field("nic_buffer_bytes", cfg.nic.input_buffer.count());
  o.field("pcie_gigatransfers_per_lane", cfg.pcie.gigatransfers_per_lane);
  o.field("warmup_us", cfg.warmup.us());
  o.field("measure_us", cfg.measure.us());
  o.field("seed", cfg.seed);
  // Spec-grammar form (docs/FAULTS.md); round-trips through
  // fault::parse_script, so a point's scenario can be replayed from
  // the sweep record alone.
  o.field("faults", cfg.faults.to_spec().c_str());
  o.close();
}

void write_metrics(std::ostream& os, const Metrics& m, int indent) {
  JsonObject o(os, indent);
  o.field("app_throughput_gbps", m.app_throughput_gbps);
  o.field("link_utilization", m.link_utilization);
  o.field("drop_rate", m.drop_rate);
  o.field("iotlb_misses_per_packet", m.iotlb_misses_per_packet);
  o.field("memory_total_gbytes_per_sec", m.memory.total_gbytes_per_sec);
  o.field("memory_nic_dma_gbytes_per_sec",
          m.memory.by_class_gbytes_per_sec[static_cast<int>(mem::MemClass::kNicDma)]);
  o.field("memory_iommu_walk_gbytes_per_sec",
          m.memory.by_class_gbytes_per_sec[static_cast<int>(mem::MemClass::kIommuWalk)]);
  o.field("memory_cpu_copy_gbytes_per_sec",
          m.memory.by_class_gbytes_per_sec[static_cast<int>(mem::MemClass::kCpuCopy)]);
  o.field("memory_antagonist_gbytes_per_sec",
          m.memory.by_class_gbytes_per_sec[static_cast<int>(mem::MemClass::kAntagonist)]);
  o.field("remote_memory_total_gbytes_per_sec", m.remote_memory.total_gbytes_per_sec);
  o.field("host_delay_p50_us", m.host_delay_p50_us);
  o.field("host_delay_p99_us", m.host_delay_p99_us);
  o.field("host_delay_max_us", m.host_delay_max_us);
  o.field("victim_reads", m.victim_reads);
  o.field("victim_read_p50_us", m.victim_read_p50_us);
  o.field("victim_read_p99_us", m.victim_read_p99_us);
  o.field("data_packets_sent", m.data_packets_sent);
  o.field("retransmits", m.retransmits);
  o.field("rto_fires", m.rto_fires);
  o.field("delivered_packets", m.delivered_packets);
  o.field("nic_buffer_drops", m.nic_buffer_drops);
  o.field("fabric_drops", m.fabric_drops);
  o.field("iotlb_misses", m.iotlb_misses);
  o.field("iotlb_lookups", m.iotlb_lookups);
  o.field("pcie_translation_stalls", m.pcie_translation_stalls);
  o.field("pcie_write_buffer_stalls", m.pcie_write_buffer_stalls);
  o.field("hol_descriptor_stalls", m.hol_descriptor_stalls);
  o.field("avg_cwnd", m.avg_cwnd);
  o.field("fault_windows", m.fault_windows);
  o.field("fault_drops", m.fault_drops);
  o.field("fault_active_us", m.fault_active_us);
  o.field("fault_blind_us", m.fault_blind_us);
  o.field("run_status", to_string(m.run_status));
  o.field("run_status_detail", m.run_status_detail.c_str());
  o.field("simulated_seconds", m.simulated_seconds);
  o.field("events_executed", m.events_executed);
  o.close();
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions opts)
    : opts_(std::move(opts)), jobs_(resolve_jobs(opts_.jobs)) {}

int SweepRunner::resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HICC_JOBS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0 && n < std::numeric_limits<int>::max()) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<SweepResult> SweepRunner::run(std::vector<ExperimentConfig> points) const {
  const std::size_t total = points.size();
  if (opts_.reseed) {
    for (std::size_t i = 0; i < total; ++i) {
      points[i].seed = derive_seed(opts_.sweep_seed, i);
    }
  }

  // Validate every point up front so a bad sweep fails before any work
  // starts, with every violation of every point in one message.
  {
    std::ostringstream bad;
    std::size_t bad_points = 0;
    for (std::size_t i = 0; i < total; ++i) {
      const auto violations = validate(points[i]);
      if (violations.empty()) continue;
      if (bad_points++ > 0) bad << '\n';
      bad << "point " << i << ":\n" << describe(violations);
    }
    if (bad_points > 0) {
      throw std::invalid_argument("invalid sweep configuration (" +
                                  std::to_string(bad_points) + " bad point(s)):\n" + bad.str());
    }
  }

  std::vector<SweepResult> results(total);
  if (total == 0) return results;

  // Concurrency contract (TSan-verified; SweepRunner.HooksAreRaceFreeUnder16Threads):
  //   - `next` and `failed` are the only lock-free shared state and MUST
  //     stay std::atomic -- `next` is the work-stealing ticket counter,
  //     `failed` the abandon flag polled by every worker.
  //   - `completed`, `failed_index`, `first_error`, and every
  //     opts_.progress invocation are guarded by `mu`; the progress
  //     callback is serialized and may touch non-atomic caller state.
  //   - results[i] is written by exactly one worker (the ticket holder),
  //     and opts_.probe only sees that worker's Experiment + result, so
  //     neither needs synchronization.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;  // guards progress callback + failure bookkeeping
  std::size_t completed = 0;
  std::size_t failed_index = total;
  std::exception_ptr first_error;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      SweepResult& r = results[i];
      r.index = i;
      r.config = points[i];
      // hicc-lint: allow(det-wallclock) -- harness-level wall timing for
      // SweepResult::wall_seconds; never feeds simulation state.
      const auto t0 = std::chrono::steady_clock::now();
      try {
        Experiment exp(r.config);
        r.metrics = exp.run();
        r.wall_seconds = std::chrono::duration<double>(
                             // hicc-lint: allow(det-wallclock) -- see t0.
                             std::chrono::steady_clock::now() - t0)
                             .count();
        if (opts_.probe) opts_.probe(exp, r);
      } catch (...) {
        // Keep the error from the lowest-index failing point so a
        // parallel run reports the same failure a serial run would hit
        // first; abandon the rest of the queue.
        std::lock_guard<std::mutex> lock(mu);
        if (i < failed_index) {
          failed_index = i;
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      if (opts_.progress) {
        opts_.progress(SweepProgress{completed, total, i, r.wall_seconds});
      }
    }
  };

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), total);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

void harvest_trace(Experiment& exp, SweepResult& r) {
  harvest_trace_probes(exp.tracer(), r);
}

void harvest_trace_probes(trace::Tracer* tracer, SweepResult& r) {
  if (tracer == nullptr) return;
  tracer->sample_now();  // refresh polled + derived values at run end
  const auto& probes = tracer->probes();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    // Histogram parents report their observation count; the derived
    // .p50/.p99/.count entries carry the distribution itself.
    r.extra["trace." + probes[i].name] = tracer->value_at(i);
  }
}

void write_point(std::ostream& os, const SweepResult& r) {
  JsonObject o(os, 4);
  o.field("index", r.index);
  o.field("wall_seconds", r.wall_seconds);
  o.open("config");
  write_config(os, r.config, 6);
  o.open("metrics");
  write_metrics(os, r.metrics, 6);
  if (!r.extra.empty()) {
    o.open("extra");
    JsonObject e(os, 6);
    for (const auto& [key, value] : r.extra) e.field(key.c_str(), value);
    e.close();
  }
  o.close();
}

void write_json(const std::vector<SweepResult>& results, std::ostream& os) {
  os << "{\n  \"schema\": \"hicc.sweep.v1\",\n  \"points\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    ";
    write_point(os, results[i]);
  }
  os << "\n  ]\n}\n";
}

bool save_json(const std::vector<SweepResult>& results, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(results, out);
  return static_cast<bool>(out);
}

}  // namespace hicc::sweep
