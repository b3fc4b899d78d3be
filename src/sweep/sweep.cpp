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
#include "core/cluster.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "trace/trace.h"

namespace hicc::sweep {

namespace {

class JsonObject {
 public:
  JsonObject(std::ostream& os, int indent) : os_(os), indent_(indent) { os_ << "{"; }

  // One overload per record value type (core/config.h, core/metrics.h
  // for_each_field).
  void field(const char* key, double v) {
    next(key);
    put_double(os_, v);
  }
  void field(const char* key, std::int64_t v) { next(key); os_ << v; }
  void field(const char* key, std::uint64_t v) { next(key); os_ << v; }
  void field(const char* key, int v) { next(key); os_ << v; }
  void field(const char* key, bool v) { next(key); os_ << (v ? "true" : "false"); }
  void field(const char* key, const char* v) { next(key); os_ << '"' << v << '"'; }
  void field(const char* key, const std::string& v) { field(key, v.c_str()); }
  void field(const char* key, Bytes v) { field(key, v.count()); }
  void field(const char* key, TimePs v) { field(key, v.us()); }
  void field(const char* key, transport::CcAlgorithm v) { field(key, transport::to_string(v)); }
  void field(const char* key, RunStatus v) { field(key, to_string(v)); }
  // Spec-grammar form (docs/FAULTS.md); round-trips through
  // fault::parse_script, so a point's scenario can be replayed from
  // the sweep record alone.
  void field(const char* key, const fault::FaultScript& v) { field(key, v.to_spec()); }
  /// The record leaves out hicc.point.v1's run-control keys.
  template <class T>
  void field(const char* /*key*/, SpecOnly<T> /*v*/) {}
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

/// Writes the object of every key `for_each_field` yields for `fields`.
template <class Fields>
void write_object(std::ostream& os, const Fields& fields, int indent) {
  JsonObject o(os, indent);
  for_each_field(fields, [&o](const char* key, const auto& v) { o.field(key, v); });
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

std::vector<SweepResult> cluster_points(ClusterExperiment& exp, const ClusterMetrics& cm,
                                        std::size_t first_index) {
  std::vector<SweepResult> points(static_cast<std::size_t>(exp.num_receivers()));
  for (int r = 0; r < exp.num_receivers(); ++r) {
    SweepResult& p = points[static_cast<std::size_t>(r)];
    p.index = first_index + static_cast<std::size_t>(r);
    p.config = exp.config().host;
    p.metrics = cm.per_receiver[static_cast<std::size_t>(r)];
    p.extra["host"] = r;
    p.extra["cluster.port_drops"] = static_cast<double>(exp.fabric().host_port_drops(r));
    p.extra["cluster.port_queue_bytes"] = static_cast<double>(exp.fabric().host_queue(r).count());
    if (!cm.workload.enabled) continue;
    const WorkloadMetrics& w = cm.workload;
    p.extra["workload.flows_started"] = static_cast<double>(w.flows_started);
    p.extra["workload.flows_completed"] = static_cast<double>(w.flows_completed);
    p.extra["workload.pool_exhausted"] = static_cast<double>(w.pool_exhausted);
    p.extra["workload.active_flows"] = static_cast<double>(w.active_flows);
    p.extra["workload.fct_p50_us"] = w.fct_p50_us;
    p.extra["workload.fct_p99_us"] = w.fct_p99_us;
    p.extra["workload.fct_p999_us"] = w.fct_p999_us;
    p.extra["workload.slowdown_p50"] = w.slowdown_p50;
    p.extra["workload.slowdown_p99"] = w.slowdown_p99;
    p.extra["workload.slowdown_p999"] = w.slowdown_p999;
    p.extra["workload.host_delay_p99_us"] = w.host_delay_p99_us;
    p.extra["workload.host_delay_p999_us"] = w.host_delay_p999_us;
  }
  return points;
}

void write_point(std::ostream& os, const SweepResult& r) {
  JsonObject o(os, 4);
  o.field("index", r.index);
  o.field("wall_seconds", r.wall_seconds);
  o.open("config");
  write_object(os, r.config, 6);
  o.open("metrics");
  write_object(os, r.metrics, 6);
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
