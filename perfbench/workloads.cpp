#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>
#include <memory>
#include <stdexcept>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/script.h"
#include "counting_sink.h"

namespace perfbench {
namespace {

using namespace hicc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ configs

/// Simulated length of one timed slice: every advance/run_until call
/// covers one. A multiple of the Clos lookahead (the 2 us edge
/// propagation), so every slice boundary is a ParallelEngine window
/// boundary.
constexpr TimePs kSlice = TimePs::from_us(10);

fault::FaultScript parse_or_throw(const char* spec) {
  fault::ParseResult parsed = fault::parse_script(spec);
  if (!parsed.ok()) throw std::runtime_error(std::string("bad fault script: ") + spec);
  return parsed.script;
}

/// The paper's §3 testbed on one receiver: the ExperimentConfig defaults
/// are 40 senders, 12 rx threads, Swift, IOMMU on with 2 MB pages and a
/// 1 MB NIC buffer. A periodic 15-core memory antagonist adds memory
/// contention windows. host_telemetry adds the probe tracer at its
/// default 5 us period.
ExperimentConfig host_config(const RepOptions& o) {
  ExperimentConfig cfg;
  cfg.seed = o.seed;
  cfg.warmup = TimePs::from_ms(o.short_mode ? 2 : 10);
  cfg.measure = TimePs::from_ms(o.short_mode ? 4 : 20);
  cfg.faults = parse_or_throw(o.short_mode ? "mem.antagonist@2ms+1ms/2ms,cores=15"
                                           : "mem.antagonist@12ms+4ms/10ms,cores=15");
  cfg.trace.enabled = o.workload == Workload::kHostTelemetry && o.probe_trace;
  return cfg;
}

/// clos_openloop stops injecting after this many flows, so every seed
/// simulates the same amount of work. Unbounded, seeds start 95k-103k
/// flows in 20 ms, so injection ends at about 13-14 ms whatever the seed.
constexpr std::int64_t kClosFlows = 66'000;
constexpr std::int64_t kClosFlowsShort = 12'000;
constexpr int kClosReceivers = 8;
constexpr int kClosFanout = 8;

/// A 2x2x16 Clos with 8 receivers on the partitioned engine at 2
/// threads, under open-loop bursty incast (fanout 8, fixed 16 KB flows,
/// 5e4 arrivals/s per receiver), IOMMU off.
ClusterConfig clos_config(const RepOptions& o) {
  ClusterConfig cfg;
  cfg.host.seed = o.seed;
  cfg.host.iommu_enabled = false;
  cfg.host.warmup = TimePs::from_ms(o.short_mode ? 1 : 5);
  cfg.host.measure = TimePs::from_ms(o.short_mode ? 2 : 10);
  cfg.host.victim_flows = 0;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 16;
  cfg.receivers = kClosReceivers;
  cfg.parallelism = 2;
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.workload.arrival = workload::Arrival::kBursty;
  cfg.workload.rate_per_s = 5e4;
  cfg.workload.size_dist = workload::SizeDist::kFixed;
  cfg.workload.fixed_size = Bytes(16 * 1024);
  cfg.workload.fanout = kClosFanout;
  cfg.workload.target_flows = o.short_mode ? kClosFlowsShort : kClosFlows;
  return cfg;
}

const ExperimentConfig& host_part(const ExperimentConfig& cfg) { return cfg; }
const ExperimentConfig& host_part(const ClusterConfig& cfg) { return cfg.host; }

// -------------------------------------------------------- fingerprint

/// FNV-1a over the bit patterns of every simulated output field.
class Fingerprint {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add(Fingerprint& f, const mem::BandwidthReport& b) {
  f.f64(b.total_gbytes_per_sec);
  f.f64(b.read_gbytes_per_sec);
  f.f64(b.write_gbytes_per_sec);
  for (const double v : b.by_class_gbytes_per_sec) f.f64(v);
}

/// Every Metrics field except events_executed, which counts engine
/// work rather than simulated behaviour.
void add(Fingerprint& f, const Metrics& m) {
  f.f64(m.app_throughput_gbps);
  f.f64(m.link_utilization);
  f.f64(m.drop_rate);
  f.f64(m.iotlb_misses_per_packet);
  add(f, m.memory);
  f.f64(m.host_delay_p50_us);
  f.f64(m.host_delay_p99_us);
  f.f64(m.host_delay_max_us);
  f.i64(m.victim_reads);
  f.f64(m.victim_read_p50_us);
  f.f64(m.victim_read_p99_us);
  add(f, m.remote_memory);
  f.i64(m.data_packets_sent);
  f.i64(m.retransmits);
  f.i64(m.rto_fires);
  f.i64(m.delivered_packets);
  f.i64(m.nic_buffer_drops);
  f.i64(m.fabric_drops);
  f.i64(m.iotlb_misses);
  f.i64(m.iotlb_lookups);
  f.i64(m.pcie_translation_stalls);
  f.i64(m.pcie_write_buffer_stalls);
  f.i64(m.hol_descriptor_stalls);
  f.f64(m.avg_cwnd);
  f.i64(m.fault_windows);
  f.i64(m.fault_drops);
  f.f64(m.fault_active_us);
  f.f64(m.fault_blind_us);
  f.u64(static_cast<std::uint64_t>(m.run_status));
  f.str(m.run_status_detail);
  f.f64(m.simulated_seconds);
}

void add(Fingerprint& f, const WorkloadMetrics& w) {
  f.u64(w.enabled ? 1 : 0);
  f.i64(w.flows_started);
  f.i64(w.flows_completed);
  f.i64(w.pool_exhausted);
  f.i64(w.collectives_completed);
  f.i64(w.active_flows);
  for (const double v : {w.fct_p50_us, w.fct_p99_us, w.fct_p999_us, w.slowdown_p50,
                         w.slowdown_p99, w.slowdown_p999, w.host_delay_p50_us,
                         w.host_delay_p99_us, w.host_delay_p999_us}) {
    f.f64(v);
  }
  f.u64(w.fct_us.fingerprint());
  f.u64(w.slowdown.fingerprint());
  f.u64(w.host_delay_us.fingerprint());
}

/// Every ClusterMetrics field except events_executed and the engine
/// bookkeeping (partitions, windows, messages): like the event count,
/// those measure how the engine steps, not what it simulates.
void add(Fingerprint& f, const ClusterMetrics& c) {
  f.u64(c.per_receiver.size());
  for (const Metrics& m : c.per_receiver) add(f, m);
  f.f64(c.total_app_throughput_gbps);
  f.i64(c.total_nic_buffer_drops);
  f.i64(c.total_data_packets_sent);
  f.i64(c.total_fabric_drops);
  f.f64(c.max_host_delay_p99_us);
  f.u64(static_cast<std::uint64_t>(c.run_status));
  f.f64(c.simulated_seconds);
  add(f, c.workload);
}

// ------------------------------------------- per-entry-point adapters

void advance_to(Experiment& e, TimePs t) { e.advance(t - e.simulator().now()); }
void advance_to(ClusterExperiment& e, TimePs t) {
  if (sim::ParallelEngine* engine = e.engine()) {
    engine->run_until(t);
  } else {
    e.simulator().run_until(t);
  }
}

std::uint64_t queued_nodes(Experiment& e) { return e.simulator().queued_nodes(); }
std::uint64_t queued_nodes(ClusterExperiment& e) {
  sim::ParallelEngine* engine = e.engine();
  if (engine == nullptr) return e.simulator().queued_nodes();
  std::uint64_t total = 0;
  for (int p = 0; p < engine->partitions(); ++p) total += engine->sim(p).queued_nodes();
  return total;
}

std::vector<host::ReceiverHost*> receivers(Experiment& e) { return {&e.receiver()}; }
std::vector<host::ReceiverHost*> receivers(ClusterExperiment& e) {
  std::vector<host::ReceiverHost*> out;
  for (int r = 0; r < e.num_receivers(); ++r) out.push_back(&e.receiver(r));
  return out;
}

bool status_ok(const Metrics& m) { return m.run_status == RunStatus::kOk; }
bool status_ok(const ClusterMetrics& c) {
  return c.run_status == RunStatus::kOk &&
         std::all_of(c.per_receiver.begin(), c.per_receiver.end(),
                     [](const Metrics& m) { return status_ok(m); });
}

/// Adds one window's transport/network counters.
void add_window(LayerCounts& c, const Metrics& m) {
  c.delivered += m.delivered_packets;
  c.data_packets += m.data_packets_sent;
  c.retransmits += m.retransmits;
  c.rto_fires += m.rto_fires;
  c.fabric_drops += m.fabric_drops;
}
void add_window(LayerCounts& c, const ClusterMetrics& cm) {
  for (const Metrics& m : cm.per_receiver) {
    c.delivered += m.delivered_packets;
    c.retransmits += m.retransmits;
    c.rto_fires += m.rto_fires;
  }
  c.data_packets += cm.total_data_packets_sent;
  c.fabric_drops += cm.total_fabric_drops;
  c.flows_started += cm.workload.flows_started;
  c.flows_completed += cm.workload.flows_completed;
  c.pool_exhausted += cm.workload.pool_exhausted;
}

/// Whole-run figures read from the final snapshot.
void add_final(LayerCounts& c, const Metrics& m) {
  c.events = m.events_executed;
  c.mem_total_gbs += m.memory.total_gbytes_per_sec;
  c.fault_windows = m.fault_windows;
  c.fault_active_us = m.fault_active_us;
  c.fault_blind_us = m.fault_blind_us;
}
void add_final(LayerCounts& c, const ClusterMetrics& cm) {
  for (const Metrics& m : cm.per_receiver) add_final(c, m);
  c.events = cm.events_executed;
}

void add_engine(LayerCounts&, Experiment&) {}
void add_engine(LayerCounts& c, ClusterExperiment& e) {
  const sim::ParallelEngine* engine = e.engine();
  if (engine == nullptr) return;
  c.partitions = engine->partitions();
  c.windows = engine->windows();
  c.lookahead_us = engine->lookahead().us();
  c.messages = engine->messages_delivered();
  c.max_mailbox_depth = engine->max_mailbox_depth();
  std::uint64_t max_events = 0;
  for (int p = 0; p < engine->partitions(); ++p) {
    max_events = std::max(max_events, engine->sim(p).executed());
  }
  const double mean = static_cast<double>(engine->executed_total()) / engine->partitions();
  c.partition_imbalance = mean > 0 ? static_cast<double>(max_events) / mean : 0.0;
}

/// Cumulative device counters (whole run) of every receiver host.
void add_devices(LayerCounts& c, const std::vector<host::ReceiverHost*>& hosts) {
  for (host::ReceiverHost* h : hosts) {
    const nic::NicStats& n = h->nic().stats();
    c.nic_arrivals += n.arrivals;
    c.nic_drops += n.buffer_drops;
    c.hol_stalls += n.hol_descriptor_stalls;
    const pcie::PcieStats& p = h->pcie().stats();
    c.write_tlps += p.write_tlps;
    c.translation_stalls += p.translation_stalls;
    c.write_buffer_stalls += p.write_buffer_stalls;
    const iommu::IommuStats& i = h->iommu().stats();
    c.iommu_lookups += i.lookups;
    c.iommu_misses += i.misses;
    c.walk_mem_reads += i.walk_memory_reads;
  }
}

/// Sanity checks that hold for any seed; returns an empty string when
/// they pass.
std::string check_counts(Workload w, const RepOptions& o, const LayerCounts& c) {
  if (c.delivered <= 0) return "no packets delivered";
  if (c.delivered + c.nic_drops > c.data_packets) {
    return "delivered + NIC drops exceed data packets sent";
  }
  if (w == Workload::kClosOpenloop) {
    if (c.flows_completed <= 0) return "no open-loop flow completed";
    // Each receiver checks its share of the target per arrival, and an
    // arrival starts `fanout` flows at once.
    const std::int64_t most = (o.short_mode ? kClosFlowsShort : kClosFlows) +
                              kClosReceivers * (kClosFanout - 1);
    if (c.flows_started > most) return "more flows started than the flow target allows";
    if (c.iommu_lookups != 0) return "IOMMU translated with the IOMMU off";
    if (c.partitions != 33) return "expected 33 engine partitions";
    // One window per lookahead: no slice boundary split a window.
    if (static_cast<double>(c.windows) * c.lookahead_us != c.simulated_us) {
      return "slices split engine windows";
    }
    if (c.fault_windows != 0) return "fault windows without a fault script";
  } else {
    if (c.iommu_misses <= 0) return "no IOTLB misses";
    const std::int64_t expected_windows = o.short_mode ? 3 : 2;
    if (c.fault_windows != expected_windows) {
      return "expected " + std::to_string(expected_windows) + " fault windows, got " +
             std::to_string(c.fault_windows);
    }
  }
  return {};
}

template <typename Exp, typename Config>
RepResult run_config(const Config& cfg, const RepOptions& o, SpanRecorder* spans) {
  RepResult r;
  SpanScope rep_span(spans, "rep");

  auto t = Clock::now();
  {
    SpanScope s(spans, "validate");
    const std::vector<ConfigViolation> violations = validate(cfg);
    r.validate_s = since(t);
    if (!violations.empty()) {
      r.error = "invalid config: " + describe(violations);
      return r;
    }
  }

  CountingCsvSink csv;
  std::unique_ptr<Exp> exp;
  t = Clock::now();
  {
    SpanScope s(spans, "construct");
    exp = std::make_unique<Exp>(cfg);
  }
  if (exp->tracer() != nullptr) {
    SpanScope s(spans, "trace_set_sink");
    exp->tracer()->set_sink(&csv.sink());
  }
  r.construct_s = since(t);
  t = Clock::now();
  {
    SpanScope s(spans, "start");
    exp->start();
  }
  r.start_s = since(t);

  const std::vector<host::ReceiverHost*> hosts = receivers(*exp);
  const auto advance = [&](const char* phase, TimePs from, TimePs to) {
    SpanScope s(spans, phase);
    const double cpu0 = process_cpu_s();
    for (TimePs now = from; now < to;) {
      const TimePs next = std::min(now + kSlice, to);
      const auto ts = Clock::now();
      {
        SpanScope sl(spans, "slice");
        advance_to(*exp, next);
      }
      const double took = since(ts);
      r.slice_s.push_back(took);
      r.run_s += took;
      if (spans != nullptr) {
        r.queue_nodes_max = std::max(r.queue_nodes_max, queued_nodes(*exp));
        for (host::ReceiverHost* h : hosts) {
          r.nic_buffer_max_bytes = std::max(r.nic_buffer_max_bytes, h->nic().buffer_used().count());
        }
      }
      now = next;
    }
    r.cpu_s += process_cpu_s() - cpu0;
  };

  const ExperimentConfig& hc = host_part(cfg);
  advance("warmup", TimePs{}, hc.warmup);
  t = Clock::now();
  decltype(exp->snapshot()) warm;
  {
    SpanScope s(spans, "snapshot");
    warm = exp->snapshot();
  }
  {
    SpanScope s(spans, "begin_window");
    exp->begin_window();
  }
  r.harvest_s = since(t);
  advance("measure", hc.warmup, hc.warmup + hc.measure);
  t = Clock::now();
  decltype(exp->snapshot()) fin;
  {
    SpanScope s(spans, "snapshot");
    fin = exp->snapshot();
  }
  r.harvest_s += since(t);
  if (exp->tracer() != nullptr) {
    // Part of run_s: the final sampling pass and the sink's end().
    t = Clock::now();
    {
      SpanScope s(spans, "trace_finish");
      exp->tracer()->finish();
    }
    r.finish_s = since(t);
    r.run_s += r.finish_s;
    r.trace_rows = csv.rows();
    r.trace_bytes = csv.bytes();
  }

  Fingerprint fp;
  add(fp, warm);
  add(fp, fin);
  r.fingerprint = fp.value();
  add_window(r.counts, warm);
  add_window(r.counts, fin);
  add_final(r.counts, fin);
  add_engine(r.counts, *exp);
  add_devices(r.counts, hosts);
  r.counts.simulated_us = (hc.warmup + hc.measure).us();

  if (!status_ok(warm) || !status_ok(fin)) {
    r.error = "run status not ok";
    return r;
  }
  r.error = check_counts(o.workload, o, r.counts);
  if (r.error.empty() && exp->tracer() != nullptr && r.trace_rows <= 0) {
    r.error = "probe trace wrote no rows";
  }
  r.ok = r.error.empty();
  return r;
}

template <typename Exp, typename Config>
double setup_config(const Config& cfg) {
  const auto t = Clock::now();
  if (!validate(cfg).empty()) return -1.0;
  CountingCsvSink csv;
  Exp exp(cfg);
  if (exp.tracer() != nullptr) exp.tracer()->set_sink(&csv.sink());
  exp.start();
  const double s = since(t);
  if (exp.tracer() != nullptr) exp.tracer()->finish();
  return s;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kHostIncast: return "host_incast";
    case Workload::kClosOpenloop: return "clos_openloop";
    case Workload::kHostTelemetry: return "host_telemetry";
  }
  return "unknown";
}

bool workload_from_string(std::string_view s, Workload* out) {
  for (const Workload w :
       {Workload::kHostIncast, Workload::kClosOpenloop, Workload::kHostTelemetry}) {
    if (s == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

RepResult run_rep(const RepOptions& opts, SpanRecorder* spans) {
  if (opts.workload == Workload::kClosOpenloop) {
    return run_config<ClusterExperiment>(clos_config(opts), opts, spans);
  }
  return run_config<Experiment>(host_config(opts), opts, spans);
}

double setup_only(const RepOptions& opts) {
  if (opts.workload == Workload::kClosOpenloop) {
    return setup_config<ClusterExperiment>(clos_config(opts));
  }
  return setup_config<Experiment>(host_config(opts));
}

}  // namespace perfbench
