// hicc_cli -- command-line experiment explorer.
//
// Runs one experiment with every knob exposed as a --key=value flag
// and prints the metrics (or a time series with --timeline-us=N).
// With --runs=N it becomes a Monte-Carlo sweep: N replicas with seeds
// derived from --seed run on the sweep thread pool (--jobs=N or
// $HICC_JOBS workers), printing per-replica rows plus mean/stddev and
// optionally writing the structured record with --json=path.
//
//   $ ./hicc_cli --threads=16 --iommu=1
//   $ ./hicc_cli --threads=12 --antagonists=15 --iommu=0 --timeline-us=2000
//   $ ./hicc_cli --threads=14 --cc=host-signal --victims=8
//   $ ./hicc_cli --threads=14 --runs=16 --jobs=4 --json=sweep_results.json
//   $ ./hicc_cli --topology=2x2x8 --receivers=2 --json=cluster.json
//   $ ./hicc_cli --help
//
// With --topology=LxSxH the run is a ClusterExperiment on a Clos
// leaf/spine fabric (docs/TOPOLOGY.md) instead of the single-host
// Experiment: the other flags describe each receiver host, and the
// JSON record carries one hicc.sweep.v1 point per receiver.
//
// With --runs and --isolate the sweep runs under the crash-isolating
// supervisor (docs/ROBUSTNESS.md): every point in its own
// `hicc_cli --point-worker` subprocess with per-point timeout, bounded
// retry, a resumable journal (--journal/--resume), and graceful
// SIGINT/SIGTERM handling. Exit codes are documented in usage() and
// shared with the worker (sweep/worker.h).
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/script.h"
#include "sweep/columnar.h"
#include "sweep/supervisor.h"
#include "sweep/sweep.h"
#include "sweep/worker.h"
#include "trace/exporters.h"

namespace {

using hicc::TimePs;
using hicc::sweep::kExitAborted;
using hicc::sweep::kExitConfigInvalid;
using hicc::sweep::kExitFaultParse;
using hicc::sweep::kExitGiveUp;
using hicc::sweep::kExitInterrupted;
using hicc::sweep::kExitOk;
using hicc::sweep::kExitUsage;

/// Set by the SIGINT/SIGTERM handler; the supervisor polls it, kills
/// in-flight workers, and returns with what the journal already holds.
volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// Every flag some mode reads; main() rejects any other key, so a
/// misspelt or retired flag fails instead of running with defaults.
constexpr std::string_view kKnownFlags[] = {
    // workload, receiver host, memory bus, protocol
    "threads", "senders", "read-kb", "pipeline", "victims", "iommu", "hugepages", "region-mb",
    "iotlb", "nic-buffer-kb", "ats", "strict", "ddio", "antagonists", "remote-numa", "mba-gbs",
    "cc", "host-target-us",
    // topology and open-loop workload
    "topology", "receivers", "ecmp-seed", "host-gbps", "fabric-gbps", "antagonist-profile",
    "parallel", "workload", "wl-rate", "wl-arrival", "wl-burst-factor", "wl-burst-on",
    "wl-burst-period-us", "wl-size", "wl-size-kb", "wl-fanout", "wl-max-active",
    "wl-target-flows", "wl-sketch-error", "columnar-out",
    // faults, run control, telemetry
    "faults", "warmup-ms", "measure-ms", "seed", "max-events", "timeline-us", "trace",
    "trace-period-us",
    // sweep and crash isolation
    "runs", "jobs", "json", "isolate", "point-timeout", "retries", "backoff-ms", "journal",
    "resume", "inject-fail"};

bool known_flag(std::string_view key) {
  return std::ranges::find(kKnownFlags, key) != std::end(kKnownFlags);
}

struct Flags {
  std::map<std::string, std::string> kv;

  [[nodiscard]] double number(const std::string& key, double def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::atof(it->second.c_str());
  }
  [[nodiscard]] bool flag(const std::string& key, bool def) const {
    return number(key, def ? 1 : 0) != 0;
  }
  [[nodiscard]] std::string str(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
};

void usage() {
  std::puts(
      "hicc_cli -- host interconnect congestion simulator\n"
      "\n"
      "workload:\n"
      "  --threads=N        receiver cores (default 12)\n"
      "  --senders=N        sender machines (default 40)\n"
      "  --read-kb=N        RPC read size in KB (default 16)\n"
      "  --pipeline=N       outstanding reads per flow (default 1)\n"
      "  --victims=N        latency-sensitive victim flows (default 0)\n"
      "receiver host:\n"
      "  --iommu=0|1        memory protection (default 1)\n"
      "  --hugepages=0|1    2M vs 4K data mappings (default 1)\n"
      "  --region-mb=N      Rx region per thread (default 12)\n"
      "  --iotlb=N          IOTLB entries (default 128)\n"
      "  --nic-buffer-kb=N  NIC input SRAM (default 1024)\n"
      "  --ats=0|1          device-side translation (default 0)\n"
      "  --strict=0|1       strict IOMMU invalidation (default 0)\n"
      "  --ddio=0|1         direct cache access (default 1)\n"
      "memory bus:\n"
      "  --antagonists=N    STREAM cores, 0-15 (default 0)\n"
      "  --remote-numa=0|1  antagonist on the other node (default 0)\n"
      "  --mba-gbs=X        antagonist bandwidth cap, GB/s (default off)\n"
      "protocol:\n"
      "  --cc=swift|tcp|host-signal   (default swift)\n"
      "  --host-target-us=N           Swift host target (default 100)\n"
      "topology (docs/TOPOLOGY.md):\n"
      "  --topology=LxSxH   run a Clos cluster instead of the single-host\n"
      "                     experiment: L leaves x S spines x H total hosts\n"
      "                     (H divides evenly across the leaves), e.g. 2x2x8.\n"
      "                     --senders is ignored; sender machines are the\n"
      "                     hosts that are not receivers. With --json, the\n"
      "                     record carries one hicc.sweep.v1 point per\n"
      "                     receiver host\n"
      "  --receivers=N      hosts 0..N-1 run full receiver stacks; the rest\n"
      "                     serve reads to every receiver (default 1)\n"
      "  --ecmp-seed=N      stateless ECMP hash seed (default 1)\n"
      "  --host-gbps=X      host-to-leaf link rate (default 100)\n"
      "  --fabric-gbps=X    leaf-to-spine link rate (default 100)\n"
      "  --antagonist-profile=A,B,...  per-receiver antagonist cores,\n"
      "                     cycled across receivers (heterogeneous fleet);\n"
      "                     overrides --antagonists on receiver hosts\n"
      "  --parallel=N       engine threads running the cluster's partitions\n"
      "                     (docs/PARALLELISM.md), N >= 1; 'auto' sizes the\n"
      "                     pool like --jobs (default 1). Results are\n"
      "                     bitwise-identical for every N\n"
      "open-loop workload (docs/WORKLOADS.md; needs --topology):\n"
      "  --workload=PATTERN run receivers open loop: flows arrive by a\n"
      "                     random process and retire through a recyclable\n"
      "                     flow pool instead of the closed-loop read\n"
      "                     pipeline. PATTERN: off|incast|uniform|\n"
      "                     allreduce_ring|allreduce_tree (default off)\n"
      "  --wl-rate=R        mean arrivals per receiver per second (1e5)\n"
      "  --wl-arrival=A     poisson|bursty inter-arrival process (poisson)\n"
      "  --wl-burst-factor=X    bursty: on-state rate multiplier (8)\n"
      "  --wl-burst-on=F        bursty: fraction of time on (0.2)\n"
      "  --wl-burst-period-us=N bursty: mean on+off cycle length (500)\n"
      "  --wl-size=D        fixed|websearch|hadoop flow sizes (fixed)\n"
      "  --wl-size-kb=N     flow size for --wl-size=fixed, KB (16)\n"
      "  --wl-fanout=N      incast fan-out width (8)\n"
      "  --wl-max-active=N  flow-pool slots per receiver -- the hard bound\n"
      "                     on active flows and workload memory (4096)\n"
      "  --wl-target-flows=N  stop injecting after N flows cluster-wide\n"
      "                     (0 = unbounded, the default)\n"
      "  --wl-sketch-error=A  FCT/slowdown/host-delay quantile-sketch\n"
      "                     relative error bound, in (0, 0.5) (0.01)\n"
      "  --columnar-out=PATH  also write the per-receiver record in the\n"
      "                     compact columnar hicc.sweepc.v1 form\n"
      "faults (docs/FAULTS.md):\n"
      "  --faults=SPEC      schedule mid-run disturbances. SPEC is a ';'-\n"
      "                     separated list of kind@time[+dur][/period][,k=v...]\n"
      "                     entries, e.g.\n"
      "                       --faults='mem.antagonist@5ms+2ms,cores=15'\n"
      "                       --faults='net.loss@1ms+500us/2ms,prob=0.05'\n"
      "                     net.* events target leaf=+spine= (a leaf-spine\n"
      "                     link) or host= (a host's uplink; single-host\n"
      "                     runs: host 0 the receiver, 1+i sender i); no\n"
      "                     target is the receiver's access link\n"
      "run control:\n"
      "  --warmup-ms=N --measure-ms=N --seed=N\n"
      "  --max-events=N     watchdog: abort the run after N executed\n"
      "                     simulator events (0 = unlimited, the default).\n"
      "                     The budget is per partition: a cluster of P\n"
      "                     partitions may run up to P x N. Counter-only\n"
      "                     datapath steps (most PCIe arrivals and write\n"
      "                     retirements) are not events and do not count\n"
      "  --timeline-us=N    print a metrics row every N us instead of a\n"
      "                     single summary\n"
      "telemetry (docs/OBSERVABILITY.md):\n"
      "  --trace=PATH       capture a probe time series: .csv -> long-format\n"
      "                     CSV, anything else -> Chrome trace_event JSON\n"
      "                     (open in chrome://tracing or ui.perfetto.dev).\n"
      "                     $HICC_TRACE is the env equivalent. With --runs,\n"
      "                     end-of-run probe values land in the sweep JSON\n"
      "                     as extra.trace.* instead of per-replica files\n"
      "  --trace-period-us=N  sampler tick in us (default 5)\n"
      "sweep (Monte-Carlo replicas):\n"
      "  --runs=N           run N replicas with per-replica seeds derived\n"
      "                     from --seed; prints each replica + mean/stddev\n"
      "  --jobs=N           sweep worker threads (default: $HICC_JOBS, else\n"
      "                     hardware concurrency)\n"
      "  --json=PATH        write the sweep's structured record as JSON\n"
      "crash isolation (docs/ROBUSTNESS.md; needs --runs):\n"
      "  --isolate          run each point in its own worker subprocess so\n"
      "                     a crashing/hanging/OOM-killed point is retried\n"
      "                     and, on give-up, recorded with its failure\n"
      "                     taxonomy instead of sinking the sweep. Records\n"
      "                     pin wall_seconds to 0, so isolated sweep JSON\n"
      "                     is bitwise deterministic\n"
      "  --point-timeout=S  SIGKILL a worker running longer than S seconds\n"
      "                     (wall clock; 0 = no timeout, the default)\n"
      "  --retries=N        extra attempts per failed point (default 2),\n"
      "                     with exponential backoff between attempts\n"
      "  --backoff-ms=N     backoff base, milliseconds (default 200)\n"
      "  --journal=PATH     append each finalized point durably to a\n"
      "                     hicc.sweep.journal.v1 file as it completes\n"
      "  --resume=PATH      skip the points already in PATH's journal and\n"
      "                     append the rest (implies --isolate; the merged\n"
      "                     JSON is bitwise identical to an uninterrupted\n"
      "                     run). Give the same flags as the original run\n"
      "  --inject-fail=I:M  testing aid: inject failure mode M into point\n"
      "                     I's worker (segv|abort|kill|hang|exit:N|\n"
      "                     flaky-segv:K|flaky-kill:K)\n"
      "  --point-worker     internal: run one point read from stdin and\n"
      "                     write its hicc.sweep.v1 record to stdout\n"
      "exit codes:\n"
      "  0 ok; 1 usage/IO error; 2 invalid configuration; 3 fault-script\n"
      "  or spec parse error; 4 run finished degraded (run_status != ok);\n"
      "  5 supervisor gave up on >= 1 point; 6 interrupted (SIGINT/\n"
      "  SIGTERM; partial results + journal flushed); 127 worker exec\n"
      "  failure");
}

void print_metrics(const hicc::Metrics& m) {
  std::printf("app throughput     %8.2f Gbps\n", m.app_throughput_gbps);
  std::printf("link utilization   %8.2f %%\n", m.link_utilization * 100);
  std::printf("host drop rate     %8.4f %%\n", m.drop_rate * 100);
  std::printf("IOTLB misses/pkt   %8.3f\n", m.iotlb_misses_per_packet);
  std::printf("host delay p50/p99 %8.1f / %.1f us\n", m.host_delay_p50_us,
              m.host_delay_p99_us);
  std::printf("memory bandwidth   %8.2f GB/s (nic %.2f, walks %.3f, copy %.2f, "
              "antagonist %.2f)\n",
              m.memory.total_gbytes_per_sec,
              m.memory.by_class_gbytes_per_sec[0], m.memory.by_class_gbytes_per_sec[1],
              m.memory.by_class_gbytes_per_sec[2], m.memory.by_class_gbytes_per_sec[3]);
  if (m.remote_memory.total_gbytes_per_sec > 0.01) {
    std::printf("remote-node memory %8.2f GB/s\n", m.remote_memory.total_gbytes_per_sec);
  }
  if (m.victim_reads > 0) {
    std::printf("victim reads       %8lld (p50 %.1f us, p99 %.1f us)\n",
                static_cast<long long>(m.victim_reads), m.victim_read_p50_us,
                m.victim_read_p99_us);
  }
  std::printf("packets            %lld delivered, %lld dropped, %lld retransmitted\n",
              static_cast<long long>(m.delivered_packets),
              static_cast<long long>(m.nic_buffer_drops),
              static_cast<long long>(m.retransmits));
  std::printf("pipeline stalls    %lld translation, %lld write-buffer\n",
              static_cast<long long>(m.pcie_translation_stalls),
              static_cast<long long>(m.pcie_write_buffer_stalls));
  if (m.fault_windows > 0) {
    std::printf("fault windows      %8lld (active %.1f us, blind %.1f us, %lld drops)\n",
                static_cast<long long>(m.fault_windows), m.fault_active_us, m.fault_blind_us,
                static_cast<long long>(m.fault_drops));
  }
  std::printf("simulated          %.1f ms (%llu events)\n", m.simulated_seconds * 1e3,
              static_cast<unsigned long long>(m.events_executed));
  if (m.run_status != hicc::RunStatus::kOk) {
    std::printf("run status         %s (%s)\n", hicc::to_string(m.run_status),
                m.run_status_detail.c_str());
  }
}

/// True when `key` is a per-host probe harvest ("trace.host<h>.name"),
/// in which case *host receives h. Global probes ("trace.nic.x") and
/// non-trace extras return false.
bool host_scoped_probe(const std::string& key, int* host) {
  constexpr char kPrefix[] = "trace.host";
  if (key.rfind(kPrefix, 0) != 0) return false;
  std::size_t i = sizeof(kPrefix) - 1;
  const std::size_t digits_start = i;
  int h = 0;
  while (i < key.size() && key[i] >= '0' && key[i] <= '9') {
    h = h * 10 + (key[i] - '0');
    ++i;
  }
  if (i == digits_start || i >= key.size() || key[i] != '.') return false;
  *host = h;
  return true;
}

int run_topology(const Flags& flags, hicc::ExperimentConfig host_cfg,
                 const std::string& trace_path) {
  const std::string spec = flags.str("topology", "");
  int leaves = 0, spines = 0, hosts = 0;
  char excess = '\0';
  if (std::sscanf(spec.c_str(), "%dx%dx%d%c", &leaves, &spines, &hosts, &excess) != 3) {
    std::fprintf(stderr, "bad --topology=%s (want LEAVESxSPINESxHOSTS, e.g. 2x2x8)\n",
                 spec.c_str());
    return kExitConfigInvalid;
  }
  if (leaves <= 0 || hosts <= 0 || hosts % leaves != 0) {
    std::fprintf(stderr,
                 "bad --topology=%s: total hosts (%d) must divide evenly across "
                 "%d leaves\n",
                 spec.c_str(), hosts, leaves);
    return kExitConfigInvalid;
  }
  if (flags.number("runs", 0) > 0 || flags.number("timeline-us", 0) > 0) {
    std::fprintf(stderr, "--topology is a single cluster run; drop --runs/--timeline-us\n");
    return kExitUsage;
  }

  hicc::ClusterConfig cfg;
  cfg.host = std::move(host_cfg);
  cfg.faults = std::move(cfg.host.faults);
  cfg.host.faults = hicc::fault::FaultScript{};
  cfg.topology.leaves = leaves;
  cfg.topology.spines = spines;
  cfg.topology.hosts_per_leaf = hosts / leaves;
  cfg.topology.ecmp_seed = static_cast<std::uint64_t>(flags.number("ecmp-seed", 1));
  cfg.topology.host_link_rate = hicc::BitRate::gbps(flags.number("host-gbps", 100));
  cfg.topology.fabric_link_rate = hicc::BitRate::gbps(flags.number("fabric-gbps", 100));
  cfg.receivers = static_cast<int>(flags.number("receivers", 1));
  const std::string wl_pattern = flags.str("workload", "off");
  if (!hicc::workload::pattern_from_string(wl_pattern.c_str(), &cfg.workload.pattern)) {
    std::fprintf(stderr,
                 "unknown --workload=%s (off|incast|uniform|allreduce_ring|"
                 "allreduce_tree)\n",
                 wl_pattern.c_str());
    return kExitConfigInvalid;
  }
  const std::string wl_arrival = flags.str("wl-arrival", "poisson");
  if (!hicc::workload::arrival_from_string(wl_arrival.c_str(), &cfg.workload.arrival)) {
    std::fprintf(stderr, "unknown --wl-arrival=%s (poisson|bursty)\n", wl_arrival.c_str());
    return kExitConfigInvalid;
  }
  const std::string wl_size = flags.str("wl-size", "fixed");
  if (!hicc::workload::size_dist_from_string(wl_size.c_str(), &cfg.workload.size_dist)) {
    std::fprintf(stderr, "unknown --wl-size=%s (fixed|websearch|hadoop)\n", wl_size.c_str());
    return kExitConfigInvalid;
  }
  cfg.workload.rate_per_s = flags.number("wl-rate", cfg.workload.rate_per_s);
  cfg.workload.burst_factor = flags.number("wl-burst-factor", cfg.workload.burst_factor);
  cfg.workload.burst_on_fraction = flags.number("wl-burst-on", cfg.workload.burst_on_fraction);
  cfg.workload.burst_period =
      TimePs::from_us(flags.number("wl-burst-period-us", cfg.workload.burst_period.us()));
  cfg.workload.fixed_size = hicc::Bytes(static_cast<std::int64_t>(
      flags.number("wl-size-kb", static_cast<double>(cfg.workload.fixed_size.count()) / 1024.0) *
      1024.0));
  cfg.workload.fanout = static_cast<int>(flags.number("wl-fanout", cfg.workload.fanout));
  cfg.workload.max_active =
      static_cast<int>(flags.number("wl-max-active", cfg.workload.max_active));
  cfg.workload.target_flows =
      static_cast<std::int64_t>(flags.number("wl-target-flows", 0));
  cfg.workload.sketch_relative_error =
      flags.number("wl-sketch-error", cfg.workload.sketch_relative_error);
  if (cfg.workload.enabled()) cfg.host.victim_flows = 0;
  const std::string antag_profile = flags.str("antagonist-profile", "");
  if (!antag_profile.empty()) {
    // Comma-separated per-receiver antagonist core counts, repeated
    // cyclically across receivers (heterogeneous-fleet modeling).
    std::size_t pos = 0;
    while (pos < antag_profile.size()) {
      std::size_t used = 0;
      int cores = 0;
      try {
        cores = std::stoi(antag_profile.substr(pos), &used);
      } catch (...) {
        used = 0;
      }
      if (used == 0) {
        std::fprintf(stderr, "bad --antagonist-profile=%s (comma-separated core counts)\n",
                     antag_profile.c_str());
        return kExitConfigInvalid;
      }
      cfg.antagonist_profile.push_back(cores);
      pos += used;
      if (pos < antag_profile.size() && antag_profile[pos] == ',') ++pos;
    }
  }

  const std::string parallel = flags.str("parallel", "1");
  if (parallel == "auto") {
    // Same pool-sizing rule as sweep --jobs ($HICC_JOBS, then hardware
    // concurrency); the engine clamps to the partition count.
    cfg.parallelism = hicc::sweep::SweepRunner::resolve_jobs(0);
  } else {
    cfg.parallelism = static_cast<int>(flags.number("parallel", 1));
  }

  if (const auto violations = hicc::validate(cfg); !violations.empty()) {
    std::fprintf(stderr, "invalid cluster configuration (%zu problem(s)):\n",
                 violations.size());
    for (const auto& v : violations) {
      std::fprintf(stderr, "  %s: %s\n", v.field.c_str(), v.message.c_str());
    }
    return kExitConfigInvalid;
  }

  hicc::ClusterExperiment exp(std::move(cfg));
  hicc::trace::FileTraceSink trace_file;
  if (!trace_path.empty() && !trace_file.open(*exp.tracer(), trace_path)) {
    std::fprintf(stderr, "failed to open trace file %s\n", trace_path.c_str());
    return 1;
  }

  const hicc::ClusterMetrics cm = exp.run();

  // End-of-run probe values, harvested while the tracer is live; each
  // receiver's JSON point gets the global probes plus its own host<r>.*
  // slice.
  hicc::sweep::SweepResult probes;
  hicc::sweep::harvest_trace_probes(exp.tracer(), probes);

  hicc::Table t({"host", "app_gbps", "drop_pct", "miss_per_pkt", "p99_us", "mem_gbs",
                 "port_drops"});
  for (int r = 0; r < exp.num_receivers(); ++r) {
    const hicc::Metrics& m = cm.per_receiver[static_cast<std::size_t>(r)];
    t.add_row({static_cast<std::int64_t>(r), m.app_throughput_gbps, m.drop_rate * 100.0,
               m.iotlb_misses_per_packet, m.host_delay_p99_us,
               m.memory.total_gbytes_per_sec, exp.fabric().host_port_drops(r)});
  }
  t.print(std::cout, 3);
  std::printf("cluster             %dL x %dS x %dH, %d receiver(s), %d sender machine(s)\n",
              exp.config().topology.leaves, exp.config().topology.spines,
              exp.config().topology.num_hosts(), exp.num_receivers(),
              exp.num_sender_hosts());
  std::printf("total throughput   %8.2f Gbps (max p99 %.1f us)\n",
              cm.total_app_throughput_gbps, cm.max_host_delay_p99_us);
  std::printf("packets            %lld sent, %lld host drops, %lld fabric drops\n",
              static_cast<long long>(cm.total_data_packets_sent),
              static_cast<long long>(cm.total_nic_buffer_drops),
              static_cast<long long>(cm.total_fabric_drops));
  std::printf("simulated          %.1f ms (%llu events)\n", cm.simulated_seconds * 1e3,
              static_cast<unsigned long long>(cm.events_executed));
  std::printf("parallel engine    %d partitions, %llu windows, %llu cross-partition "
              "messages\n",
              cm.partitions, static_cast<unsigned long long>(cm.parallel_windows),
              static_cast<unsigned long long>(cm.parallel_messages));
  if (cm.workload.enabled) {
    std::printf("workload           %s/%s/%s: %lld started, %lld completed, %lld "
                "pool-limited, %lld active\n",
                hicc::workload::to_string(exp.config().workload.pattern),
                hicc::workload::to_string(exp.config().workload.arrival),
                hicc::workload::to_string(exp.config().workload.size_dist),
                static_cast<long long>(cm.workload.flows_started),
                static_cast<long long>(cm.workload.flows_completed),
                static_cast<long long>(cm.workload.pool_exhausted),
                static_cast<long long>(cm.workload.active_flows));
    std::printf("flow completion    p50 %.1f / p99 %.1f / p99.9 %.1f us "
                "(slowdown p99 %.2fx)\n",
                cm.workload.fct_p50_us, cm.workload.fct_p99_us, cm.workload.fct_p999_us,
                cm.workload.slowdown_p99);
  }
  if (cm.run_status != hicc::RunStatus::kOk) {
    std::printf("run status         %s\n", hicc::to_string(cm.run_status));
  }

  int rc = 0;
  if (!trace_path.empty()) {
    if (trace_file.close(*exp.tracer())) {
      std::printf("(trace written to %s)\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace file %s\n", trace_path.c_str());
      rc = 1;
    }
  }

  const std::string json_path = flags.str("json", "");
  const std::string columnar_path = flags.str("columnar-out", "");
  if (!json_path.empty() || !columnar_path.empty()) {
    // One hicc.sweep.v1 point per receiver host, plus that receiver's
    // slice of the trace probes.
    std::vector<hicc::sweep::SweepResult> points = hicc::sweep::cluster_points(exp, cm, 0);
    for (hicc::sweep::SweepResult& p : points) {
      const int r = static_cast<int>(p.index);
      for (const auto& [key, value] : probes.extra) {
        int h = -1;
        if (!host_scoped_probe(key, &h) || h == r) p.extra[key] = value;
      }
    }
    if (!json_path.empty()) {
      if (hicc::sweep::save_json(points, json_path)) {
        std::printf("(cluster record written to %s)\n", json_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        rc = 1;
      }
    }
    if (!columnar_path.empty()) {
      if (hicc::sweep::save_columnar(points, columnar_path)) {
        std::printf("(columnar record written to %s)\n", columnar_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", columnar_path.c_str());
        rc = 1;
      }
    }
  }
  // A degraded end (watchdog abort, mailbox overflow) outranks ok but
  // not an output-file failure.
  if (rc == 0 && cm.run_status != hicc::RunStatus::kOk) rc = kExitAborted;
  return rc;
}

/// The --runs --isolate path: the sweep under the crash-isolating
/// supervisor, each point a `hicc_cli --point-worker` subprocess.
int run_isolated_sweep(const Flags& flags, const hicc::ExperimentConfig& cfg, int runs) {
  std::vector<hicc::ExperimentConfig> points(static_cast<std::size_t>(runs), cfg);
  // Same per-replica seed derivation as the in-process SweepRunner's
  // reseed path, so isolated and in-process sweeps simulate the same
  // points.
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].seed = hicc::derive_seed(cfg.seed, i);
  }

  hicc::sweep::SupervisorOptions opts;
  opts.params.point_timeout_s = flags.number("point-timeout", 0.0);
  opts.params.max_attempts = 1 + static_cast<int>(flags.number("retries", 2));
  opts.params.backoff_base_s = flags.number("backoff-ms", 200.0) / 1e3;
  opts.params.backoff_cap_s = std::max(opts.params.backoff_base_s, 5.0);
  opts.params.jobs = static_cast<int>(flags.number("jobs", 0));
  // The worker is this very binary; /proc/self/exe survives argv[0]
  // being a bare name found via $PATH.
  opts.worker_argv = {"/proc/self/exe", "--point-worker"};
  opts.stop_flag = &g_stop;
  opts.log = &std::cerr;

  const std::string resume = flags.str("resume", "");
  opts.journal_path = flags.str("journal", "");
  if (!resume.empty()) {
    if (!opts.journal_path.empty() && opts.journal_path != resume) {
      std::fprintf(stderr, "--journal and --resume must name the same file\n");
      return kExitUsage;
    }
    opts.journal_path = resume;
    opts.resume = true;
  }

  const std::string inject = flags.str("inject-fail", "");
  if (!inject.empty()) {
    const auto colon = inject.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bad --inject-fail=%s (want INDEX:MODE)\n", inject.c_str());
      return kExitUsage;
    }
    const std::size_t target = static_cast<std::size_t>(std::atoll(inject.c_str()));
    const std::string mode = inject.substr(colon + 1);
    opts.decorate = [target, mode](std::size_t i) {
      return i == target ? "inject=" + mode + "\n" : std::string();
    };
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  hicc::sweep::SupervisorOutcome outcome;
  const hicc::sweep::Supervisor supervisor(opts);
  try {
    outcome = supervisor.run(points);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitUsage;
  }

  hicc::Table t({"point", "status", "attempts", "detail"});
  for (const auto& p : outcome.points) {
    t.add_row({static_cast<std::int64_t>(p.index),
               std::string(p.completed ? hicc::to_string(p.status) : "incomplete"),
               static_cast<std::int64_t>(p.attempts), p.detail});
  }
  t.print(std::cout, 3);
  std::printf("%zu/%d points completed (%zu resumed, %zu failed, %zu degraded) on %d "
              "worker(s)\n",
              outcome.completed, runs, outcome.resumed, outcome.failures, outcome.degraded,
              supervisor.jobs());

  int rc = kExitOk;
  if (outcome.interrupted) {
    rc = kExitInterrupted;
    if (!opts.journal_path.empty()) {
      std::printf("interrupted; finalized points are journaled -- rerun with "
                  "--resume=%s to finish\n",
                  opts.journal_path.c_str());
    } else {
      std::printf("interrupted (no --journal, completed points are lost)\n");
    }
  } else if (outcome.failures > 0) {
    rc = kExitGiveUp;
  } else if (outcome.degraded > 0) {
    rc = kExitAborted;
  }

  const std::string json_path = flags.str("json", "");
  if (!json_path.empty()) {
    if (hicc::sweep::save_merged_json(outcome, json_path)) {
      std::printf("(%ssweep record written to %s)\n",
                  outcome.interrupted ? "partial " : "", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      if (rc == kExitOk) rc = kExitUsage;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first: the supervisor fork/execs this same binary with
  // --point-worker; everything it needs arrives on stdin.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--point-worker") == 0) {
      return hicc::sweep::run_point_worker(std::cin, std::cout, std::cerr);
    }
  }

  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      return 1;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? arg.npos : eq - 2);
    const std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    if (!known_flag(key)) {
      std::fprintf(stderr, "unknown flag --%s (try --help)\n", key.c_str());
      return kExitUsage;
    }
    flags.kv[key] = value;
  }

  hicc::ExperimentConfig cfg;
  cfg.rx_threads = static_cast<int>(flags.number("threads", 12));
  cfg.num_senders = static_cast<int>(flags.number("senders", 40));
  cfg.read_size = hicc::Bytes(static_cast<std::int64_t>(flags.number("read-kb", 16) * 1024));
  cfg.read_pipeline = static_cast<int>(flags.number("pipeline", 1));
  cfg.victim_flows = static_cast<int>(flags.number("victims", 0));
  cfg.iommu_enabled = flags.flag("iommu", true);
  cfg.hugepages = flags.flag("hugepages", true);
  cfg.data_region = hicc::Bytes::mib(flags.number("region-mb", 12));
  cfg.iommu.iotlb_entries = static_cast<int>(flags.number("iotlb", 128));
  cfg.nic.input_buffer =
      hicc::Bytes(static_cast<std::int64_t>(flags.number("nic-buffer-kb", 1024) * 1024));
  cfg.ats_enabled = flags.flag("ats", false);
  cfg.strict_iommu = flags.flag("strict", false);
  cfg.ddio.enabled = flags.flag("ddio", true);
  cfg.antagonist_cores = static_cast<int>(flags.number("antagonists", 0));
  cfg.antagonist_remote_numa = flags.flag("remote-numa", false);
  cfg.antagonist_throttle_gbps = flags.number("mba-gbs", 0.0);
  cfg.swift.host_target = TimePs::from_us(flags.number("host-target-us", 100));
  cfg.warmup = TimePs::from_ms(flags.number("warmup-ms", 10));
  cfg.measure = TimePs::from_ms(flags.number("measure-ms", 20));
  cfg.seed = static_cast<std::uint64_t>(flags.number("seed", 1));
  cfg.watchdog.max_events = static_cast<std::uint64_t>(flags.number("max-events", 0));

  const std::string faults_spec = flags.str("faults", "");
  if (!faults_spec.empty()) {
    hicc::fault::ParseResult parsed = hicc::fault::parse_script(faults_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid --faults spec:\n");
      for (const auto& err : parsed.errors) std::fprintf(stderr, "  %s\n", err.c_str());
      return kExitFaultParse;
    }
    cfg.faults = std::move(parsed.script);
  }

  const char* trace_env = std::getenv("HICC_TRACE");
  const std::string trace_path =
      flags.str("trace", trace_env != nullptr ? trace_env : "");
  if (!trace_path.empty()) {
    cfg.trace.enabled = true;
    cfg.trace.sample_period = TimePs::from_us(flags.number("trace-period-us", 5));
  }

  const std::string cc = flags.str("cc", "swift");
  if (cc == "tcp") {
    cfg.cc = hicc::transport::CcAlgorithm::kTcpLike;
  } else if (cc == "host-signal") {
    cfg.cc = hicc::transport::CcAlgorithm::kHostSignal;
  } else if (cc == "swift") {
    cfg.cc = hicc::transport::CcAlgorithm::kSwift;
  } else {
    std::fprintf(stderr, "unknown --cc=%s (swift|tcp|host-signal)\n", cc.c_str());
    return kExitConfigInvalid;
  }

  // A --topology run validates and executes as a ClusterConfig; the
  // flag-built cfg becomes its per-host template (with faults promoted
  // to cluster scope, so host= indices name cluster hosts).
  if (!flags.str("topology", "").empty()) {
    return run_topology(flags, std::move(cfg), trace_path);
  }

  // Reject a nonsensical configuration with every problem at once,
  // before any experiment is built.
  if (const auto violations = hicc::validate(cfg); !violations.empty()) {
    std::fprintf(stderr, "invalid configuration (%zu problem(s)):\n", violations.size());
    for (const auto& v : violations) {
      std::fprintf(stderr, "  %s: %s\n", v.field.c_str(), v.message.c_str());
    }
    return kExitConfigInvalid;
  }

  const int runs = static_cast<int>(flags.number("runs", 0));
  if (runs > 0) {
    // --resume implies isolation: only the supervisor journals points.
    if (flags.flag("isolate", false) || !flags.str("resume", "").empty()) {
      return run_isolated_sweep(flags, cfg, runs);
    }
    std::vector<hicc::ExperimentConfig> points(static_cast<std::size_t>(runs), cfg);
    hicc::sweep::SweepOptions opts;
    opts.jobs = static_cast<int>(flags.number("jobs", 0));
    opts.reseed = true;
    opts.sweep_seed = cfg.seed;
    // Replicas do not write per-run trace files; instead each point's
    // final probe values are harvested into SweepResult::extra.
    if (cfg.trace.enabled) opts.probe = hicc::sweep::harvest_trace;
    const hicc::sweep::SweepRunner runner(opts);
    const auto results = runner.run(std::move(points));

    hicc::Table t({"run", "seed", "app_gbps", "drop_pct", "miss_per_pkt",
                   "p99_us", "mem_gbs", "wall_s"});
    double sum = 0.0, sumsq = 0.0;
    for (const auto& r : results) {
      const hicc::Metrics& m = r.metrics;
      sum += m.app_throughput_gbps;
      sumsq += m.app_throughput_gbps * m.app_throughput_gbps;
      t.add_row({static_cast<std::int64_t>(r.index),
                 std::to_string(r.config.seed), m.app_throughput_gbps,
                 m.drop_rate * 100.0, m.iotlb_misses_per_packet, m.host_delay_p99_us,
                 m.memory.total_gbytes_per_sec, r.wall_seconds});
    }
    t.print(std::cout, 3);
    const double n = static_cast<double>(runs);
    const double mean = sum / n;
    const double var = runs > 1 ? std::max(0.0, (sumsq - n * mean * mean) / (n - 1)) : 0.0;
    std::printf("app throughput: mean %.2f Gbps, stddev %.3f over %d runs "
                "(%d workers)\n",
                mean, std::sqrt(var), runs, runner.jobs());

    const std::string json_path = flags.str("json", "");
    if (!json_path.empty()) {
      if (hicc::sweep::save_json(results, json_path)) {
        std::printf("(sweep record written to %s)\n", json_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
      }
    }
    return 0;
  }

  hicc::Experiment exp(cfg);
  hicc::trace::FileTraceSink trace_file;
  if (!trace_path.empty() && !trace_file.open(*exp.tracer(), trace_path)) {
    std::fprintf(stderr, "failed to open trace file %s\n", trace_path.c_str());
    return 1;
  }
  // Closes the capture (final sample + footer) while `exp` is alive.
  const auto close_trace = [&]() -> bool {
    if (trace_path.empty()) return true;
    if (!trace_file.close(*exp.tracer())) {
      std::fprintf(stderr, "failed to write trace file %s\n", trace_path.c_str());
      return false;
    }
    std::printf("(trace written to %s)\n", trace_path.c_str());
    return true;
  };

  const double timeline_us = flags.number("timeline-us", 0.0);
  if (timeline_us > 0.0) {
    exp.start();
    exp.advance(cfg.warmup);
    std::printf("%10s %10s %9s %9s %10s %10s\n", "t_ms", "app_gbps", "drop%", "miss/pkt",
                "p99_us", "mem_gbs");
    TimePs t = cfg.warmup;
    while (t < cfg.warmup + cfg.measure) {
      exp.begin_window();
      exp.advance(TimePs::from_us(timeline_us));
      t += TimePs::from_us(timeline_us);
      const hicc::Metrics m = exp.snapshot();
      std::printf("%10.2f %10.2f %9.3f %9.2f %10.1f %10.1f\n", t.us() / 1000.0,
                  m.app_throughput_gbps, m.drop_rate * 100, m.iotlb_misses_per_packet,
                  m.host_delay_p99_us, m.memory.total_gbytes_per_sec);
    }
    return close_trace() ? 0 : 1;
  }

  const hicc::Metrics metrics = exp.run();
  print_metrics(metrics);
  if (!close_trace()) return 1;
  return metrics.run_status == hicc::RunStatus::kOk ? kExitOk : kExitAborted;
}
