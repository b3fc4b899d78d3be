// ClusterExperiment: the degenerate one-leaf mapping reproducing the
// legacy Experiment's physical metrics, cluster determinism under
// equal seeds, many-to-many traffic, cluster config validation, and
// the per-host probe prefixing of traced cluster runs.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/script.h"
#include "trace/trace.h"

namespace hicc {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.rx_threads = 2;
  cfg.num_senders = 4;
  cfg.warmup = TimePs::from_us(200);
  cfg.measure = TimePs::from_us(500);
  return cfg;
}

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.host = small_config();
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 4;
  return cfg;
}

// Every physical Metrics field; the executed-event count is compared
// separately where the two runs share an engine.
void expect_physically_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.app_throughput_gbps, b.app_throughput_gbps);
  EXPECT_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.iotlb_misses_per_packet, b.iotlb_misses_per_packet);
  EXPECT_EQ(a.memory.total_gbytes_per_sec, b.memory.total_gbytes_per_sec);
  EXPECT_EQ(a.remote_memory.total_gbytes_per_sec, b.remote_memory.total_gbytes_per_sec);
  EXPECT_EQ(a.host_delay_p50_us, b.host_delay_p50_us);
  EXPECT_EQ(a.host_delay_p99_us, b.host_delay_p99_us);
  EXPECT_EQ(a.host_delay_max_us, b.host_delay_max_us);
  EXPECT_EQ(a.data_packets_sent, b.data_packets_sent);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.rto_fires, b.rto_fires);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.nic_buffer_drops, b.nic_buffer_drops);
  EXPECT_EQ(a.fabric_drops, b.fabric_drops);
  EXPECT_EQ(a.iotlb_misses, b.iotlb_misses);
  EXPECT_EQ(a.iotlb_lookups, b.iotlb_lookups);
  EXPECT_EQ(a.pcie_translation_stalls, b.pcie_translation_stalls);
  EXPECT_EQ(a.pcie_write_buffer_stalls, b.pcie_write_buffer_stalls);
  EXPECT_EQ(a.hol_descriptor_stalls, b.hol_descriptor_stalls);
  EXPECT_EQ(a.victim_reads, b.victim_reads);
  EXPECT_EQ(a.victim_read_p99_us, b.victim_read_p99_us);
  EXPECT_EQ(a.avg_cwnd, b.avg_cwnd);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
}

void expect_bitwise_identical(const Metrics& a, const Metrics& b) {
  expect_physically_identical(a, b);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

// ------------------------------------------------------------ parity

// A one-leaf Clos with transport-only senders models the legacy
// single-receiver experiment -- same RNG fork order, same link
// sequence, same harvest math -- so every Metrics field reproduces bit
// for bit, events_executed included: a cross-partition link's
// occupancy release is a reserved slot, not an event. This config is
// uncongested enough that no cross-partition delivery lands on the
// same picosecond as a host-local event; congested configs order such
// ties differently and drift apart (docs/TOPOLOGY.md).
TEST(ClusterParity, DegenerateClosReproducesLegacyMetricsBitwise) {
  for (const std::uint64_t seed : {1u, 7u, 4242u}) {
    SCOPED_TRACE(seed);
    ExperimentConfig cfg = small_config();
    cfg.seed = seed;
    Experiment legacy(cfg);
    const Metrics lm = legacy.run();

    const ClusterConfig cc = degenerate_cluster(cfg);
    ASSERT_TRUE(validate(cc).empty()) << describe(validate(cc));
    ClusterExperiment cluster(cc);
    const ClusterMetrics cm = cluster.run();

    ASSERT_EQ(cm.per_receiver.size(), 1u);
    expect_bitwise_identical(lm, cm.per_receiver[0]);
    EXPECT_EQ(cm.run_status, RunStatus::kOk);
    EXPECT_EQ(cm.total_nic_buffer_drops, lm.nic_buffer_drops);
    EXPECT_EQ(cm.total_data_packets_sent, lm.data_packets_sent);
    EXPECT_EQ(cm.total_fabric_drops, lm.fabric_drops);
  }
}

TEST(ClusterParity, DegenerateMappingPreservesShape) {
  const ClusterConfig cc = degenerate_cluster(small_config());
  EXPECT_EQ(cc.topology.leaves, 1);
  EXPECT_EQ(cc.topology.spines, 1);
  EXPECT_EQ(cc.topology.num_hosts(), small_config().num_senders + 1);
  EXPECT_EQ(cc.receivers, 1);
  EXPECT_FALSE(cc.sender_stack_streams);
}

// ----------------------------------------------------- determinism

TEST(ClusterDeterminism, SameSeedReproducesEveryReceiverBitwise) {
  ClusterConfig cfg = small_cluster();
  cfg.receivers = 2;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment a(cfg);
  ClusterExperiment b(cfg);
  const ClusterMetrics ma = a.run();
  const ClusterMetrics mb = b.run();

  ASSERT_EQ(ma.per_receiver.size(), 2u);
  ASSERT_EQ(mb.per_receiver.size(), 2u);
  for (std::size_t r = 0; r < ma.per_receiver.size(); ++r) {
    expect_bitwise_identical(ma.per_receiver[r], mb.per_receiver[r]);
  }
  EXPECT_EQ(ma.total_fabric_drops, mb.total_fabric_drops);
  EXPECT_EQ(ma.events_executed, mb.events_executed);
}

TEST(ClusterDeterminism, SeedChangesTheRun) {
  ClusterConfig cfg = small_cluster();
  ClusterExperiment a(cfg);
  cfg.host.seed += 1;
  ClusterExperiment b(cfg);
  const ClusterMetrics ma = a.run();
  const ClusterMetrics mb = b.run();
  EXPECT_NE(ma.events_executed, mb.events_executed);
}

// ---------------------------------------------------- many-to-many

TEST(ClusterRun, ManyToManyDeliversToEveryReceiver) {
  ClusterConfig cfg = small_cluster();
  cfg.receivers = 2;  // 2 receivers x 6 sender machines across 2 leaves
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment exp(cfg);
  EXPECT_EQ(exp.num_receivers(), 2);
  EXPECT_EQ(exp.num_sender_hosts(), 6);
  const ClusterMetrics m = exp.run();

  ASSERT_EQ(m.per_receiver.size(), 2u);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
  double total = 0.0;
  for (const Metrics& r : m.per_receiver) {
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_GT(r.app_throughput_gbps, 0.0);
    total += r.app_throughput_gbps;
  }
  EXPECT_EQ(m.total_app_throughput_gbps, total);
  // The paper's claim, per receiver: the fabric is uncongested; any
  // loss happens at the hosts.
  EXPECT_EQ(m.total_fabric_drops, 0);
}

TEST(ClusterRun, IncastKeepsAllDropsAtTheHost) {
  ClusterConfig cfg = small_cluster();
  ASSERT_TRUE(validate(cfg).empty());
  ClusterExperiment exp(cfg);
  const ClusterMetrics m = exp.run();
  ASSERT_EQ(m.per_receiver.size(), 1u);
  EXPECT_GT(m.per_receiver[0].delivered_packets, 0);
  EXPECT_EQ(m.per_receiver[0].fabric_drops, 0);
  EXPECT_EQ(m.total_fabric_drops, 0);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
}

// ------------------------------------------------------- validation

TEST(ClusterValidation, AcceptsDefaultAndDegenerateConfigs) {
  EXPECT_TRUE(validate(ClusterConfig{}).empty());
  EXPECT_TRUE(validate(small_cluster()).empty());
  EXPECT_TRUE(validate(degenerate_cluster(ExperimentConfig{})).empty());
}

TEST(ClusterValidation, AggregatesTopologyHostAndFaultViolations) {
  ClusterConfig bad = small_cluster();
  bad.topology.spines = 0;                       // topology shape
  bad.topology.host_link_rate = BitRate::gbps(0);  // dead edge links
  bad.receivers = 99;                            // more receivers than hosts
  bad.host.rx_threads = 0;                       // per-host template
  bad.faults = fault::parse_script("net.link_down@1ms,link=2").script;  // unknown key

  const auto violations = validate(bad);
  std::set<std::string> fields;
  for (const auto& v : violations) fields.insert(v.field);
  EXPECT_TRUE(fields.count("topology.spines"));
  EXPECT_TRUE(fields.count("topology.host_link_rate"));
  EXPECT_TRUE(fields.count("receivers"));
  EXPECT_TRUE(fields.count("host.rx_threads"));
  // Scripts address links by topology coordinates; `link=` is not a
  // key of any run.
  EXPECT_TRUE(fields.count("faults[0].link"));
}

TEST(ClusterValidation, ChecksTopologyFaultTargets) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = fault::parse_script(
                   "net.link_down@1ms,leaf=5,spine=0;"  // leaf out of range
                   "net.rate@1ms,spine=1,gbps=25;"      // spine without leaf
                   "net.loss@1ms,host=64,prob=0.1;"     // host out of range
                   "net.link_down@1ms,host=2,leaf=0,spine=1")  // exclusive
                   .script;
  const auto violations = validate(cfg);
  std::set<std::string> fields;
  for (const auto& v : violations) fields.insert(v.field);
  EXPECT_TRUE(fields.count("faults[0].leaf"));
  EXPECT_TRUE(fields.count("faults[1].leaf"));
  EXPECT_TRUE(fields.count("faults[2].host"));
  EXPECT_TRUE(fields.count("faults[3].host"));

  cfg.faults = fault::parse_script(
                   "net.link_down@1ms,leaf=1,spine=0;"
                   "net.rate@1ms,host=3,gbps=25;"
                   "net.loss@1ms,prob=0.05")
                   .script;
  EXPECT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
}

// ----------------------------------------------------- trace probes

TEST(ClusterTrace, ComponentProbesCarryTheHostPrefix) {
  ClusterConfig cfg = small_cluster();
  cfg.receivers = 2;
  cfg.host.trace.enabled = true;
  ClusterExperiment exp(cfg);
  ASSERT_NE(exp.tracer(), nullptr);

  // Every receiver's component probes appear under its own prefix...
  for (int r = 0; r < 2; ++r) {
    for (const char* name : {"nic.buffer_drops", "iommu.iotlb_misses", "mem.bandwidth_gbps",
                             "host.rx_queue_pkts"}) {
      EXPECT_TRUE(exp.tracer()->find(trace::host_probe(r, name)).has_value())
          << trace::host_probe(r, name);
    }
    // ...plus the cluster-level port accounting for that host.
    EXPECT_TRUE(exp.tracer()->find(trace::host_probe(r, "cluster.port_drops")).has_value());
    EXPECT_TRUE(
        exp.tracer()->find(trace::host_probe(r, "cluster.port_queue_bytes")).has_value());
  }
  // Sender machines (hosts 2..7) carry no host stack, only their
  // serving transports' histograms.
  for (int g = 2; g < 8; ++g) {
    EXPECT_FALSE(exp.tracer()->find(trace::host_probe(g, "nic.buffer_drops")).has_value())
        << trace::host_probe(g, "nic.buffer_drops");
    EXPECT_TRUE(exp.tracer()->find(trace::host_probe(g, "transport.rtt_us")).has_value())
        << trace::host_probe(g, "transport.rtt_us");
  }
  // The run-global transport gauge stays unprefixed, and no unprefixed
  // component probe leaks into a cluster run.
  EXPECT_TRUE(exp.tracer()->find("transport.cwnd_avg").has_value());
  EXPECT_FALSE(exp.tracer()->find("nic.buffer_drops").has_value());
}

TEST(ClusterTrace, HostProbeSpellsThePrefix) {
  EXPECT_EQ(trace::host_prefix(3), "host3.");
  EXPECT_EQ(trace::host_probe(0, "nic.buffer_drops"), "host0.nic.buffer_drops");
}

}  // namespace
}  // namespace hicc
