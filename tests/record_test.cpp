// Golden bytes of every record format the sweep layer writes: one
// hicc.sweep.v1 point, both hicc.point.v1 spec forms, and a ragged
// two-row hicc.sweepc.v1 document. Each fixture sets every record
// field to a distinct non-default value, so a dropped, renamed,
// reordered or re-formatted key changes the bytes. A sweep journal is
// resumed by its specs' fingerprint (docs/ROBUSTNESS.md), so the
// hicc.sweep.v1 and hicc.point.v1 goldens must never move; the
// columnar golden may only gain columns. The same fixture checks that
// the tests' shared Metrics comparator sees every record key.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/metrics.h"
#include "fault/script.h"
#include "same_metrics.h"
#include "sweep/columnar.h"
#include "sweep/sweep.h"
#include "sweep/worker.h"

namespace hicc::sweep {
namespace {

ExperimentConfig golden_config() {
  ExperimentConfig cfg;
  cfg.num_senders = 11;
  cfg.rx_threads = 5;
  cfg.read_size = Bytes(12288);
  cfg.read_pipeline = 3;
  cfg.iommu_enabled = false;
  cfg.hugepages = false;
  cfg.data_region = Bytes::mib(6);
  cfg.antagonist_cores = 4;
  cfg.antagonist_throttle_gbps = 7.5;
  cfg.antagonist_remote_numa = true;
  cfg.ats_enabled = true;
  cfg.strict_iommu = true;
  cfg.ddio.enabled = false;
  cfg.victim_flows = 2;
  cfg.victim_read_size = Bytes(2048);
  cfg.cc = transport::CcAlgorithm::kHostSignal;
  cfg.swift.host_target = TimePs::from_us(65);
  cfg.iommu.iotlb_entries = 96;
  cfg.nic.input_buffer = Bytes(786432);
  cfg.pcie.gigatransfers_per_lane = 16.0;
  cfg.warmup = TimePs::from_us(250.5);
  cfg.measure = TimePs::from_us(1234.25);
  cfg.seed = 987654321987ULL;
  cfg.watchdog.max_events = 5000000;
  cfg.watchdog.max_events_per_timestamp = 4321;
  cfg.trace.enabled = true;
  cfg.trace.sample_period = TimePs::from_us(2.5);
  cfg.faults =
      fault::parse_script("mem.antagonist@300us+200us,cores=12;net.loss@350us+100us,prob=0.02")
          .script;
  return cfg;
}

Metrics golden_metrics() {
  Metrics m;
  m.app_throughput_gbps = 81.25;
  m.link_utilization = 0.875;
  m.drop_rate = 0.0123;
  m.iotlb_misses_per_packet = 0.375;
  m.memory.total_gbytes_per_sec = 21.5;
  m.memory.by_class_gbytes_per_sec = {11.25, 0.625, 3.75, 5.875, 0.1};
  m.remote_memory.total_gbytes_per_sec = 9.125;
  m.host_delay_p50_us = 12.5;
  m.host_delay_p99_us = 48.75;
  m.host_delay_max_us = 97.3;
  m.victim_reads = 321;
  m.victim_read_p50_us = 6.5;
  m.victim_read_p99_us = 17.25;
  m.data_packets_sent = 123456;
  m.retransmits = 789;
  m.rto_fires = 12;
  m.delivered_packets = 122000;
  m.nic_buffer_drops = 1456;
  m.fabric_drops = 34;
  m.iotlb_misses = 45678;
  m.iotlb_lookups = 234567;
  m.pcie_translation_stalls = 890;
  m.pcie_write_buffer_stalls = 56;
  m.hol_descriptor_stalls = 78;
  m.avg_cwnd = 14.625;
  m.fault_windows = 3;
  m.fault_drops = 210;
  m.fault_active_us = 400.5;
  m.fault_blind_us = 120.25;
  m.run_status = RunStatus::kStalled;
  m.run_status_detail = "no time progress at t=174.046792us";
  m.simulated_seconds = 0.00125;
  m.events_executed = 9876543;
  return m;
}

SweepResult golden_result() {
  SweepResult r;
  r.index = 17;
  r.wall_seconds = 3.5;
  r.config = golden_config();
  r.metrics = golden_metrics();
  r.extra["trace.nic.delivered"] = 42.5;
  return r;
}

TEST(RecordGolden, SweepPointBytes) {
  std::ostringstream os;
  write_point(os, golden_result());
  EXPECT_EQ(os.str(), R"({
      "index": 17,
      "wall_seconds": 3.5,
      "config": {
        "num_senders": 11,
        "rx_threads": 5,
        "read_size_bytes": 12288,
        "read_pipeline": 3,
        "iommu_enabled": false,
        "hugepages": false,
        "data_region_bytes": 6291456,
        "antagonist_cores": 4,
        "antagonist_throttle_gbps": 7.5,
        "antagonist_remote_numa": true,
        "ats_enabled": true,
        "strict_iommu": true,
        "ddio_enabled": false,
        "victim_flows": 2,
        "victim_read_size_bytes": 2048,
        "cc": "host-signal",
        "swift_host_target_us": 65,
        "iotlb_entries": 96,
        "nic_buffer_bytes": 786432,
        "pcie_gigatransfers_per_lane": 16,
        "warmup_us": 250.5,
        "measure_us": 1234.25,
        "seed": 987654321987,
        "faults": "mem.antagonist@300us+200us,cores=12;net.loss@350us+100us,prob=0.02"
      },
      "metrics": {
        "app_throughput_gbps": 81.25,
        "link_utilization": 0.875,
        "drop_rate": 0.0123,
        "iotlb_misses_per_packet": 0.375,
        "memory_total_gbytes_per_sec": 21.5,
        "memory_nic_dma_gbytes_per_sec": 11.25,
        "memory_iommu_walk_gbytes_per_sec": 0.625,
        "memory_cpu_copy_gbytes_per_sec": 3.75,
        "memory_antagonist_gbytes_per_sec": 5.875,
        "remote_memory_total_gbytes_per_sec": 9.125,
        "host_delay_p50_us": 12.5,
        "host_delay_p99_us": 48.75,
        "host_delay_max_us": 97.3,
        "victim_reads": 321,
        "victim_read_p50_us": 6.5,
        "victim_read_p99_us": 17.25,
        "data_packets_sent": 123456,
        "retransmits": 789,
        "rto_fires": 12,
        "delivered_packets": 122000,
        "nic_buffer_drops": 1456,
        "fabric_drops": 34,
        "iotlb_misses": 45678,
        "iotlb_lookups": 234567,
        "pcie_translation_stalls": 890,
        "pcie_write_buffer_stalls": 56,
        "hol_descriptor_stalls": 78,
        "avg_cwnd": 14.625,
        "fault_windows": 3,
        "fault_drops": 210,
        "fault_active_us": 400.5,
        "fault_blind_us": 120.25,
        "run_status": "stalled",
        "run_status_detail": "no time progress at t=174.046792us",
        "simulated_seconds": 0.00125,
        "events_executed": 9876543
      },
      "extra": {
        "trace.nic.delivered": 42.5
      }
    })");
}

TEST(RecordGolden, PointSpecBytes) {
  EXPECT_EQ(point_spec(golden_config(), 17), R"(hicc.point.v1
index=17
num_senders=11
rx_threads=5
read_size_bytes=12288
read_pipeline=3
iommu_enabled=0
hugepages=0
data_region_bytes=6291456
antagonist_cores=4
antagonist_throttle_gbps=7.5
antagonist_remote_numa=1
ats_enabled=1
strict_iommu=1
ddio_enabled=0
victim_flows=2
victim_read_size_bytes=2048
cc=host-signal
swift_host_target_us=65
iotlb_entries=96
nic_buffer_bytes=786432
pcie_gigatransfers_per_lane=16
warmup_us=250.5
measure_us=1234.25
seed=987654321987
max_events=5000000
max_events_per_timestamp=4321
trace_enabled=1
trace_period_us=2.5
faults=mem.antagonist@300us+200us,cores=12;net.loss@350us+100us,prob=0.02
)");
}

// The host template's own script is ignored: a cluster spec's one
// `faults=` line carries the cluster-scope script.
TEST(RecordGolden, ClusterPointSpecBytes) {
  ClusterConfig cfg;
  cfg.host = golden_config();
  cfg.faults = fault::parse_script("net.loss@250us+100us/200us,host=5,prob=0.05").script;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 3;
  cfg.topology.hosts_per_leaf = 4;
  cfg.topology.ecmp_seed = 9;
  cfg.topology.host_link_rate = BitRate::gbps(50);
  cfg.topology.fabric_link_rate = BitRate::gbps(200);
  cfg.receivers = 2;
  cfg.parallelism = 3;
  cfg.mailbox_capacity = 4096;
  EXPECT_EQ(cluster_point_spec(cfg, 4), R"(hicc.point.v1
index=4
num_senders=11
rx_threads=5
read_size_bytes=12288
read_pipeline=3
iommu_enabled=0
hugepages=0
data_region_bytes=6291456
antagonist_cores=4
antagonist_throttle_gbps=7.5
antagonist_remote_numa=1
ats_enabled=1
strict_iommu=1
ddio_enabled=0
victim_flows=2
victim_read_size_bytes=2048
cc=host-signal
swift_host_target_us=65
iotlb_entries=96
nic_buffer_bytes=786432
pcie_gigatransfers_per_lane=16
warmup_us=250.5
measure_us=1234.25
seed=987654321987
max_events=5000000
max_events_per_timestamp=4321
trace_enabled=1
trace_period_us=2.5
faults=net.loss@250us+100us/200us,host=5,prob=0.05
topology=2x3x8
receivers=2
ecmp_seed=9
host_gbps=50
fabric_gbps=200
parallelism=3
mailbox_capacity=4096
)");
}

// Row 1 lacks row 0's extra and adds its own: both columns are
// backfilled with 0.
TEST(RecordGolden, ColumnarBytes) {
  std::vector<SweepResult> rows{golden_result(), golden_result()};
  rows[1].index = 18;
  rows[1].wall_seconds = 0.25;
  rows[1].config.seed = 5;
  rows[1].config.rx_threads = 6;
  rows[1].metrics.app_throughput_gbps = 60.5;
  rows[1].metrics.avg_cwnd = 9.75;
  rows[1].metrics.run_status = RunStatus::kOk;
  rows[1].metrics.run_status_detail.clear();
  rows[1].extra = {{"host", 1.0}};
  std::ostringstream os;
  write_columnar(rows, os);
  EXPECT_EQ(os.str(), R"({
  "schema": "hicc.sweepc.v1",
  "points": 2,
  "fields": ["config.antagonist_cores", "config.antagonist_remote_numa", "config.antagonist_throttle_gbps", "config.ats_enabled", "config.data_region_bytes", "config.ddio_enabled", "config.hugepages", "config.iommu_enabled", "config.iotlb_entries", "config.measure_us", "config.nic_buffer_bytes", "config.num_senders", "config.pcie_gigatransfers_per_lane", "config.read_pipeline", "config.read_size_bytes", "config.rx_threads", "config.seed", "config.strict_iommu", "config.swift_host_target_us", "config.victim_flows", "config.victim_read_size_bytes", "config.warmup_us", "extra.host", "extra.trace.nic.delivered", "index", "metrics.app_throughput_gbps", "metrics.avg_cwnd", "metrics.data_packets_sent", "metrics.delivered_packets", "metrics.drop_rate", "metrics.events_executed", "metrics.fabric_drops", "metrics.fault_active_us", "metrics.fault_blind_us", "metrics.fault_drops", "metrics.fault_windows", "metrics.hol_descriptor_stalls", "metrics.host_delay_max_us", "metrics.host_delay_p50_us", "metrics.host_delay_p99_us", "metrics.iotlb_lookups", "metrics.iotlb_misses", "metrics.iotlb_misses_per_packet", "metrics.link_utilization", "metrics.memory_antagonist_gbytes_per_sec", "metrics.memory_cpu_copy_gbytes_per_sec", "metrics.memory_iommu_walk_gbytes_per_sec", "metrics.memory_nic_dma_gbytes_per_sec", "metrics.memory_total_gbytes_per_sec", "metrics.nic_buffer_drops", "metrics.pcie_translation_stalls", "metrics.pcie_write_buffer_stalls", "metrics.remote_memory_total_gbytes_per_sec", "metrics.retransmits", "metrics.rto_fires", "metrics.run_status", "metrics.simulated_seconds", "metrics.victim_read_p50_us", "metrics.victim_read_p99_us", "metrics.victim_reads", "wall_seconds"],
  "columns": {
    "config.antagonist_cores": [4, 4],
    "config.antagonist_remote_numa": [1, 1],
    "config.antagonist_throttle_gbps": [7.5, 7.5],
    "config.ats_enabled": [1, 1],
    "config.data_region_bytes": [6291456, 6291456],
    "config.ddio_enabled": [0, 0],
    "config.hugepages": [0, 0],
    "config.iommu_enabled": [0, 0],
    "config.iotlb_entries": [96, 96],
    "config.measure_us": [1234.25, 1234.25],
    "config.nic_buffer_bytes": [786432, 786432],
    "config.num_senders": [11, 11],
    "config.pcie_gigatransfers_per_lane": [16, 16],
    "config.read_pipeline": [3, 3],
    "config.read_size_bytes": [12288, 12288],
    "config.rx_threads": [5, 6],
    "config.seed": [987654321987, 5],
    "config.strict_iommu": [1, 1],
    "config.swift_host_target_us": [65, 65],
    "config.victim_flows": [2, 2],
    "config.victim_read_size_bytes": [2048, 2048],
    "config.warmup_us": [250.5, 250.5],
    "extra.host": [0, 1],
    "extra.trace.nic.delivered": [42.5, 0],
    "index": [17, 18],
    "metrics.app_throughput_gbps": [81.25, 60.5],
    "metrics.avg_cwnd": [14.625, 9.75],
    "metrics.data_packets_sent": [123456, 123456],
    "metrics.delivered_packets": [122000, 122000],
    "metrics.drop_rate": [0.0123, 0.0123],
    "metrics.events_executed": [9876543, 9876543],
    "metrics.fabric_drops": [34, 34],
    "metrics.fault_active_us": [400.5, 400.5],
    "metrics.fault_blind_us": [120.25, 120.25],
    "metrics.fault_drops": [210, 210],
    "metrics.fault_windows": [3, 3],
    "metrics.hol_descriptor_stalls": [78, 78],
    "metrics.host_delay_max_us": [97.3, 97.3],
    "metrics.host_delay_p50_us": [12.5, 12.5],
    "metrics.host_delay_p99_us": [48.75, 48.75],
    "metrics.iotlb_lookups": [234567, 234567],
    "metrics.iotlb_misses": [45678, 45678],
    "metrics.iotlb_misses_per_packet": [0.375, 0.375],
    "metrics.link_utilization": [0.875, 0.875],
    "metrics.memory_antagonist_gbytes_per_sec": [5.875, 5.875],
    "metrics.memory_cpu_copy_gbytes_per_sec": [3.75, 3.75],
    "metrics.memory_iommu_walk_gbytes_per_sec": [0.625, 0.625],
    "metrics.memory_nic_dma_gbytes_per_sec": [11.25, 11.25],
    "metrics.memory_total_gbytes_per_sec": [21.5, 21.5],
    "metrics.nic_buffer_drops": [1456, 1456],
    "metrics.pcie_translation_stalls": [890, 890],
    "metrics.pcie_write_buffer_stalls": [56, 56],
    "metrics.remote_memory_total_gbytes_per_sec": [9.125, 9.125],
    "metrics.retransmits": [789, 789],
    "metrics.rto_fires": [12, 12],
    "metrics.run_status": [2, 0],
    "metrics.simulated_seconds": [0.00125, 0.00125],
    "metrics.victim_read_p50_us": [6.5, 6.5],
    "metrics.victim_read_p99_us": [17.25, 17.25],
    "metrics.victim_reads": [321, 321],
    "wall_seconds": [3.5, 0.25]
  }
}
)");
}

// The failures expect_same_metrics(a, b, except) reports.
std::vector<std::string> comparator_failures(const Metrics& a, const Metrics& b,
                                             std::initializer_list<std::string_view> except) {
  ::testing::TestPartResultArray results;
  {
    ::testing::ScopedFakeTestPartResultReporter intercept(
        ::testing::ScopedFakeTestPartResultReporter::INTERCEPT_ONLY_CURRENT_THREAD, &results);
    expect_same_metrics(a, b, except);
  }
  std::vector<std::string> messages;
  for (int i = 0; i < results.size(); ++i) {
    messages.emplace_back(results.GetTestPartResult(i).message());
  }
  return messages;
}

// The shared comparator sees every record key: changing any one field
// of a copy fails it exactly once, naming the key, unless the key is
// excluded.
TEST(SameMetrics, ComparesEveryKeyButTheExcluded) {
  const Metrics base = golden_metrics();
  std::size_t keys = 0;
  for_each_field(base, [&keys](const char* /*key*/, const auto& /*v*/) { ++keys; });
  EXPECT_EQ(keys, 36u);
  for (std::size_t k = 0; k < keys; ++k) {
    Metrics changed = base;
    std::string name;
    std::size_t i = 0;
    for_each_field(changed, [&](const char* key, auto& v) {
      if (i++ != k) return;
      name = key;
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_same_v<T, RunStatus>) {
        v = RunStatus::kOk;
      } else if constexpr (std::is_same_v<T, std::string>) {
        v += '!';
      } else {
        v += 1;
      }
    });
    SCOPED_TRACE(name);
    const auto failures = comparator_failures(base, changed, {});
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].find("metrics." + name), std::string::npos) << failures[0];
    EXPECT_TRUE(comparator_failures(base, changed, {name}).empty());
  }
}

}  // namespace
}  // namespace hicc::sweep
