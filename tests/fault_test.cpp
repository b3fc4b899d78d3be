// Fault layer: script grammar parsing (with aggregated errors), config
// validation, the no-perturbation guarantee for idle scripts, injector
// determinism, per-injector trace probes, disturbance accounting, and
// the watchdog backstop for pathological scripts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/engine.h"
#include "fault/script.h"
#include "same_metrics.h"
#include "sweep/sweep.h"
#include "trace/trace.h"

namespace hicc {
namespace {

using fault::FaultKind;
using fault::parse_script;

// ----------------------------------------------------------- parsing

TEST(ScriptParser, ParsesTheFullGrammar) {
  const auto r = parse_script(
      "mem.antagonist@5ms+2ms/10ms,cores=8; net.rate@12ms+1ms,gbps=25");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? std::string() : r.errors[0]);
  ASSERT_EQ(r.script.events.size(), 2u);

  const fault::FaultEvent& a = r.script.events[0];
  EXPECT_EQ(a.kind, FaultKind::kMemAntagonist);
  EXPECT_EQ(a.at, TimePs::from_ms(5));
  EXPECT_EQ(a.duration, TimePs::from_ms(2));
  EXPECT_EQ(a.period, TimePs::from_ms(10));
  EXPECT_DOUBLE_EQ(a.params.at("cores"), 8.0);

  const fault::FaultEvent& b = r.script.events[1];
  EXPECT_EQ(b.kind, FaultKind::kNetRate);
  EXPECT_EQ(b.period, TimePs(0));  // one-shot
  EXPECT_EQ(b.params.size(), 1u);  // no target: the access link
  EXPECT_DOUBLE_EQ(b.params.at("gbps"), 25.0);
}

TEST(ScriptParser, BareNumbersAreMicrosecondsAndSuffixesWork) {
  const auto r = parse_script("nic.credit_stall@40+300ns;host.deschedule@0.5s");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.script.events.size(), 2u);
  EXPECT_EQ(r.script.events[0].at, TimePs::from_us(40));
  EXPECT_EQ(r.script.events[0].duration, TimePs::from_ns(300));
  EXPECT_EQ(r.script.events[1].at, TimePs::from_ms(500));
}

TEST(ScriptParser, EmptySpecsAndStraySeparatorsAreFine) {
  EXPECT_TRUE(parse_script("").ok());
  EXPECT_TRUE(parse_script("").script.empty());
  const auto r = parse_script(" ; mem.antagonist@1ms,cores=4 ; ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.script.events.size(), 1u);
}

TEST(ScriptParser, SpecRoundTrips) {
  const auto r = parse_script(
      "iommu.storm@450us+20us,per_us=2;"
      "mem.antagonist@5ms+2ms/10ms,cores=8;"
      "net.loss@100ns,host=1,prob=0.25");
  ASSERT_TRUE(r.ok());
  const auto again = parse_script(r.script.to_spec());
  ASSERT_TRUE(again.ok()) << (again.errors.empty() ? std::string() : again.errors[0]);
  EXPECT_EQ(again.script, r.script);
}

TEST(ScriptParser, AggregatesEveryErrorWithEntryPositions) {
  const auto r = parse_script(
      "bogus.kind@1ms;"                      // unknown kind
      "mem.antagonist,cores=8;"              // missing @time
      "net.loss@xyz;"                        // bad activation time
      "mem.antagonist@1ms,cores=8,cores=9;"  // duplicate parameter
      "net.rate@1ms,gbps;"                   // parameter without '='
      "iommu.storm@1ms,per_us=fast;"         // non-numeric value
      "net.loss@1ms,link=access");           // links have no symbolic names
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.errors.size(), 7u);
  EXPECT_NE(r.errors[0].find("entry 1"), std::string::npos);
  EXPECT_NE(r.errors[0].find("unknown fault kind"), std::string::npos);
  EXPECT_NE(r.errors[1].find("missing '@"), std::string::npos);
  EXPECT_NE(r.errors[2].find("bad activation time"), std::string::npos);
  EXPECT_NE(r.errors[3].find("duplicate parameter"), std::string::npos);
  EXPECT_NE(r.errors[4].find("key=value"), std::string::npos);
  EXPECT_NE(r.errors[5].find("non-numeric"), std::string::npos);
  EXPECT_NE(r.errors[5].find("entry 6"), std::string::npos);
  EXPECT_NE(r.errors[6].find("parameter 'link' has non-numeric value 'access'"),
            std::string::npos);
}

// -------------------------------------------------------- validation

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.rx_threads = 2;
  cfg.num_senders = 4;
  cfg.warmup = TimePs::from_us(200);
  cfg.measure = TimePs::from_us(500);
  return cfg;
}

TEST(Validation, AcceptsTheDefaultConfig) {
  EXPECT_TRUE(validate(ExperimentConfig{}).empty());
  EXPECT_TRUE(validate(small_config()).empty());
}

TEST(Validation, AggregatesManyDistinctViolationClasses) {
  ExperimentConfig bad = small_config();
  bad.rx_threads = 0;                      // workload shape
  bad.num_senders = 0;                     // workload shape
  bad.read_size = Bytes(0);                // RPC sizing
  bad.read_pipeline = 0;                   // pipelining
  bad.iommu.iotlb_entries = 7;             // IOTLB geometry (7 % 4 != 0)
  bad.iommu.iotlb_sets = 4;
  bad.nic.input_buffer = Bytes(100);       // NIC buffer < one MTU
  bad.nic.descriptor_prefetch = 0;         // descriptor ring
  bad.ddio.ddio_ways = 99;                 // DDIO vs LLC geometry
  bad.measure = TimePs(0);                 // run control
  bad.faults = parse_script("net.rate@1ms").script;  // fault semantics (no gbps)

  const auto violations = validate(bad);
  std::set<std::string> fields;
  for (const auto& v : violations) {
    fields.insert(v.field);
    EXPECT_FALSE(v.message.empty());
  }
  // Every class above must be reported in one pass, not one per run.
  EXPECT_GE(fields.size(), 10u);
  EXPECT_TRUE(fields.count("rx_threads"));
  EXPECT_TRUE(fields.count("num_senders"));
  EXPECT_TRUE(fields.count("iommu.iotlb_entries"));
  EXPECT_TRUE(fields.count("nic.input_buffer"));
  EXPECT_TRUE(fields.count("ddio.ddio_ways"));
  EXPECT_TRUE(fields.count("measure"));
  EXPECT_TRUE(fields.count("faults[0].gbps"));

  const std::string text = describe(violations);
  EXPECT_NE(text.find("rx_threads"), std::string::npos);
  EXPECT_NE(text.find("faults[0].gbps"), std::string::npos);
}

TEST(Validation, ChecksFaultScriptSemanticsPerEntry) {
  ExperimentConfig cfg = small_config();
  const auto r = parse_script(
      "net.rate@1ms,host=99,gbps=25;"       // host out of range (5 hosts)
      "net.loss@1ms,prob=1.5;"              // probability > 1
      "iommu.storm@1ms,per_us=1e7;"         // storm faster than the engine tick
      "host.deschedule@1ms,threads=5;"      // more threads than rx_threads=2
      "mem.antagonist@-1us,cores=8;"        // negative activation time
      "nic.buffer_squeeze@1ms,kb=0.1;"      // buffer below one wire MTU
      "mem.antagonist@1ms/2ms,cores=8;"     // period without a duration
      "mem.antagonist@1ms,core=8");         // unknown parameter key (typo)
  ASSERT_TRUE(r.ok());
  cfg.faults = r.script;

  const auto violations = validate(cfg);
  std::set<std::string> fields;
  for (const auto& v : violations) fields.insert(v.field);
  EXPECT_TRUE(fields.count("faults[0].host"));
  EXPECT_TRUE(fields.count("faults[1].prob"));
  EXPECT_TRUE(fields.count("faults[2].per_us"));
  EXPECT_TRUE(fields.count("faults[3].threads"));
  EXPECT_TRUE(fields.count("faults[4].at"));
  EXPECT_TRUE(fields.count("faults[5].kb"));
  EXPECT_TRUE(fields.count("faults[6].period"));
  EXPECT_TRUE(fields.count("faults[7].core"));
  EXPECT_GE(fields.size(), 8u);
}

TEST(Validation, SingleHostNetFaultsTakeTopologyTargets) {
  // 4 senders: single_host_topology() is one leaf, one spine, hosts
  // 0..4 with host 0 the receiver.
  ExperimentConfig cfg = small_config();
  cfg.faults = parse_script(
                   "net.link_down@1ms,link=3;"          // no such key in any run
                   "net.rate@1ms,host=5,gbps=25;"       // host out of range
                   "net.loss@1ms,leaf=1,spine=0")       // leaf out of range
                   .script;
  std::set<std::string> fields;
  for (const auto& v : validate(cfg)) fields.insert(v.field);
  EXPECT_TRUE(fields.count("faults[0].link"));
  EXPECT_TRUE(fields.count("faults[1].host"));
  EXPECT_TRUE(fields.count("faults[2].leaf"));
  EXPECT_EQ(fields.size(), 3u);

  cfg.faults = parse_script(
                   "net.link_down@1ms,host=4;"
                   "net.rate@1ms,leaf=0,spine=0,gbps=25;"
                   "net.loss@1ms,prob=0.1")
                   .script;
  EXPECT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
}

TEST(Validation, RejectsFabricValuesTheClusterRejects) {
  ExperimentConfig cfg = small_config();
  cfg.fabric.switch_buffer = Bytes(4000);  // below one 4452-byte data packet
  cfg.fabric.propagation = TimePs::from_us(-3);
  std::set<std::string> fields;
  for (const auto& v : validate(cfg)) fields.insert(v.field);
  EXPECT_TRUE(fields.count("fabric.switch_buffer"));
  EXPECT_TRUE(fields.count("fabric.propagation"));

  // The cluster rejects the same ports.
  std::set<std::string> cluster_fields;
  for (const auto& v : validate(degenerate_cluster(cfg))) cluster_fields.insert(v.field);
  EXPECT_TRUE(cluster_fields.count("topology.edge_buffer"));
  EXPECT_TRUE(cluster_fields.count("topology.edge_propagation"));

  // One wire MTU of buffer and zero propagation are the bounds.
  cfg.fabric.switch_buffer = cfg.wire.data_wire();
  cfg.fabric.propagation = TimePs(0);
  EXPECT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
}

TEST(Validation, SweepRejectsInvalidPointsUpFront) {
  std::vector<ExperimentConfig> points(3, small_config());
  points[1].rx_threads = 0;
  points[2].measure = TimePs(0);

  sweep::SweepOptions opts;
  opts.jobs = 1;
  try {
    (void)sweep::SweepRunner(opts).run(points);
    FAIL() << "invalid points must throw before any experiment runs";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 bad point(s)"), std::string::npos);
    EXPECT_NE(msg.find("point 1"), std::string::npos);
    EXPECT_NE(msg.find("rx_threads"), std::string::npos);
    EXPECT_NE(msg.find("point 2"), std::string::npos);
    EXPECT_NE(msg.find("measure"), std::string::npos);
  }
}

// ------------------------------------------------- no perturbation

TEST(FaultExperiment, EmptyScriptBuildsNoEngine) {
  Experiment exp(small_config());
  EXPECT_EQ(exp.fault_engine(), nullptr);
}

TEST(FaultExperiment, IdleScriptIsBitwiseIdenticalToNoEngine) {
  Experiment base(small_config());
  const Metrics mb = base.run();

  // The script never fires inside the 700us run, so the engine must be
  // invisible: same metrics AND the same executed-event count.
  ExperimentConfig cfg = small_config();
  cfg.faults = parse_script("mem.antagonist@10s,cores=15").script;
  Experiment faulted(cfg);
  ASSERT_NE(faulted.fault_engine(), nullptr);
  const Metrics mf = faulted.run();

  expect_same_metrics(mb, mf);
  EXPECT_EQ(mf.fault_windows, 0);
  EXPECT_EQ(mf.fault_drops, 0);
  EXPECT_EQ(mf.fault_active_us, 0.0);
  EXPECT_EQ(mf.run_status, RunStatus::kOk);
}

TEST(FaultExperiment, SameSeedAndScriptIsDeterministic) {
  ExperimentConfig cfg = small_config();
  cfg.faults =
      parse_script("mem.antagonist@300us+200us,cores=12;net.loss@350us+100us,prob=0.02").script;
  ASSERT_TRUE(validate(cfg).empty());

  Experiment a(cfg);
  Experiment b(cfg);
  const Metrics ma = a.run();
  const Metrics mb = b.run();
  expect_same_metrics(ma, mb);
  EXPECT_GT(ma.fault_windows, 0);
}

// ----------------------------------------------------- trace probes

TEST(FaultExperiment, EveryInjectorRegistersAndExercisesItsProbe) {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  const auto r = parse_script(
      "net.link_down@250us+20us;"
      "net.rate@280us+20us,gbps=25;"
      "net.loss@310us+20us,prob=0.05;"
      "nic.credit_stall@340us+10us;"
      "nic.buffer_squeeze@360us+20us,kb=64;"
      "iommu.storm@390us+20us,per_us=0.5;"
      "mem.antagonist@420us+40us,cores=8;"
      "mem.ddio_squeeze@470us+20us,ways=1;"
      "host.deschedule@500us+20us,threads=1;"
      "transport.churn@530us+20us,flows=1");
  ASSERT_TRUE(r.ok());
  cfg.faults = r.script;
  ASSERT_TRUE(validate(cfg).empty());

  Experiment exp(cfg);
  trace::RecordingSink sink;
  exp.tracer()->set_sink(&sink);
  const Metrics m = exp.run();
  exp.tracer()->finish();

  const char* const kFaultProbes[] = {
      "fault.net_link_down",  "fault.net_rate",       "fault.net_loss",
      "fault.nic_credit_stall", "fault.nic_buffer_squeeze", "fault.iommu_storm",
      "fault.mem_antagonist", "fault.mem_ddio_squeeze", "fault.host_deschedule",
      "fault.transport_churn",
  };
  for (const char* name : kFaultProbes) {
    ASSERT_TRUE(exp.tracer()->find(name).has_value()) << "missing probe: " << name;
    const auto series = sink.of(name);
    ASSERT_FALSE(series.empty()) << name;
    // Each window spans >= two 5us sampler ticks, so the activity gauge
    // must have been captured nonzero at least once.
    EXPECT_TRUE(std::any_of(series.begin(), series.end(),
                            [](const trace::RecordingSink::Sample& s) { return s.value > 0.0; }))
        << "probe never went active: " << name;
  }
  ASSERT_TRUE(exp.tracer()->find("fault.active").has_value());
  const auto activations = sink.of("fault.activations");
  ASSERT_FALSE(activations.empty());
  EXPECT_DOUBLE_EQ(activations.back().value, 10.0);
  EXPECT_EQ(m.fault_windows, 10);
  EXPECT_GT(m.fault_active_us, 0.0);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
}

TEST(FaultExperiment, UntracedOrUnscriptedRunsRegisterNoFaultProbes) {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;  // tracer, but no script
  Experiment exp(cfg);
  EXPECT_FALSE(exp.tracer()->find("fault.active").has_value());
}

// ------------------------------------------------------- disturbance

TEST(FaultExperiment, AntagonistBurstDisturbsTheHost) {
  Experiment base_exp(small_config());
  const Metrics base = base_exp.run();

  ExperimentConfig cfg = small_config();
  cfg.faults = parse_script("mem.antagonist@300us+200us,cores=15").script;
  ASSERT_TRUE(validate(cfg).empty());
  Experiment exp(cfg);
  const Metrics m = exp.run();

  EXPECT_EQ(m.fault_windows, 1);
  EXPECT_NEAR(m.fault_active_us, 200.0, 1.0);
  // The burst lands inside the measurement window: the antagonist class
  // shows up on the memory bus (it is zero in the baseline) and the
  // congested bus backs the host pipeline up into the PCIe write
  // buffer, costing delivery throughput.
  const int ant = static_cast<int>(mem::MemClass::kAntagonist);
  EXPECT_EQ(base.memory.by_class_gbytes_per_sec[ant], 0.0);
  EXPECT_GT(m.memory.by_class_gbytes_per_sec[ant], 1.0);
  EXPECT_GT(m.pcie_write_buffer_stalls, base.pcie_write_buffer_stalls);
  EXPECT_LT(m.app_throughput_gbps, base.app_throughput_gbps);
}

// --------------------------------------------- single-host targeting

TEST(FaultExperiment, HostTargetsReachSingleHostUplinks) {
  Experiment base_exp(small_config());
  const Metrics base = base_exp.run();
  EXPECT_EQ(base.fabric_drops, 0);

  // host=2 is sender 1's uplink: what it sends in the window drops at
  // its own port.
  ExperimentConfig cfg = small_config();
  cfg.faults = parse_script("net.link_down@300us+100us,host=2").script;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
  Experiment sender(cfg);
  const Metrics ms = sender.run();
  EXPECT_EQ(ms.fault_windows, 1);
  EXPECT_GT(ms.fabric_drops, 0);
  EXPECT_EQ(ms.run_status, RunStatus::kOk);

  // host=0 is the receiver's uplink, which carries its ACKs and read
  // requests: senders time out (the RTO floor is 1 ms) and retransmit.
  cfg.measure = TimePs::from_ms(2);
  cfg.faults = parse_script("net.link_down@300us+100us,host=0").script;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
  Experiment receiver(cfg);
  const Metrics mr = receiver.run();
  EXPECT_GT(mr.fabric_drops, 0);
  EXPECT_GT(mr.retransmits, 0);
  EXPECT_EQ(mr.run_status, RunStatus::kOk);
}

// ------------------------------------------------- cluster targeting

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.host = small_config();
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 4;
  return cfg;
}

TEST(FaultCluster, LinkDownTargetsASpecificLeafSpineLink) {
  ClusterConfig cfg = small_cluster();
  // Down leaf 1's uplink to spine 1 for the middle of the run: only
  // the inter-leaf flows ECMP-hashed onto that spine lose packets.
  cfg.faults = parse_script("net.link_down@250us+200us,leaf=1,spine=1").script;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment exp(cfg);
  ASSERT_NE(exp.fault_engine(), nullptr);
  const ClusterMetrics m = exp.run();

  ASSERT_EQ(m.per_receiver.size(), 1u);
  EXPECT_EQ(m.per_receiver[0].fault_windows, 1);
  EXPECT_GT(exp.fabric().leaf_uplink(1, 1).drops(), 0);
  // The sibling spine path stays up and uncongested.
  EXPECT_EQ(exp.fabric().leaf_uplink(1, 0).drops(), 0);
  // Downed-link drops count as fabric drops, not host drops.
  EXPECT_GT(m.total_fabric_drops, 0);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
}

TEST(FaultCluster, HostParamTargetsAnEdgeUplinkAndDefaultIsTheReceiverDownlink) {
  // host=5 downs sender machine 5's uplink: everything it transmits
  // during the window drops at its own port.
  ClusterConfig cfg = small_cluster();
  cfg.faults = parse_script("net.link_down@250us+100us,host=5").script;
  ASSERT_TRUE(validate(cfg).empty());
  ClusterExperiment up(cfg);
  const ClusterMetrics mu = up.run();
  EXPECT_GT(up.fabric().host_uplink(5).drops(), 0);
  EXPECT_EQ(up.fabric().host_downlink(0).drops(), 0);
  EXPECT_EQ(mu.run_status, RunStatus::kOk);

  // No target parameter: the receiver's downlink (the access-link
  // analog, matching the legacy fabric's default).
  cfg.faults = parse_script("net.link_down@250us+100us").script;
  ASSERT_TRUE(validate(cfg).empty());
  ClusterExperiment down(cfg);
  const ClusterMetrics md = down.run();
  EXPECT_GT(down.fabric().host_downlink(0).drops(), 0);
  EXPECT_EQ(md.run_status, RunStatus::kOk);
}

// --------------------------------------------------------- watchdog

TEST(FaultWatchdog, PathologicalStormAbortsGracefullyWithTrace) {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  cfg.watchdog.max_events_per_timestamp = 5000;
  // per_us this high gives the storm ticker a zero period -- a
  // self-rescheduling-at-now loop. validate() rejects it for exactly
  // that reason; build the Experiment directly to prove the watchdog is
  // the backstop of last resort.
  cfg.faults = parse_script("iommu.storm@300us+100us,per_us=1e9").script;
  EXPECT_FALSE(validate(cfg).empty());

  Experiment exp(cfg);
  trace::RecordingSink sink;
  exp.tracer()->set_sink(&sink);
  const Metrics m = exp.run();
  exp.tracer()->finish();  // the aborted run still flushes its capture

  EXPECT_EQ(m.run_status, RunStatus::kStalled);
  EXPECT_NE(m.run_status_detail.find("no time progress"), std::string::npos);
  EXPECT_GT(m.events_executed, 0u);
  EXPECT_GT(m.simulated_seconds, 0.0);  // ran from warmup to the stall
  EXPECT_TRUE(sink.ended());
  EXPECT_FALSE(sink.of("sim.events_executed").empty());
}

TEST(FaultWatchdog, EventBudgetSurfacesInMetrics) {
  ExperimentConfig cfg = small_config();
  cfg.watchdog.max_events = 1000;
  Experiment exp(cfg);
  const Metrics m = exp.run();
  EXPECT_EQ(m.run_status, RunStatus::kEventBudget);
  EXPECT_NE(m.run_status_detail.find("event budget"), std::string::npos);
  EXPECT_EQ(m.events_executed, 1000u);
}

}  // namespace
}  // namespace hicc
