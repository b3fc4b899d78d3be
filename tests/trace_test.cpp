// Trace layer: probe registration and sharing, sampling on scripted
// event sequences, exporter golden outputs, the documented probe
// catalog, and the no-perturbation guarantee (tracing enabled changes
// nothing but events_executed; disabled is bitwise identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/experiment.h"
#include "fault/script.h"
#include "fmt_reference.h"
#include "same_metrics.h"
#include "sim/simulator.h"
#include "sweep/sweep.h"
#include "trace/exporters.h"
#include "trace/trace.h"

namespace hicc::trace {
namespace {

TEST(TraceKind, ToString) {
  EXPECT_STREQ(to_string(Kind::kCounter), "counter");
  EXPECT_STREQ(to_string(Kind::kGauge), "gauge");
  EXPECT_STREQ(to_string(Kind::kHistogram), "histogram");
}

TEST(Tracer, RegistersSimulatorProbesOnConstruction) {
  sim::Simulator sim;
  Tracer tracer(sim);
  ASSERT_TRUE(tracer.find("sim.events_executed").has_value());
  ASSERT_TRUE(tracer.find("sim.queue_depth").has_value());
  ASSERT_TRUE(tracer.find("sim.pending").has_value());
  ASSERT_TRUE(tracer.find("sim.events_per_poll").has_value());
  EXPECT_EQ(tracer.probes()[0].name, "sim.events_executed");
  EXPECT_EQ(tracer.probes()[0].kind, Kind::kCounter);
  EXPECT_EQ(tracer.probes()[1].name, "sim.queue_depth");
  EXPECT_EQ(tracer.probes()[1].kind, Kind::kGauge);
  EXPECT_EQ(tracer.probes()[2].name, "sim.pending");
  EXPECT_EQ(tracer.probes()[2].kind, Kind::kGauge);
  EXPECT_EQ(tracer.probes()[3].name, "sim.events_per_poll");
  EXPECT_EQ(tracer.probes()[3].kind, Kind::kGauge);
}

// sim.pending tracks live events exactly, sim.queue_depth includes
// cancellation tombstones until the queue scan reclaims them, and
// sim.events_per_poll reports the executed-count delta between
// consecutive sampling passes.
TEST(Tracer, EngineProbesTrackQueueAndEventRate) {
  sim::Simulator sim;
  Tracer tracer(sim);
  const std::size_t pending_ix =
      static_cast<std::size_t>(tracer.find("sim.pending")->index);
  const std::size_t depth_ix =
      static_cast<std::size_t>(tracer.find("sim.queue_depth")->index);
  const std::size_t rate_ix =
      static_cast<std::size_t>(tracer.find("sim.events_per_poll")->index);

  std::vector<sim::EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(sim.at(TimePs(1000 + i), [] {}));
  sim.cancel(ids[0]);
  EXPECT_DOUBLE_EQ(tracer.value_at(pending_ix), 7.0);
  EXPECT_DOUBLE_EQ(tracer.value_at(depth_ix), 8.0);  // tombstone still queued

  EXPECT_DOUBLE_EQ(tracer.value_at(rate_ix), 0.0);  // nothing ran yet
  sim.run_until(TimePs(2000));
  EXPECT_DOUBLE_EQ(tracer.value_at(rate_ix), 7.0);  // 7 since last poll
  EXPECT_DOUBLE_EQ(tracer.value_at(rate_ix), 0.0);  // delta resets per poll
  EXPECT_DOUBLE_EQ(tracer.value_at(pending_ix), 0.0);
}

TEST(Tracer, RegistrationIsGetOrCreateByName) {
  sim::Simulator sim;
  Tracer tracer(sim);
  const std::size_t base = tracer.probes().size();
  const ProbeId a = tracer.counter("nic.buffer_drops", "packets");
  const ProbeId b = tracer.counter("nic.buffer_drops", "packets");
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.index, b.index);  // shared series, one catalog entry
  EXPECT_EQ(tracer.probes().size(), base + 1);
  tracer.add(a, 3);
  tracer.add(b, 2);
  EXPECT_DOUBLE_EQ(tracer.value_at(static_cast<std::size_t>(a.index)), 5.0);
}

// The kind check is a thrown error, not an assert, so the shipping
// build (NDEBUG) cannot hand a counter's id to observe().
TEST(Tracer, KindMismatchOnReregistrationThrows) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.counter("x", "events");
  const std::size_t size = tracer.probes().size();
  EXPECT_THROW(tracer.histogram("x", "us"), std::logic_error);
  EXPECT_THROW(tracer.gauge("x", "events"), std::logic_error);
  EXPECT_EQ(tracer.probes().size(), size);  // no derived series on the counter
  tracer.histogram("h", "us");
  EXPECT_THROW(tracer.counter("h", "us"), std::logic_error);
  EXPECT_THROW(tracer.counter("h.p50", "us"), std::logic_error);
  const Tracer::ScopedPrefix prefix(&tracer, "host1.");
  tracer.gauge("x", "events");  // host1.x: another name, another series
  EXPECT_THROW(tracer.counter("x", "events"), std::logic_error);
}

TEST(Tracer, FindLooksUpByExactName) {
  sim::Simulator sim;
  Tracer tracer(sim);
  tracer.gauge("mem.utilization", "fraction");
  EXPECT_TRUE(tracer.find("mem.utilization").has_value());
  EXPECT_FALSE(tracer.find("mem.util").has_value());
  EXPECT_FALSE(tracer.find("").has_value());
}

TEST(Tracer, PolledProbeReadsComponentStateAtValueAt) {
  sim::Simulator sim;
  Tracer tracer(sim);
  double level = 7.0;
  const ProbeId id = tracer.gauge("test.level", "units", [&level] { return level; });
  EXPECT_DOUBLE_EQ(tracer.value_at(static_cast<std::size_t>(id.index)), 7.0);
  level = 11.0;
  EXPECT_DOUBLE_EQ(tracer.value_at(static_cast<std::size_t>(id.index)), 11.0);
}

TEST(Tracer, HistogramRegistersDerivedSeriesOnce) {
  sim::Simulator sim;
  Tracer tracer(sim);
  const std::size_t base = tracer.probes().size();
  const ProbeId a = tracer.histogram("transport.rtt_us", "us");
  const ProbeId b = tracer.histogram("transport.rtt_us", "us");
  EXPECT_EQ(a.index, b.index);
  // Parent + .p50 + .p99 + .count, registered exactly once.
  ASSERT_EQ(tracer.probes().size(), base + 4);
  EXPECT_EQ(tracer.probes()[base].kind, Kind::kHistogram);
  EXPECT_EQ(tracer.probes()[base + 1].name, "transport.rtt_us.p50");
  EXPECT_EQ(tracer.probes()[base + 1].kind, Kind::kGauge);
  EXPECT_EQ(tracer.probes()[base + 1].unit, "us");
  EXPECT_EQ(tracer.probes()[base + 2].name, "transport.rtt_us.p99");
  EXPECT_EQ(tracer.probes()[base + 3].name, "transport.rtt_us.count");
  EXPECT_EQ(tracer.probes()[base + 3].kind, Kind::kCounter);
  EXPECT_EQ(tracer.probes()[base + 3].unit, "observations");
}

// ------------------------------------------------------------ sampling

TEST(Sampler, EmitsEveryProbeOnEventBoundaries) {
  sim::Simulator sim;
  Tracer tracer(sim, TraceParams{.enabled = true, .sample_period = TimePs::from_us(1)});
  const ProbeId level = tracer.gauge("test.level", "units");
  const ProbeId count = tracer.counter("test.count", "events");

  RecordingSink sink;
  tracer.set_sink(&sink);
  EXPECT_EQ(sink.catalog().size(), tracer.probes().size());

  sim.at(TimePs::from_ns(400), [&] {
    tracer.set(level, 10);
    tracer.add(count, 2);
  });
  sim.at(TimePs::from_ns(1500), [&] {
    tracer.set(level, 25);
    tracer.add(count, 3);
  });

  tracer.start();  // baseline sample at t = 0
  sim.run_until(TimePs::from_us(3));
  tracer.finish();  // final pass at t = 3us (tick already sampled it)

  const auto levels = sink.of("test.level");
  // Baseline at 0, ticks at 1/2/3us, finish() pass at 3us.
  ASSERT_EQ(levels.size(), 5u);
  EXPECT_EQ(levels[0].time, TimePs(0));
  EXPECT_DOUBLE_EQ(levels[0].value, 0.0);
  EXPECT_EQ(levels[1].time, TimePs::from_us(1));
  EXPECT_DOUBLE_EQ(levels[1].value, 10.0);
  EXPECT_EQ(levels[2].time, TimePs::from_us(2));
  EXPECT_DOUBLE_EQ(levels[2].value, 25.0);
  EXPECT_EQ(levels[3].time, TimePs::from_us(3));
  EXPECT_DOUBLE_EQ(levels[3].value, 25.0);

  const auto counts = sink.of("test.count");
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_DOUBLE_EQ(counts[0].value, 0.0);
  EXPECT_DOUBLE_EQ(counts[1].value, 2.0);
  EXPECT_DOUBLE_EQ(counts[2].value, 5.0);
  EXPECT_DOUBLE_EQ(counts[3].value, 5.0);

  // The simulator's own probes ride along and stay monotone.
  const auto events = sink.of("sim.events_executed");
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].value, events[i - 1].value);
  }
  EXPECT_TRUE(sink.ended());
}

TEST(Sampler, HistogramDerivedSeriesTrackObservations) {
  sim::Simulator sim;
  Tracer tracer(sim, TraceParams{.enabled = true, .sample_period = TimePs::from_us(1)});
  const ProbeId rtt = tracer.histogram("transport.rtt_us", "us");

  RecordingSink sink;
  tracer.set_sink(&sink);
  for (int i = 0; i < 50; ++i) tracer.observe(rtt, 100.0);
  for (int i = 0; i < 50; ++i) tracer.observe(rtt, 1000.0);
  tracer.sample_now();
  tracer.finish();

  // The parent never reaches the sink; only derived series do.
  EXPECT_TRUE(sink.of("transport.rtt_us").empty());
  const auto counts = sink.of("transport.rtt_us.count");
  ASSERT_FALSE(counts.empty());
  EXPECT_DOUBLE_EQ(counts.front().value, 100.0);
  const auto p50 = sink.of("transport.rtt_us.p50");
  ASSERT_FALSE(p50.empty());
  EXPECT_GT(p50.front().value, 50.0);   // log-bucketed: loose bounds
  EXPECT_LT(p50.front().value, 200.0);
  const auto p99 = sink.of("transport.rtt_us.p99");
  ASSERT_FALSE(p99.empty());
  EXPECT_GT(p99.front().value, 500.0);
  EXPECT_LT(p99.front().value, 2000.0);
}

TEST(Sampler, DroppedWithoutSinkButDerivedValuesStayFresh) {
  sim::Simulator sim;
  Tracer tracer(sim, TraceParams{.enabled = true, .sample_period = TimePs::from_us(1)});
  const ProbeId rtt = tracer.histogram("transport.rtt_us", "us");
  tracer.observe(rtt, 100.0);
  tracer.sample_now();  // no sink attached: nothing to emit, no crash
  const auto count_id = tracer.find("transport.rtt_us.count");
  ASSERT_TRUE(count_id.has_value());
  EXPECT_DOUBLE_EQ(tracer.value_at(static_cast<std::size_t>(count_id->index)), 1.0);
}

// ----------------------------------------------------------- exporters

TEST(CsvExporter, GoldenOutput) {
  const std::vector<ProbeInfo> catalog = {
      ProbeInfo{"nic.buffer_bytes", Kind::kGauge, "bytes"},
      ProbeInfo{"nic.buffer_drops", Kind::kCounter, "packets"},
  };
  std::ostringstream os;
  CsvTraceWriter w(os);
  w.begin(catalog);
  w.sample(catalog[0], TimePs::from_us(5), 1536.0);
  w.sample(catalog[1], TimePs::from_us(5), 2.0);
  w.sample(catalog[0], TimePs::from_us(10), 0.5);
  w.end();
  EXPECT_EQ(os.str(),
            "# hicc.trace.v1\n"
            "# probe,nic.buffer_bytes,gauge,bytes\n"
            "# probe,nic.buffer_drops,counter,packets\n"
            "time_us,probe,value\n"
            "5,nic.buffer_bytes,1536\n"
            "5,nic.buffer_drops,2\n"
            "10,nic.buffer_bytes,0.5\n");
}

TEST(ChromeExporter, GoldenOutput) {
  const std::vector<ProbeInfo> catalog = {
      ProbeInfo{"nic.buffer_bytes", Kind::kGauge, "bytes"},
      ProbeInfo{"nic.buffer_drops", Kind::kCounter, "packets"},
  };
  std::ostringstream os;
  ChromeTraceWriter w(os);
  w.begin(catalog);
  w.sample(catalog[0], TimePs::from_us(5), 1536.0);
  w.sample(catalog[1], TimePs::from_us(5), 2.0);
  w.end();
  EXPECT_EQ(os.str(),
            "{\"otherData\": {\"schema\": \"hicc.trace.v1\"},\n"
            "\"displayTimeUnit\": \"ms\",\n"
            "\"traceEvents\": [\n"
            " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
            "\"args\": {\"name\": \"hicc\"}},\n"
            " {\"name\": \"nic.buffer_bytes\", \"cat\": \"nic\", \"ph\": \"C\", \"ts\": 5, "
            "\"pid\": 1, \"tid\": 1, \"args\": {\"bytes\": 1536}},\n"
            " {\"name\": \"nic.buffer_drops\", \"cat\": \"nic\", \"ph\": \"C\", \"ts\": 5, "
            "\"pid\": 1, \"tid\": 1, \"args\": {\"packets\": 2}}\n"
            "]}\n");
}

TEST(FileTraceSink, PicksFormatByExtension) {
  sim::Simulator sim;
  Tracer tracer(sim, TraceParams{.enabled = true});

  const std::string csv_path = testing::TempDir() + "hicc_trace_test.csv";
  FileTraceSink csv;
  ASSERT_TRUE(csv.open(tracer, csv_path));
  tracer.sample_now();
  ASSERT_TRUE(csv.close(tracer));
  std::ifstream csv_in(csv_path);
  std::string first_line;
  ASSERT_TRUE(std::getline(csv_in, first_line));
  EXPECT_EQ(first_line, "# hicc.trace.v1");

  const std::string json_path = testing::TempDir() + "hicc_trace_test.json";
  FileTraceSink json;
  ASSERT_TRUE(json.open(tracer, json_path));
  tracer.sample_now();
  ASSERT_TRUE(json.close(tracer));
  std::ifstream json_in(json_path);
  ASSERT_TRUE(std::getline(json_in, first_line));
  EXPECT_EQ(first_line, "{\"otherData\": {\"schema\": \"hicc.trace.v1\"},");
}

// ------------------------------------------------- experiment coverage

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.rx_threads = 2;
  cfg.num_senders = 4;
  cfg.warmup = TimePs::from_us(200);
  cfg.measure = TimePs::from_us(500);
  return cfg;
}

// Every probe documented in docs/OBSERVABILITY.md, by name. Keep the
// three lists (this test, the docs catalog, the component
// registrations) in lockstep.
const char* const kDocumentedProbes[] = {
    "sim.events_executed",
    "sim.queue_depth",
    "sim.pending",
    "sim.events_per_poll",
    "nic.buffer_bytes",
    "nic.buffer_drops",
    "nic.delivered",
    "nic.hol_descriptor_stalls",
    "pcie.credits_in_use",
    "pcie.rc_queue_depth",
    "pcie.write_buffer_bytes",
    "pcie.translation_stalls",
    "pcie.write_buffer_stalls",
    "iommu.iotlb_hits",
    "iommu.iotlb_misses",
    "iommu.invalidations",
    "iommu.pending_walks",
    "mem.bandwidth_gbps",
    "mem.utilization",
    "mem.latency_ns",
    "host.rx_queue_pkts",
    "transport.cwnd_avg",
    "transport.rtt_us",
    "transport.rtt_us.p50",
    "transport.rtt_us.p99",
    "transport.rtt_us.count",
    "transport.host_delay_us",
    "transport.host_delay_us.p50",
    "transport.host_delay_us.p99",
    "transport.host_delay_us.count",
    "transport.fabric_rtt_us",
    "transport.fabric_rtt_us.p50",
    "transport.fabric_rtt_us.p99",
    "transport.fabric_rtt_us.count",
};

TEST(TracedExperiment, CatalogCoversEveryDocumentedProbe) {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  Experiment exp(cfg);
  ASSERT_NE(exp.tracer(), nullptr);
  for (const char* name : kDocumentedProbes) {
    EXPECT_TRUE(exp.tracer()->find(name).has_value()) << "missing probe: " << name;
  }
  // And nothing undocumented snuck in.
  EXPECT_EQ(exp.tracer()->probes().size(), std::size(kDocumentedProbes));
}

TEST(TracedExperiment, DisabledTracingConstructsNoTracer) {
  Experiment exp(small_config());
  EXPECT_EQ(exp.tracer(), nullptr);
}

TEST(TracedExperiment, CaptureRecordsTheDatapathSignals) {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  Experiment exp(cfg);
  RecordingSink sink;
  exp.tracer()->set_sink(&sink);
  const Metrics m = exp.run();
  exp.tracer()->finish();

  EXPECT_GT(m.app_throughput_gbps, 0.0);
  EXPECT_TRUE(sink.ended());
  // One series per emitted probe (histogram parents excluded), each
  // with >= warmup+measure ticks at the 5us default period.
  const auto delivered = sink.of("nic.delivered");
  ASSERT_GE(delivered.size(), 100u);
  EXPECT_GT(delivered.back().value, 0.0);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_GE(delivered[i].value, delivered[i - 1].value);  // counters are monotone
  }
  EXPECT_GT(sink.of("transport.rtt_us.count").back().value, 0.0);
  EXPECT_GT(sink.of("transport.rtt_us.p50").back().value, 0.0);
  EXPECT_GT(sink.of("mem.bandwidth_gbps").back().value, 0.0);
  EXPECT_GT(sink.of("transport.cwnd_avg").back().value, 0.0);
  EXPECT_GT(sink.of("iommu.iotlb_hits").back().value, 0.0);
}

// ------------------------------------------ writer output byte identity

// The writers as they were before each row was built in one buffer:
// every piece through operator<< and the snprintf/strtod formatter.
class ReferenceCsvWriter final : public TraceSink {
 public:
  explicit ReferenceCsvWriter(std::ostream& os) : os_(os) {}

  void begin(const std::vector<ProbeInfo>& probes) override {
    os_ << "# hicc.trace.v1\n";
    for (const ProbeInfo& p : probes) {
      os_ << "# probe," << p.name << "," << to_string(p.kind) << "," << p.unit << "\n";
    }
    os_ << "time_us,probe,value\n";
  }
  void sample(const ProbeInfo& probe, TimePs t, double value) override {
    testing_ref::put_double(os_, t.us());
    os_ << "," << probe.name << ",";
    testing_ref::put_double(os_, value);
    os_ << "\n";
  }
  void end() override { os_.flush(); }

 private:
  std::ostream& os_;
};

class ReferenceChromeWriter final : public TraceSink {
 public:
  explicit ReferenceChromeWriter(std::ostream& os) : os_(os) {}

  void begin(const std::vector<ProbeInfo>& probes) override {
    (void)probes;
    os_ << "{\"otherData\": {\"schema\": \"hicc.trace.v1\"},\n"
        << "\"displayTimeUnit\": \"ms\",\n"
        << "\"traceEvents\": [\n"
        << " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
           "\"args\": {\"name\": \"hicc\"}}";
    first_event_ = false;
  }
  void sample(const ProbeInfo& probe, TimePs t, double value) override {
    os_ << (first_event_ ? "\n" : ",\n");
    first_event_ = false;
    const auto dot = probe.name.find('.');
    const std::string cat = dot == std::string::npos ? probe.name : probe.name.substr(0, dot);
    os_ << " {\"name\": \"" << probe.name << "\", \"cat\": \"" << cat
        << "\", \"ph\": \"C\", \"ts\": ";
    testing_ref::put_double(os_, t.us());
    os_ << ", \"pid\": 1, \"tid\": 1, \"args\": {\"" << probe.unit << "\": ";
    testing_ref::put_double(os_, value);
    os_ << "}}";
  }
  void end() override {
    os_ << "\n]}\n";
    os_.flush();
  }

 private:
  std::ostream& os_;
  bool first_event_ = true;
};

/// Hands every call to two sinks, so one run feeds both writers.
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink& a, TraceSink& b) : a_(a), b_(b) {}

  void begin(const std::vector<ProbeInfo>& probes) override {
    a_.begin(probes);
    b_.begin(probes);
  }
  void sample(const ProbeInfo& probe, TimePs t, double value) override {
    a_.sample(probe, t, value);
    b_.sample(probe, t, value);
  }
  void end_pass() override {
    a_.end_pass();
    b_.end_pass();
  }
  void end() override {
    a_.end();
    b_.end();
  }

 private:
  TraceSink& a_;
  TraceSink& b_;
};

/// Runs a short traced experiment with a memory-antagonist window into
/// `Writer` and `Reference` side by side and expects identical bytes.
template <class Writer, class Reference>
void expect_writer_matches_reference() {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  // 3.3 us ticks: fractional times, some needing 17 digits (23.099999999999998).
  cfg.trace.sample_period = TimePs::from_ns(3'300);
  const fault::ParseResult script = fault::parse_script("mem.antagonist@300us+200us,cores=15");
  ASSERT_TRUE(script.ok());
  cfg.faults = script.script;
  Experiment exp(cfg);
  std::ostringstream got;
  std::ostringstream want;
  Writer writer(got);
  Reference reference(want);
  TeeSink tee(writer, reference);
  exp.tracer()->set_sink(&tee);
  exp.run();
  exp.tracer()->finish();

  const std::string& g = got.str();
  const std::string& w = want.str();
  EXPECT_NE(w.find("fault.mem_antagonist"), std::string::npos);
  const auto diff = std::mismatch(g.begin(), g.end(), w.begin(), w.end());
  if (diff.first != g.end() || diff.second != w.end()) {
    const auto at = static_cast<std::size_t>(diff.first - g.begin());
    ADD_FAILURE() << "outputs differ at byte " << at << " of " << w.size() << ": got \""
                  << g.substr(at, 60) << "\", want \"" << w.substr(at, 60) << "\"";
  }
}

TEST(TracedExperiment, CsvWriterMatchesReferenceByteForByte) {
  expect_writer_matches_reference<CsvTraceWriter, ReferenceCsvWriter>();
}

TEST(TracedExperiment, ChromeWriterMatchesReferenceByteForByte) {
  expect_writer_matches_reference<ChromeTraceWriter, ReferenceChromeWriter>();
}

// ---------------------------------------------- probe value identity

/// Recomputes the samples whose cost the sampler works to avoid, the
/// slow way, as they arrive: transport.cwnd_avg by an id-keyed map per
/// sender machine, and every .p50/.p99 by its own percentile() scan.
/// Other probes pass through unchecked.
class ProbeRecomputeSink final : public TraceSink {
 public:
  /// `senders` lists every sender-side transport in the order the
  /// gauge sums them (sender machine, then receiver).
  ProbeRecomputeSink(const Tracer& tracer,
                     std::vector<const transport::SenderHost*> senders)
      : tracer_(tracer), senders_(std::move(senders)) {}

  void sample(const ProbeInfo& probe, TimePs t, double value) override {
    double want = 0.0;
    if (probe.name == "transport.cwnd_avg") {
      want = cwnd_avg();
    } else if (probe.name.ends_with(".p50") || probe.name.ends_with(".p99")) {
      const std::string parent = probe.name.substr(0, probe.name.size() - 4);
      const LogHistogram* hist =
          tracer_.histogram_at(static_cast<std::size_t>(tracer_.find(parent)->index));
      ASSERT_NE(hist, nullptr) << parent;
      want = hist->percentile(probe.name.ends_with(".p50") ? 50 : 99);
    } else {
      return;
    }
    ++checked_;
    if (std::bit_cast<std::uint64_t>(value) != std::bit_cast<std::uint64_t>(want) &&
        ++mismatches_ <= 5) {
      ADD_FAILURE() << probe.name << " at " << t.us() << " us: sampled " << value
                    << ", recomputed " << want;
    }
  }

  [[nodiscard]] std::int64_t checked() const { return checked_; }
  [[nodiscard]] std::int64_t mismatches() const { return mismatches_; }

 private:
  [[nodiscard]] double cwnd_avg() const {
    double sum = 0.0;
    std::int64_t flows = 0;
    for (const transport::SenderHost* sender : senders_) {
      std::map<std::int32_t, double> by_id;
      for (const auto& [id, flow] : sender->flows()) by_id.emplace(id, flow->cwnd());
      for (const auto& [id, cwnd] : by_id) {
        sum += cwnd;
        ++flows;
      }
    }
    return flows > 0 ? sum / static_cast<double>(flows) : 0.0;
  }

  const Tracer& tracer_;
  std::vector<const transport::SenderHost*> senders_;
  std::int64_t checked_ = 0;
  std::int64_t mismatches_ = 0;
};

TEST(TracedExperiment, ProbeValuesMatchTestLocalRecompute) {
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  const fault::ParseResult script = fault::parse_script("mem.antagonist@300us+200us,cores=15");
  ASSERT_TRUE(script.ok());
  cfg.faults = script.script;
  Experiment exp(cfg);
  std::vector<const transport::SenderHost*> senders;
  for (int i = 0; i < cfg.num_senders; ++i) senders.push_back(&exp.sender(i));
  ProbeRecomputeSink recompute(*exp.tracer(), senders);
  std::ostringstream csv_text;
  CsvTraceWriter csv(csv_text);
  TeeSink tee(recompute, csv);
  exp.tracer()->set_sink(&tee);
  exp.run();
  exp.tracer()->finish();
  // cwnd_avg and three .p50/.p99 pairs in each of 142 passes: the
  // baseline, one per 5 us to 700 us, and finish()'s.
  EXPECT_EQ(recompute.checked(), 142 * 7);
  EXPECT_EQ(recompute.mismatches(), 0);
}

// Open-loop flows are created mid-run by the flow factory, so the
// gauge's flow set grows while the run samples it.
void expect_cluster_probe_values_match(int parallelism) {
  ClusterConfig cfg;
  cfg.host.rx_threads = 2;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(600);
  cfg.host.trace.enabled = true;
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 4;
  cfg.receivers = 2;
  cfg.parallelism = parallelism;
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.workload.rate_per_s = 40e3;
  cfg.workload.fanout = 3;
  cfg.workload.max_active = 96;
  cfg.workload.size_dist = workload::SizeDist::kFixed;
  cfg.workload.fixed_size = Bytes(16 * 1024);
  ClusterExperiment exp(cfg);
  std::vector<const transport::SenderHost*> senders;
  for (int s = 0; s < exp.num_sender_hosts(); ++s) {
    for (int r = 0; r < exp.num_receivers(); ++r) senders.push_back(&exp.sender_port(s, r));
  }
  ProbeRecomputeSink recompute(*exp.tracer(), senders);
  exp.tracer()->set_sink(&recompute);
  exp.run();
  exp.tracer()->finish();
  std::size_t flows = 0;
  for (const transport::SenderHost* sender : senders) flows += sender->flows().size();
  EXPECT_GT(flows, 0u);  // the factory did create flows
  EXPECT_GT(recompute.checked(), 100);
  EXPECT_EQ(recompute.mismatches(), 0);
}

TEST(TracedExperiment, ClusterOpenLoopProbeValuesMatchTestLocalRecompute) {
  expect_cluster_probe_values_match(1);
  expect_cluster_probe_values_match(2);
}

// --------------------------------------------------- no perturbation

TEST(TracedExperiment, TracingPerturbsNothingButEventCount) {
  Experiment untraced(small_config());
  const Metrics base = untraced.run();

  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = true;
  Experiment traced(cfg);
  const Metrics m = traced.run();

  expect_same_metrics(base, m, {"events_executed"});
  // The sampler's ticks are the only addition to the event stream.
  EXPECT_GT(m.events_executed, base.events_executed);
}

TEST(TracedExperiment, DisabledTracingIsBitwiseIdentical) {
  Experiment a(small_config());
  ExperimentConfig cfg = small_config();
  cfg.trace.enabled = false;  // explicit, same as default
  Experiment b(cfg);
  const Metrics ma = a.run();
  const Metrics mb = b.run();
  expect_same_metrics(ma, mb);
}

// -------------------------------------------------------- sweep probe

TEST(SweepHarvest, TraceExtrasLandInResults) {
  std::vector<ExperimentConfig> points(2, small_config());
  points[0].trace.enabled = true;
  points[1].trace.enabled = false;  // harvest must no-op here
  points[0].seed = 7;
  points[1].seed = 8;

  sweep::SweepOptions opts;
  opts.jobs = 1;
  opts.probe = sweep::harvest_trace;
  const auto results = sweep::SweepRunner(opts).run(points);

  ASSERT_EQ(results.size(), 2u);
  const auto& extra = results[0].extra;
  ASSERT_TRUE(extra.count("trace.nic.delivered"));
  EXPECT_GT(extra.at("trace.nic.delivered"), 0.0);
  ASSERT_TRUE(extra.count("trace.transport.rtt_us.p50"));
  EXPECT_GT(extra.at("trace.transport.rtt_us.p50"), 0.0);
  ASSERT_TRUE(extra.count("trace.sim.events_executed"));
  EXPECT_TRUE(results[1].extra.empty());

  // The extras survive the structured JSON record.
  std::ostringstream os;
  sweep::write_json(results, os);
  EXPECT_NE(os.str().find("\"trace.nic.delivered\""), std::string::npos);
}

}  // namespace
}  // namespace hicc::trace
