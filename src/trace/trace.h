// Time-resolved telemetry for the host-congestion datapath.
//
// The end-of-run `Metrics` aggregate answers "how much", but the
// paper's argument is about *when*: the NIC buffer fills over hundreds
// of microseconds while Swift's fabric signal stays flat. This layer
// turns the simulator into a measurement instrument: components
// register named probes with a Tracer, and a periodic sampler -- an
// ordinary simulator event, so samples land exactly on event
// boundaries -- emits one time-series point per probe per tick into a
// TraceSink (CSV writer, Chrome trace_event JSON, or an in-memory
// recorder for tests).
//
// Probe kinds:
//  * Counter   -- monotone cumulative count (drops, IOTLB misses).
//  * Gauge     -- instantaneous level (buffer bytes, credits in use).
//  * Histogram -- per-observation distribution (RTT samples); the
//                 sampler emits derived `<name>.p50`, `<name>.p99`
//                 and `<name>.count` series.
//
// Counters and gauges may be registered with a poll callback that
// reads existing component state (e.g. `NicStats::buffer_drops`) at
// sample time; such probes add zero work to the hot path. Probes
// without a poll are fed via the inline add()/set()/observe() calls.
//
// Zero cost when disabled: components hold a `Tracer*` that is null
// unless tracing was requested, every hot-path hook is guarded by a
// single inline pointer test, and the Tracer itself is a final,
// non-polymorphic class (statically asserted below) -- virtual
// dispatch exists only behind the TraceSink boundary, which is reached
// once per emitted series per sampling tick, never per packet. A run
// with tracing disabled executes the exact same event sequence as an
// untraced run (see tests/trace_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace hicc::trace {

/// What a probe measures; determines how the sampler emits it.
enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Canonical per-host probe name prefix: host_prefix(3) == "host3.".
/// Cluster runs register each host's component probes under this
/// prefix so the hosts get distinct series (registration is
/// get-or-create by name; without the prefix all hosts would merge
/// into one series). See docs/OBSERVABILITY.md, "Per-host probes".
[[nodiscard]] std::string host_prefix(int host);

/// Canonical host-indexed probe name: host_probe(3, "cluster.port_drops")
/// == "host3.cluster.port_drops". Probes registered through this
/// helper are documented once in docs/OBSERVABILITY.md under the
/// template form `host<h>.<name>`; hicc_analyze's docs-probe rules
/// recognize the idiom and check the template form instead of the
/// expanded names.
[[nodiscard]] std::string host_probe(int host, const std::string& name);

/// Short label for a probe kind ("counter" / "gauge" / "histogram").
[[nodiscard]] const char* to_string(Kind kind);

/// Handle to a registered probe; invalid by default so an unattached
/// component can hold ids without registering anything.
struct ProbeId {
  std::int32_t index = -1;
  [[nodiscard]] constexpr bool valid() const { return index >= 0; }
};

/// Catalog entry describing one probe (or one derived histogram
/// series). `name` is a dotted path, `layer.quantity`, and `unit` is a
/// free-form label ("bytes", "packets", "us", "GB/s", ...).
struct ProbeInfo {
  std::string name;
  Kind kind = Kind::kGauge;
  std::string unit;
};

/// Tracing knobs, carried inside ExperimentConfig so sweep points copy
/// them by value.
struct TraceParams {
  /// Master switch: when false no Tracer is created and every
  /// component's tracer pointer stays null.
  bool enabled = false;
  /// Sampler tick. 5us resolves the ~ms congestion episodes the paper
  /// plots while keeping a 30ms run to a few thousand ticks per probe.
  TimePs sample_period = TimePs::from_us(5);
};

/// Consumer of sampled time series. Implementations: CsvTraceWriter
/// and ChromeTraceWriter (exporters.h), RecordingSink (tests).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Called once, when the sink is attached, with the full probe
  /// catalog (histogram parents and their derived series included).
  virtual void begin(const std::vector<ProbeInfo>& probes) { (void)probes; }

  /// One time-series point. Histogram parents are never passed here --
  /// only their derived gauge/counter series are emitted.
  virtual void sample(const ProbeInfo& probe, TimePs t, double value) = 0;

  /// Called after the last sample() of each sampling pass.
  virtual void end_pass() {}

  /// Called once by Tracer::finish() after the final sampling pass.
  virtual void end() {}
};

/// Buffers every sample in memory; used by tests and by sweep-probe
/// harvesting when no file output is wanted.
class RecordingSink final : public TraceSink {
 public:
  struct Sample {
    std::string probe;
    TimePs time{};
    double value = 0.0;
  };

  void begin(const std::vector<ProbeInfo>& probes) override { catalog_ = probes; }
  void sample(const ProbeInfo& probe, TimePs t, double value) override {
    // hicc-lint: allow(ana-hot-alloc-reach) -- test/harvest sink, never
    // installed in a steady-state production run; growth is amortized.
    samples_.push_back(Sample{probe.name, t, value});
  }
  void end() override { ended_ = true; }

  [[nodiscard]] const std::vector<ProbeInfo>& catalog() const { return catalog_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] bool ended() const { return ended_; }

  /// All samples of one probe, in time order.
  [[nodiscard]] std::vector<Sample> of(const std::string& probe) const;

 private:
  std::vector<ProbeInfo> catalog_;
  std::vector<Sample> samples_;
  bool ended_ = false;
};

/// The probe registry + periodic sampler. One Tracer per Experiment,
/// owned by it; components receive a raw pointer (null = disabled).
class Tracer {
 public:
  /// Registers the simulator's own probes (`sim.events_executed`,
  /// `sim.queue_depth`, `sim.pending`, `sim.events_per_poll`)
  /// immediately; the sampler is armed by start().
  explicit Tracer(sim::Simulator& sim, TraceParams params = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII name scope: while alive, every probe registered on `tracer`
  /// has `prefix` prepended to its name. ClusterExperiment wraps each
  /// host's component construction in a ScopedPrefix(host_prefix(h))
  /// so literal registrations like "nic.buffer_drops" become per-host
  /// series ("host0.nic.buffer_drops") without touching component
  /// code. Scopes nest; a null tracer makes the scope a no-op.
  class ScopedPrefix {
   public:
    ScopedPrefix(Tracer* tracer, const std::string& prefix)
        : tracer_(tracer), saved_len_(tracer != nullptr ? tracer->prefix_.size() : 0) {
      if (tracer_ != nullptr) tracer_->prefix_ += prefix;
    }
    ~ScopedPrefix() {
      if (tracer_ != nullptr) tracer_->prefix_.resize(saved_len_);
    }
    ScopedPrefix(const ScopedPrefix&) = delete;
    ScopedPrefix& operator=(const ScopedPrefix&) = delete;

   private:
    Tracer* tracer_;
    std::size_t saved_len_;
  };

  // ---------------------------------------------------- registration

  /// Registers (or looks up -- registration is get-or-create by name,
  /// so instances sharing a metric share a series) a cumulative
  /// counter. With `poll`, the sampler reads the callback at each tick
  /// and the hot path is untouched; without it, feed via add().
  /// Throws std::logic_error when `name` is already registered with
  /// another kind (by any of counter(), gauge() and histogram()).
  ProbeId counter(std::string name, std::string unit, std::function<double()> poll = nullptr);

  /// Registers an instantaneous gauge; polled or fed via set().
  ProbeId gauge(std::string name, std::string unit, std::function<double()> poll = nullptr);

  /// Registers a distribution probe fed via observe(). Also registers
  /// the derived `<name>.p50` / `<name>.p99` (gauges, same unit) and
  /// `<name>.count` (counter) series the sampler emits.
  ProbeId histogram(std::string name, std::string unit);

  // ------------------------------------------- hot-path feed (inline)

  /// Adds `delta` to a counter. Arithmetic only; no sink dispatch.
  void add(ProbeId id, double delta = 1.0) {
    probes_[static_cast<std::size_t>(id.index)].value += delta;
  }

  /// Sets a gauge's current value. Arithmetic only; no sink dispatch.
  void set(ProbeId id, double value) {
    probes_[static_cast<std::size_t>(id.index)].value = value;
  }

  /// Records one histogram observation (histogram-bucket increment).
  void observe(ProbeId id, double value);

  // -------------------------------------------------------- sampling

  /// Attaches the sink and immediately hands it the current catalog.
  /// Samples taken while no sink is attached are dropped.
  void set_sink(TraceSink* sink);

  /// Emits a baseline sampling pass and arms the periodic sampler.
  /// Idempotent; called by Experiment::start(). Partitioned cluster
  /// runs pass arm_sampler=false: a PeriodicTask would sample
  /// mid-window while other partitions are running, so
  /// ClusterExperiment instead calls sample_now() from the engine's
  /// barrier hook, where every partition is quiescent (deterministic
  /// per-partition probe aggregation -- see docs/PARALLELISM.md).
  void start(bool arm_sampler = true);

  /// Runs one sampling pass at the current simulated time.
  void sample_now();

  /// Final sampling pass + TraceSink::end(); detaches the sink and
  /// stops the sampler. Call after the run, while the instrumented
  /// components (whose poll callbacks the pass reads) are still alive.
  void finish();

  // ------------------------------------------------------ inspection

  /// Full catalog, histogram parents and derived series included.
  [[nodiscard]] const std::vector<ProbeInfo>& probes() const { return catalog_; }

  /// Current value of catalog entry `i`: counters/gauges return their
  /// latest (polled if registered so) value; histogram parents return
  /// their observation count.
  [[nodiscard]] double value_at(std::size_t i) const;

  /// The distribution behind catalog entry `i`, or null unless the
  /// entry is a histogram parent.
  [[nodiscard]] const LogHistogram* histogram_at(std::size_t i) const {
    return probes_[i].hist.get();
  }

  /// Looks up a probe by exact name.
  [[nodiscard]] std::optional<ProbeId> find(const std::string& name) const;

  [[nodiscard]] const TraceParams& params() const { return params_; }

 private:
  struct Probe {
    double value = 0.0;                  // counter total / gauge level
    std::function<double()> poll;        // optional state reader
    std::unique_ptr<LogHistogram> hist;  // kHistogram only
    std::int32_t derived = -1;           // index of the .p50 entry
    std::int64_t refreshed_count = 0;    // hist->count() the derived series show
    bool emit = true;                    // histogram parents: false
  };

  ProbeId intern(std::string name, Kind kind, std::string unit,
                 std::function<double()> poll, bool emit);

  sim::Simulator& sim_;
  TraceParams params_;
  /// Active ScopedPrefix chain, prepended to every interned name.
  std::string prefix_;
  TraceSink* sink_ = nullptr;
  std::vector<ProbeInfo> catalog_;  // parallel to probes_
  std::vector<Probe> probes_;
  std::optional<sim::PeriodicTask> sampler_;
  bool started_ = false;
};

// The disabled path must stay a single inline pointer test; a virtual
// Tracer would put a vtable between every hot-path hook and its guard.
static_assert(!std::is_polymorphic_v<Tracer>, "Tracer must stay non-virtual on hot paths");

}  // namespace hicc::trace
