#include "trace/trace.h"

#include <stdexcept>
#include <utility>

namespace hicc::trace {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

std::string host_prefix(int host) { return "host" + std::to_string(host) + "."; }

std::string host_probe(int host, const std::string& name) {
  return host_prefix(host) + name;
}

namespace {

[[noreturn]] void throw_kind_mismatch(const std::string& name, Kind registered, Kind requested) {
  throw std::logic_error("trace probe '" + name + "' registered as " + to_string(registered) +
                         ", re-registered as " + to_string(requested));
}

}  // namespace

std::vector<RecordingSink::Sample> RecordingSink::of(const std::string& probe) const {
  std::vector<Sample> out;
  for (const Sample& s : samples_) {
    if (s.probe == probe) out.push_back(s);
  }
  return out;
}

Tracer::Tracer(sim::Simulator& sim, TraceParams params) : sim_(sim), params_(params) {
  counter("sim.events_executed", "events",
          [this] { return static_cast<double>(sim_.executed()); });
  // Slab occupancy, cancellation tombstones included: the engine's
  // memory-pressure figure. Always >= sim.pending.
  gauge("sim.queue_depth", "events",
        [this] { return static_cast<double>(sim_.queued_nodes()); });
  // Live events awaiting execution (exact; excludes tombstones).
  gauge("sim.pending", "events", [this] { return static_cast<double>(sim_.pending()); });
  // Events retired since the previous sampling tick -- the engine's
  // instantaneous event rate, scaled by the sample period. The poll
  // lambda keeps the previous total, so this stays zero-cost on the
  // hot path like every other polled probe.
  gauge("sim.events_per_poll", "events",
        [this, last = std::uint64_t{0}]() mutable {
          const std::uint64_t total = sim_.executed();
          const double delta = static_cast<double>(total - last);
          last = total;
          return delta;
        });
}

ProbeId Tracer::intern(std::string name, Kind kind, std::string unit,
                       std::function<double()> poll, bool emit) {
  if (!prefix_.empty()) name.insert(0, prefix_);
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    if (catalog_[i].name == name) {
      // Get-or-create: instances sharing a metric share the series.
      // The kind must agree; the first registrant's poll wins.
      if (catalog_[i].kind != kind) throw_kind_mismatch(name, catalog_[i].kind, kind);
      return ProbeId{static_cast<std::int32_t>(i)};
    }
  }
  catalog_.push_back(ProbeInfo{std::move(name), kind, std::move(unit)});
  Probe p;
  p.poll = std::move(poll);
  p.emit = emit;
  if (kind == Kind::kHistogram) p.hist = std::make_unique<LogHistogram>();
  probes_.push_back(std::move(p));
  return ProbeId{static_cast<std::int32_t>(probes_.size()) - 1};
}

ProbeId Tracer::counter(std::string name, std::string unit, std::function<double()> poll) {
  return intern(std::move(name), Kind::kCounter, std::move(unit), std::move(poll), true);
}

ProbeId Tracer::gauge(std::string name, std::string unit, std::function<double()> poll) {
  return intern(std::move(name), Kind::kGauge, std::move(unit), std::move(poll), true);
}

ProbeId Tracer::histogram(std::string name, std::string unit) {
  const ProbeId id = intern(name, Kind::kHistogram, unit, nullptr, /*emit=*/false);
  Probe& parent = probes_[static_cast<std::size_t>(id.index)];
  if (parent.derived < 0) {
    // Derived series are emitted by the sampler from the accumulated
    // histogram; they are registered contiguously so one index finds
    // all three.
    parent.derived = static_cast<std::int32_t>(probes_.size());
    intern(name + ".p50", Kind::kGauge, unit, nullptr, true);
    intern(name + ".p99", Kind::kGauge, unit, nullptr, true);
    intern(name + ".count", Kind::kCounter, "observations", nullptr, true);
  }
  return id;
}

void Tracer::observe(ProbeId id, double value) {
  Probe& p = probes_[static_cast<std::size_t>(id.index)];
  p.hist->add(value);
  p.value = static_cast<double>(p.hist->count());
}

void Tracer::set_sink(TraceSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr) sink_->begin(catalog_);
}

void Tracer::start(bool arm_sampler) {
  if (started_) return;
  started_ = true;
  sample_now();
  if (arm_sampler) {
    sampler_.emplace(sim_, params_.sample_period, [this] { sample_now(); });
  }
}

void Tracer::sample_now() {
  const TimePs t = sim_.now();
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    Probe& p = probes_[i];
    if (p.hist != nullptr && p.derived >= 0 && p.hist->count() != p.refreshed_count) {
      // Refresh the derived series before the loop reaches them (they
      // were registered right after their parent). Done even without a
      // sink so sweep harvesting sees current percentiles. Histograms
      // only grow, so an unchanged count means unchanged series.
      p.refreshed_count = p.hist->count();
      const auto [p50, p99] = p.hist->percentiles(50, 99);
      probes_[static_cast<std::size_t>(p.derived)].value = p50;
      probes_[static_cast<std::size_t>(p.derived) + 1].value = p99;
      probes_[static_cast<std::size_t>(p.derived) + 2].value =
          static_cast<double>(p.refreshed_count);
    }
    if (!p.emit || sink_ == nullptr) continue;
    sink_->sample(catalog_[i], t, p.poll ? p.poll() : p.value);
  }
  if (sink_ != nullptr) sink_->end_pass();
}

void Tracer::finish() {
  if (sink_ != nullptr) {
    sample_now();
    sink_->end();
    sink_ = nullptr;
  }
  sampler_.reset();
  started_ = false;
}

double Tracer::value_at(std::size_t i) const {
  const Probe& p = probes_[i];
  return p.poll ? p.poll() : p.value;
}

std::optional<ProbeId> Tracer::find(const std::string& name) const {
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    if (catalog_[i].name == name) return ProbeId{static_cast<std::int32_t>(i)};
  }
  return std::nullopt;
}

}  // namespace hicc::trace
