#include "fault/engine.h"

#include <algorithm>
#include <string>
#include <utility>

// The next three headers never have their type names spelled here --
// the fault engine reaches ReceiverHost / StreamAntagonist / ClosFabric
// only through FaultTargets pointers -- but dereferencing those
// pointers needs the complete types.
// hicc-lint: allow(ana-include-unused) -- complete type for FaultTargets::hosts[i]->
#include "host/receiver_host.h"
// hicc-lint: allow(ana-include-unused) -- complete type for FaultTargets::antagonist->
#include "mem/stream_antagonist.h"
#include "net/link.h"
// hicc-lint: allow(ana-include-unused) -- complete type for FaultTargets::fabric->
#include "net/topology.h"

namespace hicc::fault {
namespace {

/// Blind-time sampling resolution; matches the default trace tick so
/// fault windows and probe series line up.
constexpr TimePs kMonitorPeriod = TimePs::from_us(5);

double param(const FaultEvent& e, const char* key, double def) {
  const auto it = e.params.find(key);
  return it == e.params.end() ? def : it->second;
}

std::string probe_name(FaultKind kind) {
  // "mem.antagonist" -> "fault.mem_antagonist": the Chrome exporter
  // groups tracks by first dotted segment, so all injectors share one
  // "fault" category.
  std::string name(to_string(kind));
  std::replace(name.begin(), name.end(), '.', '_');
  return "fault." + name;
}

}  // namespace

FaultEngine::FaultEngine(sim::Simulator& sim, FaultScript script, FaultTargets targets, Rng rng,
                         trace::Tracer* tracer)
    : sim_(sim), script_(std::move(script)), targets_(targets), rng_(rng) {
  states_.resize(script_.events.size());
  for (std::size_t i = 0; i < script_.events.size(); ++i) {
    const FaultEvent& e = script_.events[i];
    const net::QueuedLink* link = to_string(e.kind).starts_with("net.") ? link_of(e) : nullptr;
    if (link == nullptr || &link->simulator() == &sim_) {
      sim_.at(e.at, [this, i] { activate(i, &sim_, kAccount | kDevice); });
      continue;
    }
    // The link lives on another partition: change it there, account
    // for the window here. Both chains follow the script's own times.
    sim::Simulator* owner = &link->simulator();
    if (e.kind == FaultKind::kNetLoss) states_[i].remote_rng = rng_.fork();
    owner->at(e.at, [this, i, owner] { activate(i, owner, kDevice); });
    sim_.at(e.at, [this, i] { activate(i, &sim_, kAccount); });
  }
  if (tracer != nullptr && !script_.empty()) {
    tracer->gauge("fault.active", "faults",
                  [this] { return static_cast<double>(active_count_); });
    tracer->counter("fault.activations", "windows",
                    [this] { return static_cast<double>(activations_); });
    // One activity gauge per kind the script uses (get-or-create, so
    // multiple entries of one kind share the series).
    for (const FaultEvent& e : script_.events) {
      const FaultKind kind = e.kind;
      // hicc-lint: allow(docs-probe-dynamic) -- fault.<kind> names are
      // cataloged in docs/FAULTS.md; the unconditional 34-probe catalog
      // check stays literal.
      tracer->gauge(probe_name(kind), "faults",
                    [this, kind] { return static_cast<double>(active_of_kind(kind)); });
    }
  }
}

std::int64_t FaultEngine::nic_drops() const {
  return targets_.receiver != nullptr ? targets_.receiver->nic().stats().buffer_drops : 0;
}

int FaultEngine::active_of_kind(FaultKind kind) const {
  int n = 0;
  for (std::size_t i = 0; i < script_.events.size(); ++i) {
    if (script_.events[i].kind == kind && states_[i].active) ++n;
  }
  return n;
}

net::QueuedLink* FaultEngine::link_of(const FaultEvent& e) const {
  if (targets_.fabric == nullptr) return nullptr;
  const auto& topo = targets_.fabric->config();
  const int leaf = static_cast<int>(param(e, "leaf", -1.0));
  const int spine = static_cast<int>(param(e, "spine", -1.0));
  if (leaf >= 0 && spine >= 0) {
    if (leaf >= topo.leaves || spine >= topo.spines) return nullptr;
    return &targets_.fabric->leaf_uplink(leaf, spine);
  }
  const int host = static_cast<int>(param(e, "host", -1.0));
  if (host >= 0) {
    if (host >= topo.num_hosts()) return nullptr;
    return &targets_.fabric->host_uplink(host);
  }
  // Default: the hot port of the incast -- receiver 0's downlink, the
  // access link.
  return &targets_.fabric->host_downlink(0);
}

void FaultEngine::activate(std::size_t idx, sim::Simulator* on, unsigned role) {
  const FaultEvent& e = script_.events[idx];
  Active& a = states_[idx];
  if ((role & kAccount) != 0 && !a.active) {
    a.active = true;
    ++activations_;
    if (active_count_++ == 0) {
      active_since_ = sim_.now();
      drops_at_union_start_ = nic_drops();
      drops_at_last_tick_ = drops_at_union_start_;
      monitor_ = sim::PeriodicTask(sim_, kMonitorPeriod, [this] { monitor_tick(); });
    }
  }
  if ((role & kDevice) != 0 && !a.applied) {
    a.applied = true;
    apply(idx);
  }
  if (e.duration != TimePs{}) {
    on->after(e.duration, [this, idx, role] { deactivate(idx, role); });
  }
  if (e.period != TimePs{}) {
    on->after(e.period, [this, idx, on, role] { activate(idx, on, role); });
  }
}

void FaultEngine::deactivate(std::size_t idx, unsigned role) {
  Active& a = states_[idx];
  if ((role & kDevice) != 0 && a.applied) {
    a.applied = false;
    revert(idx);
  }
  if ((role & kAccount) != 0 && a.active) {
    a.active = false;
    if (--active_count_ == 0) {
      report_.active_us += (sim_.now() - active_since_).us();
      report_.drops += nic_drops() - drops_at_union_start_;
      monitor_.stop();
    }
  }
}

void FaultEngine::monitor_tick() {
  const std::int64_t drops = nic_drops();
  if (drops > drops_at_last_tick_) report_.blind_us += kMonitorPeriod.us();
  drops_at_last_tick_ = drops;
}

FaultReport FaultEngine::report() const {
  FaultReport r = report_;
  r.windows = activations_;
  if (active_count_ > 0) {
    // Windows still open (permanent faults, or a window spanning the
    // end of the run) are counted up to the current instant.
    r.active_us += (sim_.now() - active_since_).us();
    r.drops += nic_drops() - drops_at_union_start_;
  }
  return r;
}

void FaultEngine::apply(std::size_t idx) {
  const FaultEvent& e = script_.events[idx];
  Active& a = states_[idx];
  switch (e.kind) {
    case FaultKind::kNetLinkDown:
      if (net::QueuedLink* link = link_of(e)) link->set_down(true);
      break;
    case FaultKind::kNetRate:
      if (net::QueuedLink* link = link_of(e)) {
        a.saved_rate = link->rate();
        link->set_rate(BitRate::gbps(param(e, "gbps", 10.0)));
      }
      break;
    case FaultKind::kNetLoss:
      if (net::QueuedLink* link = link_of(e)) {
        // rng_ belongs to the home; a remote link draws from its own.
        link->set_loss(param(e, "prob", 0.1),
                       &link->simulator() == &sim_ ? &rng_ : &a.remote_rng);
      }
      break;
    case FaultKind::kNicCreditStall:
      if (targets_.receiver != nullptr) targets_.receiver->pcie().set_credit_freeze(true);
      break;
    case FaultKind::kNicBufferSqueeze:
      if (targets_.receiver != nullptr) {
        targets_.receiver->nic().set_buffer_limit(Bytes::kib(param(e, "kb", 64.0)));
      }
      break;
    case FaultKind::kIommuStorm:
      if (targets_.receiver != nullptr) {
        const double per_us = param(e, "per_us", 1.0);
        a.ticker = sim::PeriodicTask(
            sim_, TimePs::from_us(per_us > 0.0 ? 1.0 / per_us : 1.0), [this] {
              (void)targets_.receiver->iommu().invalidate_random_page(rng_);
            });
      }
      break;
    case FaultKind::kMemAntagonist:
      if (targets_.antagonist != nullptr) {
        a.saved_int = targets_.antagonist->cores();
        targets_.antagonist->set_cores(static_cast<int>(param(e, "cores", 8.0)));
      }
      break;
    case FaultKind::kMemDdioSqueeze:
      if (targets_.receiver != nullptr) {
        a.saved_int = targets_.receiver->ddio().params().ddio_ways;
        targets_.receiver->ddio().set_ddio_ways(static_cast<int>(param(e, "ways", 1.0)));
      }
      break;
    case FaultKind::kHostDeschedule:
      if (targets_.receiver != nullptr) {
        targets_.receiver->set_threads_descheduled(static_cast<int>(param(e, "threads", 1.0)),
                                                   true);
      }
      break;
    case FaultKind::kTransportChurn:
      if (targets_.receiver != nullptr) {
        // Pause the highest-numbered flows: victims are laid out after
        // the bulk flows, so churn hits them first ("victims leaving").
        const int total = targets_.receiver->num_flows();
        const int n = std::min(total, static_cast<int>(param(e, "flows", 1.0)));
        for (int f = total - n; f < total; ++f) {
          targets_.receiver->set_flow_paused(f, true);
        }
      }
      break;
  }
}

void FaultEngine::revert(std::size_t idx) {
  const FaultEvent& e = script_.events[idx];
  Active& a = states_[idx];
  switch (e.kind) {
    case FaultKind::kNetLinkDown:
      if (net::QueuedLink* link = link_of(e)) link->set_down(false);
      break;
    case FaultKind::kNetRate:
      if (net::QueuedLink* link = link_of(e)) link->set_rate(a.saved_rate);
      break;
    case FaultKind::kNetLoss:
      if (net::QueuedLink* link = link_of(e)) link->set_loss(0.0, nullptr);
      break;
    case FaultKind::kNicCreditStall:
      if (targets_.receiver != nullptr) targets_.receiver->pcie().set_credit_freeze(false);
      break;
    case FaultKind::kNicBufferSqueeze:
      if (targets_.receiver != nullptr) targets_.receiver->nic().set_buffer_limit(Bytes(0));
      break;
    case FaultKind::kIommuStorm:
      a.ticker = sim::PeriodicTask{};
      break;
    case FaultKind::kMemAntagonist:
      if (targets_.antagonist != nullptr) targets_.antagonist->set_cores(a.saved_int);
      break;
    case FaultKind::kMemDdioSqueeze:
      if (targets_.receiver != nullptr) targets_.receiver->ddio().set_ddio_ways(a.saved_int);
      break;
    case FaultKind::kHostDeschedule:
      if (targets_.receiver != nullptr) {
        targets_.receiver->set_threads_descheduled(static_cast<int>(param(e, "threads", 1.0)),
                                                   false);
      }
      break;
    case FaultKind::kTransportChurn:
      if (targets_.receiver != nullptr) {
        const int total = targets_.receiver->num_flows();
        const int n = std::min(total, static_cast<int>(param(e, "flows", 1.0)));
        for (int f = total - n; f < total; ++f) {
          targets_.receiver->set_flow_paused(f, false);
        }
      }
      break;
  }
}

}  // namespace hicc::fault
