#include "mem/memory_system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace hicc::mem {

const char* to_string(MemClass cls) {
  switch (cls) {
    case MemClass::kNicDma: return "nic_dma";
    case MemClass::kIommuWalk: return "iommu_walk";
    case MemClass::kCpuCopy: return "cpu_copy";
    case MemClass::kAntagonist: return "antagonist";
    case MemClass::kOther: return "other";
  }
  return "?";
}

MemorySystem::MemorySystem(sim::Simulator& sim, DramParams params, Rng rng, TimePs epoch,
                           trace::Tracer* tracer)
    : sim_(sim),
      params_(params),
      rng_(rng),
      epoch_(epoch),
      latency_(params.idle_latency),
      epoch_task_(sim, epoch, [this] { on_epoch(); }) {
  class_throttle_bps_.fill(0.0);
  if (tracer != nullptr) {
    // All polled: the sampler reads the operating point the epoch
    // solver already maintains, so tracing adds nothing per request.
    tracer->gauge("mem.bandwidth_gbps", "GB/s", [this] {
      return (fluid_bw_at(latency_) + discrete_rate_.bps()) / 8e9;
    });
    tracer->gauge("mem.utilization", "fraction", [this] { return rho_; });
    tracer->gauge("mem.latency_ns", "ns", [this] { return latency_.ns(); });
  }
}

ClientId MemorySystem::add_closed_loop(MemClass cls, int cores, BitRate per_core_peak,
                                       Bytes per_core_outstanding, double read_fraction) {
  clients_.push_back(FluidClient{.cls = cls,
                                 .closed_loop = true,
                                 .cores = cores,
                                 .per_core_peak = per_core_peak,
                                 .per_core_outstanding = per_core_outstanding,
                                 .demand = BitRate(0),
                                 .read_fraction = read_fraction,
                                 .achieved = BitRate(0)});
  solve_dirty_ = true;
  return ClientId{static_cast<int>(clients_.size()) - 1};
}

void MemorySystem::set_cores(ClientId id, int cores) {
  assert(id.valid() && static_cast<std::size_t>(id.index) < clients_.size());
  int& current = clients_[static_cast<std::size_t>(id.index)].cores;
  if (current == cores) return;
  current = cores;
  solve_dirty_ = true;
}

ClientId MemorySystem::add_open(MemClass cls, double read_fraction) {
  clients_.push_back(FluidClient{.cls = cls,
                                 .closed_loop = false,
                                 .cores = 0,
                                 .per_core_peak = BitRate(0),
                                 .per_core_outstanding = Bytes(0),
                                 .demand = BitRate(0),
                                 .read_fraction = read_fraction,
                                 .achieved = BitRate(0)});
  solve_dirty_ = true;
  return ClientId{static_cast<int>(clients_.size()) - 1};
}

void MemorySystem::set_demand(ClientId id, BitRate demand) {
  assert(id.valid() && static_cast<std::size_t>(id.index) < clients_.size());
  BitRate& current = clients_[static_cast<std::size_t>(id.index)].demand;
  // The rx accounting tick re-sets an unchanged demand every 20 us;
  // only a new value (compared bitwise) invalidates the last solve.
  if (std::bit_cast<std::uint64_t>(current.bps()) == std::bit_cast<std::uint64_t>(demand.bps())) {
    return;
  }
  current = demand;
  solve_dirty_ = true;
}

void MemorySystem::set_class_throttle(MemClass cls, BitRate cap) {
  class_throttle_bps_[static_cast<std::size_t>(cls)] = cap.bps();
  solve_dirty_ = true;
}

double MemorySystem::throttled_core_peak(const FluidClient& c) const {
  double peak = c.per_core_peak.bps();
  const double throttle = class_throttle_bps_[static_cast<std::size_t>(c.cls)];
  if (throttle > 0.0 && c.cores > 0) {
    peak = std::min(peak, throttle / static_cast<double>(c.cores));
  }
  return peak;
}

double MemorySystem::fluid_bw_at(TimePs latency) const {
  double total = 0.0;
  for (const auto& c : clients_) {
    if (c.closed_loop) {
      if (c.cores <= 0) continue;
      // Closed loop: each core sustains outstanding/latency, but never
      // more than its core-side peak (prefetcher/fill-buffer limit).
      const double by_latency = c.per_core_outstanding.bits() / latency.sec();
      total += static_cast<double>(c.cores) * std::min(throttled_core_peak(c), by_latency);
    } else {
      double d = c.demand.bps();
      const double throttle = class_throttle_bps_[static_cast<std::size_t>(c.cls)];
      if (throttle > 0.0) d = std::min(d, throttle);
      total += d;
    }
  }
  return total;
}

void MemorySystem::on_epoch() {
  // Measured discrete offered rate over the epoch that just ended.
  double discrete_bytes = 0.0;
  for (double b : discrete_bytes_epoch_) discrete_bytes += b;
  discrete_rate_ = BitRate(discrete_bytes * 8.0 / epoch_.sec());
  std::fill(std::begin(discrete_bytes_epoch_), std::end(discrete_bytes_epoch_), 0.0);

  // The operating point depends on nothing but the clients, the
  // throttles and the discrete rate: with all three as at the last
  // solve, that solve's (rho_, latency_) is the answer bit for bit.
  const auto rate_bits = std::bit_cast<std::uint64_t>(discrete_rate_.bps());
  if (solve_dirty_ || rate_bits != solved_rate_bits_) {
    solve();
    solve_dirty_ = false;
    solved_rate_bits_ = rate_bits;
  }

  // Record each fluid client's achieved bandwidth at the operating
  // point and integrate it into the measurement window.
  for (auto& c : clients_) {
    double bw = 0.0;
    if (c.closed_loop) {
      if (c.cores > 0) {
        const double by_latency = c.per_core_outstanding.bits() / latency_.sec();
        bw = static_cast<double>(c.cores) * std::min(throttled_core_peak(c), by_latency);
      }
    } else {
      bw = c.demand.bps();
      const double throttle = class_throttle_bps_[static_cast<std::size_t>(c.cls)];
      if (throttle > 0.0) bw = std::min(bw, throttle);
    }
    c.achieved = BitRate(bw);
    const double bytes = bw / 8.0 * epoch_.sec();
    window_bytes_by_class_[static_cast<std::size_t>(c.cls)] += bytes;
    window_read_bytes_ += bytes * c.read_fraction;
    window_write_bytes_ += bytes * (1.0 - c.read_fraction);
  }
}

void MemorySystem::solve() {
  const double cap = params_.achievable_bw().bps();

  // Find the operating point. Below saturation the latency follows the
  // load-latency curve; f(rho) = offered(rho)/cap is non-increasing in
  // rho, so bisection on g(rho) = f(rho) - rho (strictly decreasing)
  // finds the unique fixed point.
  constexpr double kRhoMax = 0.995;
  auto offered_at = [&](double rho) {
    return fluid_bw_at(params_.latency_at(rho)) + discrete_rate_.bps();
  };

  if (offered_at(kRhoMax) >= kRhoMax * cap) {
    // Saturated: latency rises above the curve until closed-loop
    // clients throttle themselves down to the achievable bandwidth.
    TimePs lo = params_.latency_at(kRhoMax);
    TimePs hi = params_.max_latency;
    if (fluid_bw_at(hi) + discrete_rate_.bps() > cap) {
      // Inelastic load alone exceeds capacity; pin at the cap.
      latency_ = hi;
    } else {
      for (int i = 0; i < 50; ++i) {
        const TimePs mid = lo + (hi - lo) / 2;
        if (fluid_bw_at(mid) + discrete_rate_.bps() > cap) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      latency_ = hi;
    }
    rho_ = std::min((fluid_bw_at(latency_) + discrete_rate_.bps()) / cap, 1.05);
  } else {
    double lo = 0.0, hi = kRhoMax;
    for (int i = 0; i < 50; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (offered_at(mid) > mid * cap) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    rho_ = hi;
    latency_ = params_.latency_at(rho_);
  }
}

TimePs MemorySystem::request(MemClass cls, Bytes n, bool is_read) {
  const double bytes = static_cast<double>(n.count());
  discrete_bytes_epoch_[static_cast<std::size_t>(cls)] += bytes;
  window_bytes_by_class_[static_cast<std::size_t>(cls)] += bytes;
  if (is_read) {
    window_read_bytes_ += bytes;
  } else {
    window_write_bytes_ += bytes;
  }
  // Completion = loaded access latency (with +-10% service jitter) plus
  // the burst's own serialization time on the bus.
  const double jitter = rng_.uniform(0.9, 1.1);
  const TimePs serialization = params_.achievable_bw().time_to_send(n);
  return TimePs::from_ns(latency_.ns() * jitter) + serialization;
}

void MemorySystem::begin_window() {
  window_start_ = sim_.now();
  std::fill(std::begin(window_bytes_by_class_), std::end(window_bytes_by_class_), 0.0);
  window_read_bytes_ = 0.0;
  window_write_bytes_ = 0.0;
}

BandwidthReport MemorySystem::window_report() const {
  BandwidthReport r;
  const double secs = (sim_.now() - window_start_).sec();
  if (secs <= 0.0) return r;
  for (int i = 0; i < kMemClassCount; ++i) {
    r.by_class_gbytes_per_sec[static_cast<std::size_t>(i)] =
        window_bytes_by_class_[i] / secs * 1e-9;
    r.total_gbytes_per_sec += r.by_class_gbytes_per_sec[static_cast<std::size_t>(i)];
  }
  r.read_gbytes_per_sec = window_read_bytes_ / secs * 1e-9;
  r.write_gbytes_per_sec = window_write_bytes_ / secs * 1e-9;
  return r;
}

}  // namespace hicc::mem
