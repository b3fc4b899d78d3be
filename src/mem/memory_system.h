// The shared memory bus of one NUMA node (§3.2 of the paper).
//
// Clients of the memory bus fall into two kinds:
//
//  * Fluid clients -- CPU-side streaming traffic whose per-request
//    events would be intractable to simulate (a STREAM antagonist at
//    90 GB/s is ~1.4e9 cache lines/s). Closed-loop fluid clients (the
//    antagonist) are described by (cores, per-core peak, per-core
//    outstanding bytes); open fluid clients (rx-thread copies) are
//    described by a demand rate. Their achieved bandwidth is computed
//    analytically once per epoch.
//
//  * Discrete clients -- the NIC-side datapath (PCIe posted writes,
//    IOMMU page-walk reads, descriptor fetches). These are individually
//    simulated: each request samples a completion latency from the
//    current load-latency operating point. Their measured rate feeds
//    back into the next epoch's utilization.
//
// The epoch solver finds the operating point (utilization rho and
// latency L): below saturation, rho = offered/achievable and
// L = curve(rho); at saturation the closed-loop clients self-limit --
// each keeps a bounded number of bytes outstanding, so its bandwidth is
// outstanding/L -- and L rises until total offered load equals
// achievable bandwidth. Because CPU cores collectively keep far more
// bytes outstanding than the NIC's bounded write buffer, CPUs win a
// larger share when the bus saturates; this is the paper's observed
// unfairness and needs no explicit scheduler bias.
//
// The operating point is a pure function of the fluid clients, the
// class throttles and the discrete rate, so an epoch in which none of
// them changed keeps the last solve's answer instead of bisecting
// again (DESIGN.md §8 item 7).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/send_time_memo.h"
#include "common/units.h"
#include "mem/dram.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc::mem {

/// Traffic classes, used for bandwidth attribution (Fig 6's bars) and
/// for MBA-style QoS throttles.
enum class MemClass : std::uint8_t {
  kNicDma,      // PCIe posted writes of packet payloads/descriptors
  kIommuWalk,   // page-table walk reads issued by the IOMMU
  kCpuCopy,     // rx-thread copies to application buffers
  kAntagonist,  // STREAM-like antagonist traffic
  kOther,
};
inline constexpr int kMemClassCount = 5;

/// Returns a short label for a traffic class (used in reports).
[[nodiscard]] const char* to_string(MemClass cls);

/// Handle to a registered fluid client.
struct ClientId {
  int index = -1;
  [[nodiscard]] constexpr bool valid() const { return index >= 0; }
};

/// Per-class achieved-bandwidth snapshot (averaged over a window).
struct BandwidthReport {
  double total_gbytes_per_sec = 0.0;
  double read_gbytes_per_sec = 0.0;
  double write_gbytes_per_sec = 0.0;
  std::array<double, kMemClassCount> by_class_gbytes_per_sec{};
};

/// The memory bus + controller of one NUMA node.
class MemorySystem {
 public:
  /// `epoch` is the fluid re-solve interval; 5us keeps the solver cost
  /// negligible while tracking workload shifts far faster than the
  /// congestion-control timescale (~20us RTT, 100us host target).
  /// `tracer`, when non-null, registers the `mem.*` probes (polled --
  /// no per-request tracing work). Attach it to at most one
  /// MemorySystem per Tracer: probe names are shared get-or-create
  /// series, so a second node would silently merge into the first.
  MemorySystem(sim::Simulator& sim, DramParams params, Rng rng,
               TimePs epoch = TimePs::from_us(5), trace::Tracer* tracer = nullptr);

  // ------------------------------------------------------- fluid side

  /// Registers a closed-loop streaming client (e.g. STREAM antagonist).
  /// `per_core_peak` is the core-side bandwidth limit of one core;
  /// `per_core_outstanding` is how many bytes one core keeps in flight
  /// (line-fill buffers + prefetch depth); `read_fraction` splits the
  /// achieved bandwidth for read/write reporting.
  ClientId add_closed_loop(MemClass cls, int cores, BitRate per_core_peak,
                           Bytes per_core_outstanding, double read_fraction);

  /// Changes the active core count of a closed-loop client.
  void set_cores(ClientId id, int cores);

  /// Registers an open-loop fluid client (demand set externally).
  ClientId add_open(MemClass cls, double read_fraction);

  /// Sets the offered rate of an open-loop client.
  void set_demand(ClientId id, BitRate demand);

  /// MBA-style QoS: caps the aggregate bandwidth of `cls` (§4 ablation).
  /// A zero/negative cap removes the throttle. Always re-solves at the
  /// next epoch, even when the cap is unchanged.
  void set_class_throttle(MemClass cls, BitRate cap);

  /// Achieved bandwidth of a fluid client at the current operating
  /// point (updated once per epoch).
  [[nodiscard]] BitRate achieved(ClientId id) const {
    return clients_[static_cast<std::size_t>(id.index)].achieved;
  }

  // ---------------------------------------------------- discrete side

  /// Issues a discrete request of `n` bytes and returns its completion
  /// latency at the current operating point (including a small random
  /// service jitter and the burst's own serialization time). The bytes
  /// are accounted toward next epoch's utilization under `cls`.
  [[nodiscard]] TimePs request(MemClass cls, Bytes n, bool is_read);

  /// Current modeled access latency (no accounting, no jitter).
  [[nodiscard]] TimePs current_latency() const { return latency_; }

  /// Current utilization (offered / achievable), possibly > 1 briefly.
  [[nodiscard]] double utilization() const { return rho_; }

  // ------------------------------------------------------------ stats

  /// Starts a measurement window (typically at warmup end).
  void begin_window();

  /// Average achieved bandwidth since begin_window().
  [[nodiscard]] BandwidthReport window_report() const;

  [[nodiscard]] const DramParams& params() const { return params_; }

 private:
  struct FluidClient {
    MemClass cls;
    bool closed_loop;
    int cores = 0;
    BitRate per_core_peak{};
    Bytes per_core_outstanding{};
    BitRate demand{};     // open-loop clients only
    double read_fraction = 1.0;
    BitRate achieved{};   // updated by the solver
  };

  /// Re-solves the fluid operating point when its inputs changed and
  /// integrates fluid bytes.
  void on_epoch();

  /// Finds the operating point (rho_, latency_) for the current
  /// clients, throttles and discrete rate -- a pure function of those.
  void solve();

  /// Total fluid bandwidth given a candidate latency, honoring peaks,
  /// outstanding limits, and class throttles.
  [[nodiscard]] double fluid_bw_at(TimePs latency) const;

  /// Applies per-class QoS caps to a candidate rate of one client.
  [[nodiscard]] double throttled_core_peak(const FluidClient& c) const;

  sim::Simulator& sim_;
  DramParams params_;
  Rng rng_;
  TimePs epoch_;
  /// Burst serialization times at params_.achievable_bw().
  SendTimeMemo burst_time_;

  std::vector<FluidClient> clients_;
  std::array<double, kMemClassCount> class_throttle_bps_{};  // <=0: none

  // Operating point.
  double rho_ = 0.0;
  TimePs latency_;
  /// Memo of the last solve: set when a client or throttle changes; a
  /// clean epoch whose discrete rate has the same bits as
  /// `solved_rate_bits_` keeps the operating point.
  bool solve_dirty_ = true;
  std::uint64_t solved_rate_bits_ = 0;

  // Discrete-side accounting for the current epoch.
  double discrete_bytes_epoch_[kMemClassCount] = {};
  double discrete_read_bytes_epoch_ = 0.0;
  double discrete_write_bytes_epoch_ = 0.0;
  BitRate discrete_rate_{};  // measured over last epoch (all classes)

  // Window accumulation (fluid integrated per epoch; discrete per request).
  TimePs window_start_{};
  double window_bytes_by_class_[kMemClassCount] = {};
  double window_read_bytes_ = 0.0;
  double window_write_bytes_ = 0.0;

  sim::PeriodicTask epoch_task_;
};

}  // namespace hicc::mem
