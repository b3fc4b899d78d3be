// Direct cache access (Intel DDIO) model -- the paper's footnote 2:
// "If Direct Cache Access (e.g., DDIO) is enabled, data is first moved
// to the CPU cache; this may result in eviction of existing cache
// contents to the host memory over the same memory bus."
//
// DDIO limits inbound PCIe writes to a small number of LLC ways
// (2 of 11 on Skylake). When the IO working set (the registered Rx
// buffers the NIC scatters packets across) fits in that slice, DMA
// writes are absorbed by the LLC and never touch the memory bus; when
// it is much larger -- the BDP-scale buffer pools of §3's workload --
// almost every write misses, allocates, and evicts dirty lines, so the
// full stream leaks to DRAM (the ~11.8 GB/s of §3.2). The leak
// probability is modeled as an LRU-over-random-traffic residency:
// hit = min(1, ddio_capacity / io_working_set).
#pragma once

#include <algorithm>

#include "common/rng.h"
#include "common/units.h"

namespace hicc::mem {

/// LLC/DDIO geometry (Skylake-SP defaults, scaled to 2 NUMA sockets'
/// worth of 28 cores x 1.375MB LLC slices).
struct DdioParams {
  bool enabled = true;
  Bytes llc_size = Bytes::mib(38.5);
  int llc_ways = 11;
  /// Ways inbound IO is allowed to allocate into.
  int ddio_ways = 2;
  /// Latency of a DMA write absorbed by the LLC.
  TimePs llc_write_latency = TimePs::from_ns(40);
  /// Fraction of the DDIO slice effectively usable by this device
  /// (other IO and code/data contend for the same ways).
  double occupancy_efficiency = 0.8;
};

/// Stateless-per-write DDIO hit model; the working set is owned by the
/// host (it knows what the NIC stack registered).
class DdioModel {
 public:
  DdioModel(DdioParams params, Rng rng) : params_(params), rng_(rng) { refresh(); }

  [[nodiscard]] bool enabled() const { return params_.enabled; }

  /// Registered IO buffer bytes the NIC scatters DMA writes across.
  void set_io_working_set(Bytes ws) {
    working_set_ = ws;
    refresh();
  }
  [[nodiscard]] Bytes io_working_set() const { return working_set_; }

  /// LLC bytes available to inbound IO.
  [[nodiscard]] Bytes capacity() const {
    const double frac = static_cast<double>(params_.ddio_ways) /
                        static_cast<double>(params_.llc_ways);
    return Bytes(static_cast<std::int64_t>(static_cast<double>(params_.llc_size.count()) *
                                           frac * params_.occupancy_efficiency));
  }

  /// Probability that a DMA write lands on an LLC-resident line.
  [[nodiscard]] double hit_fraction() const { return hit_fraction_; }

  /// Samples one DMA write; true = absorbed by the LLC (no DRAM
  /// traffic, llc_write_latency applies).
  [[nodiscard]] bool write_hits() { return rng_.chance(hit_fraction()); }

  /// Fault hook (mem.ddio_squeeze): shrinks/restores the IO-way
  /// allotment mid-run, emulating CAT reconfiguration or a competing
  /// device claiming ways.
  void set_ddio_ways(int ways) {
    params_.ddio_ways = ways;
    refresh();
  }

  [[nodiscard]] const DdioParams& params() const { return params_; }

 private:
  /// Recomputes the hit fraction, which only the working set and the
  /// way allotment change -- not once per DMA write.
  void refresh() {
    hit_fraction_ = !params_.enabled || working_set_.count() <= 0
                        ? 0.0
                        : std::min(1.0, capacity() / working_set_);
  }

  DdioParams params_;
  Rng rng_;
  Bytes working_set_{};
  double hit_fraction_ = 0.0;
};

}  // namespace hicc::mem
