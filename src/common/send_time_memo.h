// Exact memo of BitRate::time_to_send for serializers that send a few
// distinct sizes millions of times: the PCIe link, the memory bus and
// every fabric link.
//
// Each slot holds a byte count and the formula's own result for it, so
// a hit returns bit for bit what time_to_send would. Nothing re-derives
// the time by another formula (a precomputed per-byte time, say), which
// would round differently. A miss computes the formula and refills the
// slot; which sizes collide only decides how often that happens.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/units.h"

namespace hicc {

/// A rate with its serialization times memoized per byte count.
class SendTimeMemo {
 public:
  explicit SendTimeMemo(BitRate rate) : rate_(rate) {}

  [[nodiscard]] BitRate rate() const { return rate_; }

  /// Changes the rate and drops every memoized time.
  void set_rate(BitRate rate) {
    rate_ = rate;
    slots_.fill(Slot{});
  }

  /// rate().time_to_send(n), memoized.
  [[nodiscard]] TimePs time_to_send(Bytes n) {
    Slot& s = slots_[slot_of(n)];
    if (s.bytes != n.count()) {
      s.bytes = n.count();
      s.time = rate_.time_to_send(n);
    }
    return s.time;
  }

 private:
  struct Slot {
    std::int64_t bytes = INT64_MIN;  // empty: no caller sends that many
    TimePs time{};
  };
  static constexpr int kSlotBits = 3;

  /// Fibonacci hashing: the top bits of the product spread nearby and
  /// aligned sizes alike over the slots.
  [[nodiscard]] static std::size_t slot_of(Bytes n) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(n.count()) * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits));
  }

  BitRate rate_;
  std::array<Slot, std::size_t{1} << kSlotBits> slots_{};
};

}  // namespace hicc
