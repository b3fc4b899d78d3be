// End-to-end allocation gate: the paper's single-host testbed, run
// through the public Experiment API, must reach a steady state that
// leaves the heap alone. Every `operator new` overload in this binary
// counts, the aligned and nothrow ones included, because pool
// resources draw their chunks through the aligned forms.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/config.h"
#include "core/experiment.h"
#include "core/metrics.h"

namespace {
// Constant-initialized so it is valid before any static-init allocation.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) return std::malloc(n ? n : 1);
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return checked(counted_alloc(n, 0)); }
void* operator new[](std::size_t n) { return checked(counted_alloc(n, 0)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return checked(counted_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked(counted_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace hicc {
namespace {

// The fault-free paper config (defaults, seed 1): after the 10 ms
// warmup has grown every queue, slab and pool to its high-water mark,
// the 20 ms measure window may allocate at most once per 1,000
// delivered packets -- the odd pool chunk, never one per packet.
TEST(SteadyStateAllocations, PaperConfigAllocatesUnderOnePerThousandPackets) {
  ExperimentConfig cfg;
  cfg.seed = 1;
  cfg.warmup = TimePs::from_ms(10);
  cfg.measure = TimePs::from_ms(20);
  Experiment exp(cfg);
  exp.start();
  exp.simulator().run_until(cfg.warmup);
  exp.begin_window();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  exp.simulator().run_until(cfg.warmup + cfg.measure);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;

  const Metrics m = exp.snapshot();
  ASSERT_GT(m.delivered_packets, 10'000);
  EXPECT_LE(allocs * 1000, static_cast<std::uint64_t>(m.delivered_packets))
      << allocs << " allocations for " << m.delivered_packets << " delivered packets";
}

}  // namespace
}  // namespace hicc
