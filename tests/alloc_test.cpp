// End-to-end allocation gate: the paper's single-host testbed, run
// through the public Experiment API, must reach a steady state that
// leaves the heap alone. The binary links the counting allocator
// (counting_alloc.h), so every `operator new` overload counts.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/config.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "counting_alloc.h"

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

  const std::uint64_t before = heap_allocations();
  exp.simulator().run_until(cfg.warmup + cfg.measure);
  const std::uint64_t allocs = heap_allocations() - before;

  const Metrics m = exp.snapshot();
  ASSERT_GT(m.delivered_packets, 10'000);
  EXPECT_LE(allocs * 1000, static_cast<std::uint64_t>(m.delivered_packets))
      << allocs << " allocations for " << m.delivered_packets << " delivered packets";
}

}  // namespace
}  // namespace hicc
