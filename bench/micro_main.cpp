// bench/micro_bench's main, the allocation tally every suite uses, and
// the one calibration row the regression gate normalizes by.
#include "micro_bench.h"

#include "counting_alloc.h"

namespace hicc::bench {

AllocTally::AllocTally(benchmark::State& state) : state_(state), start_(heap_allocations()) {}

AllocTally::~AllocTally() {
  state_.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(heap_allocations() - start_), benchmark::Counter::kAvgIterations);
}

}  // namespace hicc::bench

namespace {

/// Pure-arithmetic calibration loop (no memory traffic). The regression
/// gate divides every row's time by this one, so its threshold is
/// comparable across machines of different speeds.
void BM_ReferenceSpin(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {  // splitmix64 finalizer, fixed work
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      x ^= x >> 31;
    }
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReferenceSpin);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("hicc_compiler", HICC_BENCH_COMPILER);
  benchmark::AddCustomContext("hicc_build_type", HICC_BENCH_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
