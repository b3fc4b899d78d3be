// Counting global allocator for the binaries that assert or report
// heap allocations (sim_test, alloc_test, parallel_test,
// bench/micro_bench). Linking the hicc_counting_alloc object library
// replaces every global `operator new`/`operator delete` overload in
// the binary.
#pragma once

#include <cstdint>

namespace hicc {

/// Calls to any global `operator new` overload in this binary so far.
[[nodiscard]] std::uint64_t heap_allocations();

}  // namespace hicc
