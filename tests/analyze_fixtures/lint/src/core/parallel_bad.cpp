// Fixture: parallel-engine rule family (par-*). Positives and
// suppressed variants; expected diagnostics live in expected.txt.
#include "sim/parallel.h"

namespace fixture {

static int g_window_count = 0;  // line 7: par-static-mutable

// hicc-lint: allow(par-static-mutable) -- harness-only diagnostic counter
static int g_calibration_allowed = 0;

struct Runner {
  static long hits_;  // line 13: par-static-mutable (class member)
  static constexpr int kBudget = 8;          // const: no finding
  static long tally(long n) { return n; }    // function decl: no finding

  void leak(hicc::sim::ParallelEngine& engine) {
    engine.sim(1).at(hicc::TimePs::from_us(1), [] {});  // line 18: par-engine-post

    // The one legal channel; must not fire.
    engine.post(engine.connect(0, 1), hicc::TimePs::from_us(2), [] {});
  }

  void leak_allowed(hicc::sim::ParallelEngine& engine) {
    // hicc-lint: allow(par-engine-post) -- single-threaded setup before run
    engine.sim(1).at(hicc::TimePs::from_us(1), [] {});
  }
};

}  // namespace fixture
