// Static analyzer self-test: seeded fixture roots under
// tests/analyze_fixtures/, each with its own DESIGN.md layer-dag block,
// pinned to the exact diagnostics hicc_analyze prints for them; the
// suppression and layer-dag block contracts; and the clean run on the
// real src/ tree.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.h"
#include "analyze/graph.h"
#include "analyze/report.h"

namespace hicc::analyze {
namespace {

const std::string kFixtures = HICC_ANALYZE_FIXTURES;

Options fixture_opts(const std::string& name, const std::string& path = "src") {
  Options opts;
  opts.root = kFixtures + "/" + name;
  opts.paths = {path};
  return opts;
}

// Every diagnostic, warnings included, in print order.
std::vector<std::string> lines(const Result& res) {
  std::vector<Diagnostic> all = res.warnings;
  all.insert(all.end(), res.findings.begin(), res.findings.end());
  sort_diagnostics(&all);
  std::vector<std::string> out;
  for (const Diagnostic& d : all) out.push_back(d.text());
  return out;
}

// The fixture headers under src/sim, src/nic and src/workload carry no
// hotpath marker, so each of them also reports this.
std::string marker_missing(const std::string& file) {
  return file +
         ":1:1: hot-marker-missing: files under src/sim,... must carry "
         "'// hicc-lint: hotpath' so hot-path hygiene rules apply";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AnalyzeIncludeGraph, CycleIsOneExactDiagnostic) {
  Result res = run(fixture_opts("cycle"));
  EXPECT_EQ(lines(res), (std::vector<std::string>{
                            marker_missing("src/sim/a.h"),
                            marker_missing("src/sim/b.h"),
                            "src/sim/b.h:3:11: ana-include-cycle: include cycle: "
                            "src/sim/a.h -> src/sim/b.h -> src/sim/a.h; "
                            "headers must form a DAG (DESIGN.md §9)",
                        }));
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeIncludeGraph, LayerDagChecksDirectEdgesOnly) {
  // The fixture DAG lets workload include host and host include nic,
  // yet workload -> nic is flagged: each include is checked against the
  // including module's direct list, not its closure.
  Result res = run(fixture_opts("layering"));
  EXPECT_EQ(lines(res), (std::vector<std::string>{
                            marker_missing("src/nic/ring.h"),
                            marker_missing("src/sim/bridge.h"),
                            "src/sim/bridge.h:3:11: layer-dag: src/sim must not include "
                            "src/mem (allowed: common, sim; DESIGN.md §9 DAG)",
                            marker_missing("src/workload/gen.h"),
                            "src/workload/gen.h:3:11: layer-dag: src/workload must not "
                            "include src/nic (allowed: common, host, sim, workload; "
                            "DESIGN.md §9 DAG)",
                        }));
}

TEST(AnalyzeIncludeGraph, UnusedDirectIncludeIsWarningOnly) {
  Result res = run(fixture_opts("unused"));
  EXPECT_TRUE(res.findings.empty());
  ASSERT_EQ(res.warnings.size(), 1u);
  EXPECT_EQ(res.warnings[0].text(),
            "src/net/user.cpp:1:11: ana-include-unused: unused direct "
            "include \"net/unused.h\": nothing it provides is referenced in "
            "this file (advisory -- remove it, or keep it with an allow and "
            "a why)");
  EXPECT_FALSE(res.failed);  // advisory never fails the run
}

TEST(AnalyzeLayerDag, UnmappedModuleIsAFinding) {
  // src/gadget has no line in the fixture's block, so its include of
  // sim would otherwise go unchecked.
  Result res = run(fixture_opts("unmapped"));
  EXPECT_EQ(lines(res), (std::vector<std::string>{
                            "src/gadget/widget.h:1:1: layer-dag: src/gadget has no line in "
                            "the DESIGN.md layer-dag block, so nothing checks its includes; "
                            "add one (DESIGN.md §9 DAG)",
                        }));
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeLayerDag, BlockMustExistBeSortedAndNameOnlyModules) {
  LayerDag dag;
  ASSERT_EQ(parse_layer_dag("x\n```layer-dag\nnet: sim\nsim:\ntrace: sim\n```\n", &dag), "");
  EXPECT_EQ(dag.allowed("net", /*transitive=*/false),
            (std::set<std::string>{"common", "net", "sim"}));
  EXPECT_EQ(parse_layer_dag("# no block\n", &dag), "no ```layer-dag block");
  EXPECT_EQ(parse_layer_dag("```layer-dag\nsim:\nnet: sim\n```\n", &dag),
            "module 'net' is out of order (modules must be sorted and unique)");
  EXPECT_EQ(parse_layer_dag("```layer-dag\nnet: trace sim\nsim:\ntrace: sim\n```\n", &dag),
            "the deps of 'net' are not sorted");
  EXPECT_EQ(parse_layer_dag("```layer-dag\nnet: sim\n```\n", &dag),
            "'net' depends on unknown module 'sim'");

  // A root without DESIGN.md is an error (exit 2), not an unchecked run.
  Options opts;
  opts.root = kFixtures;
  opts.paths = {"cycle/src"};
  Result res = run(opts);
  EXPECT_NE(res.error.find("no ```layer-dag block"), std::string::npos) << res.error;
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeLayerDag, EditingTheBlockAloneChangesEnforcement) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "analyze_layer_dag_edit";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "net");
  std::ofstream(root / "src" / "net" / "wire.h") << "#pragma once\n\n#include \"sim/clock.h\"\n";
  auto write_block = [&](const char* block) {
    std::ofstream(root / "DESIGN.md") << "```layer-dag\n" << block << "```\n";
  };
  Options opts;
  opts.root = root.string();
  opts.paths = {"src"};

  write_block("net:\nsim:\n");
  EXPECT_EQ(lines(run(opts)), (std::vector<std::string>{
                                  "src/net/wire.h:3:11: layer-dag: src/net must not include "
                                  "src/sim (allowed: common, net; DESIGN.md §9 DAG)",
                              }));
  write_block("net: sim\nsim:\n");
  EXPECT_TRUE(lines(run(opts)).empty());
  fs::remove_all(root);
}

TEST(AnalyzeReachability, HotAllocThroughHelperInOtherFile) {
  // The planted allocation lives in src/net/frames.h -- a file with no
  // hotpath marker, outside the hot-* rules -- and is reached only
  // through the call RxQueue::poll -> stage_frame across the nic/net
  // module boundary.
  Result res = run(fixture_opts("hot"));
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/net/frames.h:7:39: ana-hot-alloc-reach: allocation "
            "(staged_.push_back) reachable from hot-path function "
            "'RxQueue::poll' via RxQueue::poll -> FrameStager::stage_frame; "
            "steady state must be allocation-free (DESIGN.md §8)");
  EXPECT_EQ(res.findings[0].chain,
            (std::vector<std::string>{"src/nic/rx_queue.h:RxQueue::poll",
                                      "src/net/frames.h:FrameStager::stage_frame"}));
}

TEST(AnalyzeReachability, DeterminismTaintCrossesTwoHops) {
  // det-wallclock flags the clock read where it stands; ana-det-reach
  // flags it again because src/sim reaches it through two calls.
  Result res = run(fixture_opts("det"));
  EXPECT_EQ(lines(res), (std::vector<std::string>{
                            "src/common/backoff.h:6:10: det-wallclock: wall-clock time source "
                            "in simulator code; runs must be a pure function of the seed -- "
                            "use sim::Simulator::now()",
                            "src/common/backoff.h:6:37: ana-det-reach: nondeterminism source "
                            "(steady_clock::now) reachable from sim entry 'Engine::step' via "
                            "Engine::step -> retry_pause -> backoff_ns; runs must be a pure "
                            "function of the seed (DESIGN.md §7)",
                            marker_missing("src/sim/engine.h"),
                        }));
}

TEST(AnalyzeReachability, MutableGlobalFromPartitionSeam) {
  Result res = run(fixture_opts("par"));
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].text(),
            "src/host/seam.h:5:30: ana-par-global-reach: mutable global "
            "'g_spin_budget' (src/common/tuning.h:3) referenced by "
            "'drain_budget', reachable from partition seam 'drain_budget' "
            "via drain_budget; partition callbacks must not share unguarded "
            "state (docs/PARALLELISM.md)");
}

TEST(AnalyzeSuppressions, HonoredAllowSilencesFinding) {
  // Same planted allocation as the hot fixture, but the sink line
  // carries an allow(ana-hot-alloc-reach) with a justification.
  Result res = run(fixture_opts("suppress"));
  EXPECT_EQ(res.stats.suppressions_used, 1);
  for (const Diagnostic& d : res.findings) EXPECT_NE(d.rule, "ana-hot-alloc-reach") << d.text();
}

TEST(AnalyzeSuppressions, StaleAllowFailsStrict) {
  // There is no lenient mode: an allow that suppresses nothing fails
  // every run.
  Result res = run(fixture_opts("suppress"));
  EXPECT_EQ(lines(res), (std::vector<std::string>{
                            "src/nic/rx_queue.h:9:1: ana-unused-suppression: "
                            "allow(ana-include-cycle) no longer matches a finding; remove it",
                        }));
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeSuppressions, UnusedAllowOfAnyRuleFails) {
  // Inline or file-wide, ana- prefix or not: an allow that suppresses
  // nothing is reported (a file-wide one at its comment's line).
  Result res = run(fixture_opts("lint", "extra/unused_allow.h"));
  EXPECT_EQ(lines(res), (std::vector<std::string>{
                            "extra/unused_allow.h:6:1: ana-unused-suppression: "
                            "allow(det-rand) no longer matches a finding; remove it",
                            "extra/unused_allow.h:8:1: ana-unused-suppression: "
                            "allow(det-wallclock) no longer matches a finding; remove it",
                        }));
  EXPECT_TRUE(res.failed);
}

// The per-file rules: one fixture file per family under lint/src, each
// positive next to a suppressed twin, against lint/expected.txt.
TEST(AnalyzeFileRules, FixtureTreeMatchesGolden) {
  Result res = run(fixture_opts("lint"));
  EXPECT_EQ(format_text(res), read_file(kFixtures + "/lint/expected.txt"));
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeFileRules, EveryRuleHasAPositiveAndASuppressedTwin) {
  const std::string out = format_text(run(fixture_opts("lint")));
  for (const char* rule :
       {"det-wallclock", "det-rand", "det-seeded-rng", "det-unordered-iter", "hot-std-function",
        "hot-heap-alloc", "hot-vector-growth", "hot-marker-missing", "layer-dag",
        "layer-trace-header", "docs-probe-undocumented", "docs-probe-dynamic",
        "par-static-mutable", "par-engine-post", "docs-par-knob", "rob-exit",
        "docs-run-status", "docs-metric"}) {
    EXPECT_NE(out.find(std::string(": ") + rule + ": "), std::string::npos) << rule;
  }
  for (const char* twin :
       {"wallclock_allowed", "config_hook", "pool.push_back", "marker_suppressed",
        "nic.waived_probe", "trace/sinks_internal.h", "transport/swift.h",
        "g_calibration_allowed", "waived_knob", "quick_exit", "waived_status",
        "waived_metric"}) {
    EXPECT_EQ(out.find(twin), std::string::npos) << "suppressed twin leaked: " << twin;
  }
}

// hot-node-container: node-based and deque members of a hotpath file,
// pmr included, next to an allowed twin, a reference, a vector, a
// function and an unmarked file that must all stay quiet.
TEST(AnalyzeFileRules, NodeContainerFixtureMatchesGolden) {
  Result res = run(fixture_opts("node"));
  const std::string out = format_text(res);
  EXPECT_EQ(out, read_file(kFixtures + "/node/expected.txt"));
  for (const char* quiet : {"registry", "view", "slab", "snapshot", "per_port"}) {
    EXPECT_EQ(out.find(std::string("'") + quiet + "'"), std::string::npos) << quiet;
  }
  EXPECT_EQ(res.stats.suppressions_used, 1);
  EXPECT_TRUE(res.failed);
}

TEST(AnalyzeFileRules, DiagnosticsCarryFileLineColAndRule) {
  const std::string out = format_text(run(fixture_opts("lint", "src/net/determinism_bad.h")));
  EXPECT_NE(out.find("src/net/determinism_bad.h:14:12: det-wallclock: "), std::string::npos)
      << out;
  EXPECT_NE(out.find("src/net/determinism_bad.h:25:10: det-rand: "), std::string::npos) << out;
}

TEST(AnalyzeReport, JsonShapeIsDeterministic) {
  Result res = run(fixture_opts("hot"));
  std::string a = to_json(res.findings, res.stats);
  std::string b = to_json(res.findings, res.stats);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"hicc.analysis.v2\""), std::string::npos);
  EXPECT_NE(a.find("\"files\": 2"), std::string::npos);
  EXPECT_NE(a.find("\"call_edges\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"ana-hot-alloc-reach\""), std::string::npos);
  EXPECT_NE(a.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(a.find("\"chain\": [\"src/nic/rx_queue.h:RxQueue::poll\", "
                   "\"src/net/frames.h:FrameStager::stage_frame\"]"),
            std::string::npos);
}

TEST(AnalyzeReport, RuleCatalogIsSorted) {
  std::vector<std::string> ids = rule_ids();
  EXPECT_EQ(ids.size(), 25u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  std::set<std::string> families;
  for (const std::string& id : ids) families.insert(id.substr(0, id.find('-')));
  EXPECT_EQ(families,
            (std::set<std::string>{"ana", "det", "docs", "hot", "layer", "par", "rob"}));
}

// The gate on the real tree: no finding and no unused allow, with the
// DAG read from the real DESIGN.md.
TEST(AnalyzeRepo, SrcIsStrictClean) {
  Options opts;
  opts.root = HICC_REPO_ROOT;
  opts.paths = {"src"};
  Result res = run(opts);
  EXPECT_TRUE(res.findings.empty()) << format_text(res);
  EXPECT_FALSE(res.failed) << format_text(res);
  EXPECT_GT(res.stats.functions, 500);  // the index is real, not empty
  EXPECT_GT(res.stats.call_edges, 1000);
}

}  // namespace
}  // namespace hicc::analyze
