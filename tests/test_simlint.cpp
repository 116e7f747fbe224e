// simlint over the fixture tree (tests/lint_fixtures/): one seeded
// violation per rule family, each pinned to an exact rule ID and line,
// plus clean counterparts, suppression honoring, rule filtering, and the
// baseline round-trip. LINT_FIXTURES_DIR comes from tests/CMakeLists.txt.
#include "simlint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using simlint::Finding;

std::filesystem::path fixtures_root() {
  return std::filesystem::path(LINT_FIXTURES_DIR) / "src";
}

/// One shared scan: the fixture tree is immutable during the run.
const std::vector<Finding>& findings() {
  static const std::vector<Finding> kFindings = [] {
    simlint::Options options;
    options.roots = {fixtures_root()};
    return simlint::analyze(options);
  }();
  return kFindings;
}

bool has(const std::string& rule, const std::string& file, int line) {
  return std::any_of(findings().begin(), findings().end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.file == file &&
                              f.line == line;
                     });
}

std::vector<Finding> in_file(const std::string& file) {
  std::vector<Finding> out;
  for (const auto& f : findings()) {
    if (f.file == file) out.push_back(f);
  }
  return out;
}

TEST(SimlintLayering, RejectsSyntheticBackEdge) {
  // The acceptance criterion: a dram -> channel include (rank 2 -> 5) is
  // provably rejected, at the include line.
  EXPECT_TRUE(has(simlint::kRuleLayering, "dram/backedge.hpp", 5));
}

TEST(SimlintLayering, FlagsUnknownLayer) {
  EXPECT_TRUE(has(simlint::kRuleLayering, "mystery/rogue.hpp", 5));
}

TEST(SimlintLayering, DownwardEdgeIsClean) {
  // channel -> util is a downward edge; the header must be finding-free.
  EXPECT_TRUE(in_file("channel/wire.hpp").empty());
}

TEST(SimlintLayering, DetectsIncludeCycle) {
  // The DFS reports the cycle once, at the back-edge include site.
  EXPECT_TRUE(has(simlint::kRuleIncludeCycle, "util/cycle_b.hpp", 4));
  EXPECT_FALSE(has(simlint::kRuleIncludeCycle, "util/cycle_a.hpp", 4));
}

TEST(SimlintDeterminism, EachNondetRuleFiresAtItsSeededLine) {
  const std::string f = "dram/nondet.cpp";
  EXPECT_TRUE(has(simlint::kRuleNondetRandomDevice, f, 13));
  EXPECT_TRUE(has(simlint::kRuleNondetRand, f, 18));
  EXPECT_TRUE(has(simlint::kRuleNondetWallclock, f, 22));
  EXPECT_TRUE(has(simlint::kRuleNondetChronoClock, f, 26));
  EXPECT_TRUE(has(simlint::kRuleNondetSeed, f, 32));
  EXPECT_EQ(in_file(f).size(), 5u);  // Exactly one finding per family.
}

TEST(SimlintDeterminism, DerivedAndParameterSeedsAreClean) {
  // derive_seed(...), a seed parameter, and a member-declaration type use
  // are all acceptable provenance.
  EXPECT_TRUE(in_file("dram/det_ok.cpp").empty());
}

TEST(SimlintConcurrency, FlagsMutableGlobalAndStaticMember) {
  EXPECT_TRUE(has(simlint::kRuleGlobalState, "pim/globals.cpp", 8));
  EXPECT_TRUE(has(simlint::kRuleGlobalState, "pim/globals.cpp", 11));
  // per_instance (instance member) and kLanes (constexpr) stay clean.
  std::size_t global_state = 0;
  for (const auto& f : in_file("pim/globals.cpp")) {
    if (f.rule == simlint::kRuleGlobalState) ++global_state;
  }
  EXPECT_EQ(global_state, 2u);
}

TEST(SimlintConcurrency, ThreadLocalAllowedOnlyInObs) {
  EXPECT_TRUE(has(simlint::kRuleThreadLocal, "pim/globals.cpp", 16));
  EXPECT_TRUE(in_file("obs/tls_ok.cpp").empty());
}

TEST(SimlintConcurrency, UnboundedWaitFlaggedAtBareWaitAndJoin) {
  const std::string f = "exec/waits.cpp";
  EXPECT_TRUE(has(simlint::kRuleUnboundedWait, f, 13));
  EXPECT_TRUE(has(simlint::kRuleUnboundedWait, f, 14));
  // wait_for is a different identifier and the SIMLINT-ALLOW'd join is
  // suppressed: exactly the two seeded findings remain.
  EXPECT_EQ(in_file(f).size(), 2u);
}

TEST(SimlintConcurrency, ThreadPoolWorkerLoopIsAllowlisted) {
  // The pool's own worker loop is the one sanctioned indefinite block.
  EXPECT_TRUE(in_file("exec/thread_pool.cpp").empty());
}

TEST(SimlintSeams, UnguardedObserverDerefFlagged) {
  EXPECT_TRUE(has(simlint::kRuleSeamUnguarded, "dram/seam.cpp", 15));
  // The two guarded forms (explicit nullptr compare, early-return on
  // !observer_) produce nothing else in the file.
  EXPECT_EQ(in_file("dram/seam.cpp").size(), 1u);
}

TEST(SimlintHotPath, RulesFireOnlyInsideMarkedRegion) {
  const std::string f = "dram/hot.cpp";
  EXPECT_TRUE(has(simlint::kRuleHotString, f, 14));
  EXPECT_TRUE(has(simlint::kRuleHotEndl, f, 15));
  EXPECT_TRUE(has(simlint::kRuleHotResolve, f, 16));
  // cold_access repeats the same constructs after SIMLINT-HOT-END.
  EXPECT_EQ(in_file(f).size(), 3u);
}

TEST(SimlintSuppression, AllowOnLineOrLineAboveAndWildcard) {
  // Same-line, line-above, and '*' forms all silence their findings.
  EXPECT_TRUE(in_file("dram/suppressed.cpp").empty());
  EXPECT_TRUE(in_file("dram/allowed_backedge.hpp").empty());
}

TEST(SimlintSuppression, WrongRuleNameDoesNotSuppress) {
  EXPECT_TRUE(has(simlint::kRuleLayering, "dram/wrong_allow.hpp", 6));
}

std::filesystem::path drivers_root() {
  return std::filesystem::path(LINT_FIXTURES_DIR) / "drivers";
}

/// Separate scan of the layerless driver-fixture tree (mirrors apps/:
/// files directly under the root).
const std::vector<Finding>& driver_findings() {
  static const std::vector<Finding> kFindings = [] {
    simlint::Options options;
    options.roots = {drivers_root()};
    return simlint::analyze(options);
  }();
  return kFindings;
}

TEST(SimlintDriverInclude, NonLabIncludesFlaggedInLayerlessTUs) {
  bool attacks_line = false;
  bool util_line = false;
  for (const auto& f : driver_findings()) {
    if (f.rule != simlint::kRuleDriverInclude) continue;
    EXPECT_EQ(f.file, "fat_driver.cpp");
    if (f.line == 3) attacks_line = true;
    if (f.line == 4) util_line = true;
  }
  EXPECT_TRUE(attacks_line);
  EXPECT_TRUE(util_line);
}

TEST(SimlintDriverInclude, LabOnlyShimIsCleanAndAllowSuppresses) {
  std::size_t fat = 0;
  for (const auto& f : driver_findings()) {
    EXPECT_NE(f.file, "shim_ok.cpp") << f.rule;
    if (f.file == "fat_driver.cpp" &&
        f.rule == simlint::kRuleDriverInclude) {
      ++fat;
      EXPECT_NE(f.line, 6);  // SIMLINT-ALLOW on the line above.
    }
  }
  EXPECT_EQ(fat, 2u);  // Exactly the two seeded violations.
}

TEST(SimlintDriverInclude, LayeredFilesAreExempt) {
  // The rule keys on layerless files; the layered src fixture tree must
  // produce no driver-include findings at all.
  for (const auto& f : findings()) {
    EXPECT_NE(f.rule, simlint::kRuleDriverInclude) << f.file;
  }
}

TEST(SimlintOptions, RulePrefixFilterSelectsFamilies) {
  simlint::Options options;
  options.roots = {fixtures_root()};
  options.rules = {"nondet-*"};
  const auto filtered = simlint::analyze(options);
  ASSERT_FALSE(filtered.empty());
  for (const auto& f : filtered) {
    EXPECT_EQ(f.rule.rfind("nondet-", 0), 0u) << f.rule;
  }
  // All five determinism findings survive the filter.
  EXPECT_EQ(filtered.size(), 5u);
}

TEST(SimlintBaseline, RoundTripSwallowsEveryFinding) {
  const auto path = std::filesystem::path(::testing::TempDir()) /
                    "simlint_fixture_baseline.txt";
  simlint::write_baseline(path, findings());
  const auto baseline = simlint::load_baseline(path);
  EXPECT_EQ(baseline.size(), findings().size());  // IDs are distinct.
  const auto residual = simlint::filter_baseline(findings(), baseline);
  EXPECT_TRUE(residual.empty());
  std::remove(path.string().c_str());
}

TEST(SimlintBaseline, MissingFileIsEmptyAndFiltersNothing) {
  const auto baseline = simlint::load_baseline(
      std::filesystem::path(LINT_FIXTURES_DIR) / "does_not_exist.txt");
  EXPECT_TRUE(baseline.empty());
  EXPECT_EQ(simlint::filter_baseline(findings(), baseline).size(),
            findings().size());
}

TEST(SimlintFindings, IdsAreStableAcrossRescans) {
  // A second scan of the identical tree reproduces the identical IDs —
  // the property the committed baseline relies on.
  simlint::Options options;
  options.roots = {fixtures_root()};
  const auto again = simlint::analyze(options);
  ASSERT_EQ(again.size(), findings().size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].id, findings()[i].id);
    EXPECT_NE(again[i].id, 0u);
  }
}

TEST(SimlintFindings, JsonListsEveryFindingWithStableKeys) {
  const std::string json = simlint::to_json(findings());
  for (const auto& f : findings()) {
    EXPECT_NE(json.find("\"" + f.rule + "\""), std::string::npos);
    EXPECT_NE(json.find(f.file), std::string::npos);
  }
  EXPECT_NE(json.find("\"id\""), std::string::npos);
  EXPECT_NE(json.find("\"line\""), std::string::npos);
  EXPECT_NE(json.find("\"message\""), std::string::npos);
}

}  // namespace
