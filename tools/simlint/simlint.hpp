// simlint — the project's own static analyzer.
//
// A fast, dependency-free pass over the C++ tree that enforces the
// invariants the simulator's headline numbers rest on but that the
// compiler cannot check: the layer DAG of #includes, determinism (no
// wall-clock, no ambient randomness, seeds that trace to
// exec::derive_seed), concurrency hygiene (no mutable globals in kernel
// code), null-guarded observer/injector seams, and allocation-free hot
// paths. ProtocolChecker (src/check/) validates timing legality at
// runtime; simlint is the compile-time-shaped half of the same contract,
// and it gates every tools/check.sh run.
//
// Deliberately NOT built on libclang: a lightweight tokenizer plus an
// include-graph builder keeps the tool a single small binary that builds
// everywhere the simulator builds, analyzes the whole src/ tree in
// milliseconds, and is itself unit-testable over fixture trees
// (tests/test_simlint.cpp).
//
// Suppressions: `// SIMLINT-ALLOW(<rule>): reason` on the offending line
// or the line directly above suppresses that rule there. Grandfathered
// findings live in a committed baseline (tools/simlint/baseline.txt);
// anything outside it fails the run. See docs/static-analysis.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

namespace simlint {

// Stable rule identifiers (the strings accepted by SIMLINT-ALLOW(...)).
inline constexpr const char* kRuleIncludeCycle = "include-cycle";
inline constexpr const char* kRuleLayering = "layering";
inline constexpr const char* kRuleNondetRandomDevice = "nondet-random-device";
inline constexpr const char* kRuleNondetRand = "nondet-rand";
inline constexpr const char* kRuleNondetWallclock = "nondet-wallclock";
inline constexpr const char* kRuleNondetChronoClock = "nondet-chrono-clock";
inline constexpr const char* kRuleNondetSeed = "nondet-seed";
inline constexpr const char* kRuleGlobalState = "global-state";
inline constexpr const char* kRuleThreadLocal = "thread-local";
inline constexpr const char* kRuleSeamUnguarded = "seam-unguarded";
inline constexpr const char* kRuleUnboundedWait = "unbounded-wait";
inline constexpr const char* kRuleHotString = "hot-string";
inline constexpr const char* kRuleHotEndl = "hot-endl";
inline constexpr const char* kRuleHotResolve = "hot-resolve";
inline constexpr const char* kRuleDriverInclude = "driver-include";

/// One diagnostic. `id` is stable across unrelated edits: it hashes the
/// rule, the path relative to the scan root, and the *text* of the
/// offending line (not its number), so baselines survive line shifts.
struct Finding {
  std::string rule;
  std::string file;  ///< Path relative to the scan root it was found under.
  int line = 0;      ///< 1-based.
  std::string message;
  std::uint64_t id = 0;

  [[nodiscard]] std::string location() const;  ///< "file:line"
};

struct Options {
  /// Scan roots. Layer names for the layering rules are the first path
  /// component below each root (e.g. <root>/dram/bank.cpp is in layer
  /// "dram"); files directly under a root have no layer and are exempt
  /// from the layering rules (the driver tree: apps/).
  std::vector<std::filesystem::path> roots;
  /// When non-empty, only findings whose rule id is listed are emitted.
  /// A trailing '*' acts as a prefix wildcard ("nondet-*").
  std::vector<std::string> rules;
};

/// Runs every rule over every .hpp/.h/.cpp/.cc file under the roots.
/// Findings are sorted by (file, line, rule) and already honor inline
/// SIMLINT-ALLOW suppressions; baseline filtering is the caller's job.
[[nodiscard]] std::vector<Finding> analyze(const Options& options);

/// Baseline file: one finding per line, "<16-hex-id> <rule> <file>:<line>
/// <trimmed source text>". Only the leading id is load-bearing; the rest
/// keeps the file reviewable. Loading tolerates blank lines and
/// '#'-comments. A missing file is an empty baseline.
[[nodiscard]] std::set<std::uint64_t> load_baseline(
    const std::filesystem::path& path);
void write_baseline(const std::filesystem::path& path,
                    const std::vector<Finding>& findings);

/// Drops findings whose id is in the baseline.
[[nodiscard]] std::vector<Finding> filter_baseline(
    std::vector<Finding> findings, const std::set<std::uint64_t>& baseline);

/// Renders findings as a JSON array (stable key order, escaped strings).
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

}  // namespace simlint
