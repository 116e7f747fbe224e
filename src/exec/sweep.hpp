// Sweep orchestration: a small dependency-aware task graph over ThreadPool.
//
// A Sweep models one experiment grid (a paper figure, an ablation table):
// tasks are added in construction order, may depend on earlier tasks (e.g.
// per-workload trace construction feeding the per-policy runs that replay
// it), and run either serially (no pool) or across a pool. Because every
// task writes only its own output cell and reads only its dependencies'
// outputs, the results are bit-identical regardless of pool size — the
// property the determinism tests (tests/test_exec.cpp) pin.
//
// Seeding: tasks that need randomness must not share an RNG (the draw
// order would then depend on the schedule). `derive_seed` gives each task
// index its own statistically-independent seed from one base seed,
// deterministically, so a parallel sweep reproduces the serial one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/snapshot.hpp"

namespace impact::exec {

/// One failed (or skipped) cell of a sweep run.
struct CellError {
  std::size_t task = 0;
  std::string label;
  bool skipped = false;  ///< True: a dependency failed; never attempted.
  std::string message;   ///< what() of the failure.
};

/// Outcome of `Sweep::run`: every cell is accounted for exactly once as
/// completed, failed, or skipped.
struct RunReport {
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  /// Cache accounting for tasks added via `add_cached` (all zero when the
  /// sweep has no cached tasks). A hit counts toward `completed` — the
  /// cell's result exists, it just came from the cache — and its cell
  /// function never runs. `cache_stored` counts successful publishes.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_stored = 0;
  std::vector<CellError> errors;  ///< Failed + skipped cells, by task id.
  /// Per-cell obs snapshots, indexed by TaskId — populated only when the
  /// sweep ran with `set_capture(true)` (empty otherwise, and empty per
  /// cell for skipped tasks and cache hits: a hit never executes, so its
  /// slot stays empty-but-valid and mergeable). Merge them for grid-level
  /// totals.
  std::vector<obs::Snapshot> snapshots;

  [[nodiscard]] bool ok() const { return failed == 0 && skipped == 0; }
  [[nodiscard]] std::string summary() const;
};

/// Seed for task `task_index` of a sweep seeded with `base_seed`.
/// Implemented on util::Xoshiro256 (whose splitmix64 reseed provides the
/// avalanche); distinct indices yield decorrelated streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::uint64_t task_index);

/// Optional cache integration for one task, kept deliberately generic so
/// exec stays below the store layer in the DAG: the sweep engine knows
/// "this cell might already be solved", not how solutions are addressed.
///
/// `probe()` runs before the cell function; returning true means the
/// cell's result is already available elsewhere (the probe is responsible
/// for materializing it into the caller's output slot) and the function is
/// skipped. `publish(snapshot)` runs after the cell function succeeds,
/// receiving the cell's captured obs::Snapshot (empty when the sweep ran
/// without capture). Either hook may be empty. Hooks must never break a
/// sweep: exceptions from `probe` degrade to a miss, exceptions from
/// `publish` are swallowed (the result stands, it just is not cached).
struct CacheHooks {
  std::function<bool()> probe;
  std::function<void(const obs::Snapshot&)> publish;
};

class Sweep {
 public:
  using TaskId = std::size_t;

  /// `pool == nullptr` runs the sweep serially in insertion order.
  explicit Sweep(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Adds a task; `deps` must name tasks added earlier (insertion order is
  /// therefore always a valid topological order). Returns the task's id.
  TaskId add(std::string label, std::function<void()> fn,
             std::initializer_list<TaskId> deps = {});

  /// Like add(), but with cache hooks: `hooks.probe` may satisfy the cell
  /// without running `fn`, and `hooks.publish` offers the completed cell
  /// for caching. Hits are counted in RunReport::cache_hits (and by the
  /// exec.sweep.cache_* counters when an obs registry is current).
  TaskId add_cached(std::string label, std::function<void()> fn,
                    CacheHooks hooks, std::initializer_list<TaskId> deps = {});

  /// Executes the graph: serially in insertion order without a pool,
  /// otherwise every task starts on the pool once its dependencies have
  /// retired. A task that throws fails once and records a CellError; only
  /// its transitive dependents are skipped, and every independent task
  /// still runs. Never throws from task failures; returns the accounting.
  RunReport run();

  /// When enabled, `run` opens a fresh obs::Scope around every cell and
  /// stores the resulting Snapshot in RunReport::snapshots[id]. Each cell
  /// writes only its own preallocated slot, so capture preserves the
  /// sweep's schedule-independence (and its bit-identical results —
  /// instrumentation reads clocks, it never advances them).
  void set_capture(bool capture) { capture_ = capture; }
  [[nodiscard]] bool capture() const { return capture_; }

 private:
  struct Task {
    std::string label;
    std::function<void()> fn;
    std::vector<TaskId> deps;
    CacheHooks hooks;  ///< Empty functions on tasks added via add().
  };

  ThreadPool* pool_;
  std::vector<Task> tasks_;
  bool capture_ = false;
};

}  // namespace impact::exec
