#include "exec/sweep.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>

#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace impact::exec {

namespace {

/// Probes a task's cache hook; any exception degrades to a miss (the cache
/// is an accelerator, never a correctness dependency).
bool probe_task(const CacheHooks& hooks) {
  if (!hooks.probe) return false;
  try {
    return hooks.probe();
  } catch (...) {
    return false;
  }
}

/// Publishes a completed cell; returns whether the publish took. Failures
/// are swallowed for the same reason probe failures are.
bool publish_task(const CacheHooks& hooks, const obs::Snapshot& snapshot) {
  if (!hooks.publish) return false;
  try {
    hooks.publish(snapshot);
    return true;
  } catch (...) {
    return false;
  }
}

/// Runs a cell function; returns its failure message, or nullopt when it
/// completed.
std::optional<std::string> invoke(const std::function<void()>& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const std::exception& e) {
    return std::string(e.what());
  } catch (...) {
    return std::string("non-standard exception");
  }
}

/// What happened to one cell. Written only by the thread that ran the
/// cell, read by its dependents and by the final fold; the scheduler's
/// retire handshake orders those accesses.
struct Outcome {
  enum State : unsigned char { kRan, kHit, kFailed, kSkipped };
  State state = kRan;
  bool probed = false;  ///< Task had a probe hook and it was consulted.
  bool stored = false;  ///< Publish hook accepted the completed cell.
  std::string message;  ///< Failure message (kFailed only).
};

/// Mirrors a run's cache accounting into the caller's obs registry so
/// drivers see hit rates in their snapshots without extra plumbing.
void emit_cache_obs(const RunReport& report) {
  if (report.cache_hits + report.cache_misses + report.cache_stored == 0) {
    return;
  }
  if (obs::Registry* reg = obs::current_registry()) {
    reg->counter("exec.sweep.cache_hits").add(report.cache_hits);
    reg->counter("exec.sweep.cache_misses").add(report.cache_misses);
    reg->counter("exec.sweep.cache_stored").add(report.cache_stored);
  }
}

}  // namespace

std::string RunReport::summary() const {
  std::string s = std::to_string(completed) + "/" + std::to_string(tasks) +
                  " tasks completed";
  s += ", " + std::to_string(failed) + " failed";
  s += ", " + std::to_string(skipped) + " skipped";
  if (cache_hits + cache_misses > 0) {
    s += ", " + std::to_string(cache_hits) + " cache hits / " +
         std::to_string(cache_misses) + " misses";
  }
  return s;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Golden-ratio spacing keeps distinct indices distinct before the
  // splitmix64 avalanche inside Xoshiro256's reseed scrambles them.
  util::Xoshiro256 rng(base_seed ^
                       (0x9E3779B97F4A7C15ull * (task_index + 1)));
  return rng();
}

Sweep::TaskId Sweep::add(std::string label, std::function<void()> fn,
                         std::initializer_list<TaskId> deps) {
  return add_cached(std::move(label), std::move(fn), CacheHooks{}, deps);
}

Sweep::TaskId Sweep::add_cached(std::string label, std::function<void()> fn,
                                CacheHooks hooks,
                                std::initializer_list<TaskId> deps) {
  const TaskId id = tasks_.size();
  for (const TaskId d : deps) {
    util::check(d < id, "Sweep::add: dependency on a not-yet-added task");
  }
  tasks_.push_back(Task{std::move(label), std::move(fn),
                        std::vector<TaskId>(deps), std::move(hooks)});
  return id;
}

RunReport Sweep::run() {
  const std::size_t n = tasks_.size();
  RunReport report;
  report.tasks = n;
  if (n == 0) return report;
  // Preallocated before any task starts: concurrent cells then write only
  // their own (distinct) slot, so capture needs no extra locking.
  if (capture_) report.snapshots.resize(n);
  std::vector<Outcome> outcomes(n);

  // Runs one cell through probe -> function -> publish, unless one of its
  // dependencies failed or was skipped. A probe hit never opens a scope —
  // the cell does no work, so its snapshot slot must stay empty. A cell
  // that throws keeps the snapshot of its failed run (that traffic is
  // real) and is not published.
  const auto run_cell = [&](TaskId id) {
    const Task& task = tasks_[id];
    Outcome& out = outcomes[id];
    for (const TaskId d : task.deps) {
      if (outcomes[d].state == Outcome::kFailed ||
          outcomes[d].state == Outcome::kSkipped) {
        out.state = Outcome::kSkipped;
        return;
      }
    }
    out.probed = static_cast<bool>(task.hooks.probe);
    if (probe_task(task.hooks)) {
      out.state = Outcome::kHit;
      return;
    }
    std::optional<std::string> error;
    if (!capture_) {
      error = invoke(task.fn);
    } else {
      obs::Scope scope;
      error = invoke(task.fn);
      report.snapshots[id] = scope.snapshot();
    }
    if (error) {
      out.state = Outcome::kFailed;
      out.message = std::move(*error);
      return;
    }
    out.stored = publish_task(
        task.hooks, capture_ ? report.snapshots[id] : obs::Snapshot{});
  };

  if (pool_ == nullptr || pool_->size() <= 1) {
    // Insertion order is topological by construction.
    for (TaskId id = 0; id < n; ++id) run_cell(id);
  } else {
    // Scheduler state shared between the submitting thread and the
    // workers, all guarded by one mutex (tasks are coarse).
    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<std::size_t> unmet(n, 0);  // Unretired dependency count.
    std::vector<std::vector<TaskId>> dependents(n);
    std::size_t remaining = n;  // Tasks not yet retired.
    for (TaskId id = 0; id < n; ++id) {
      unmet[id] = tasks_[id].deps.size();
      for (const TaskId d : tasks_[id].deps) dependents[d].push_back(id);
    }

    // Runs `id`, then retires it and launches newly-ready dependents
    // (which may themselves retire as skipped).
    std::function<void(TaskId)> execute = [&](TaskId id) {
      run_cell(id);
      std::vector<TaskId> ready;
      {
        std::lock_guard<std::mutex> lock(mutex);
        for (const TaskId dep : dependents[id]) {
          if (--unmet[dep] == 0) ready.push_back(dep);
        }
        if (--remaining == 0) done_cv.notify_all();
      }
      for (const TaskId r : ready) {
        (void)pool_->submit([&execute, r] { execute(r); });
      }
    };

    for (TaskId id = 0; id < n; ++id) {
      if (tasks_[id].deps.empty()) {
        (void)pool_->submit([&execute, id] { execute(id); });
      }
    }
    std::unique_lock<std::mutex> lock(mutex);
    // Bounded by the tasks themselves: every submitted task retires, and
    // every task is submitted once its dependencies retire.
    // SIMLINT-ALLOW(unbounded-wait)
    done_cv.wait(lock, [&] { return remaining == 0; });
  }

  for (TaskId id = 0; id < n; ++id) {
    const Outcome& out = outcomes[id];
    if (out.probed) {
      ++(out.state == Outcome::kHit ? report.cache_hits
                                    : report.cache_misses);
    }
    if (out.stored) ++report.cache_stored;
    switch (out.state) {
      case Outcome::kRan:
      case Outcome::kHit:
        ++report.completed;
        break;
      case Outcome::kFailed:
        ++report.failed;
        report.errors.push_back(
            CellError{id, tasks_[id].label, false, out.message});
        break;
      case Outcome::kSkipped:
        ++report.skipped;
        report.errors.push_back(CellError{id, tasks_[id].label, true,
                                          "skipped: dependency failed"});
        break;
    }
    // A cell that never executed (cache hit, dependency skip) must leave
    // its preallocated snapshot slot empty-but-valid: merging the grid's
    // snapshots would otherwise double-count cached work, and the
    // CellRunner relies on "empty slot == no fresh telemetry" to splice
    // cached snapshots back in. Enforced, not assumed.
    if (capture_ &&
        (out.state == Outcome::kHit || out.state == Outcome::kSkipped)) {
      IMPACT_ASSERT(report.snapshots[id].empty());
    }
  }
  emit_cache_obs(report);
  return report;
}

}  // namespace impact::exec
