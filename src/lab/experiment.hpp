// ExperimentSpec: a figure/table/ablation/example as a declarative value.
//
// The source paper's evaluation is a matrix of named artifacts — Fig. 2
// through Fig. 11, Table 1, the ablations, the walkthrough examples.
// A spec holds an artifact's identity as data: the name, the parameter
// schema with defaults, how many sweep cells a run enumerates, and the
// run body itself. The registry (registry.hpp) maps names to specs; the
// driver (driver.hpp) is the single front end that executes any of them.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace impact::lab {

class Context;

/// Which shelf of the evaluation the experiment sits on. Used for
/// grouping in `impact list` and for bench.sh discovery.
enum class Kind {
  kFigure,     ///< reproduces a numbered paper figure
  kTable,      ///< reproduces a numbered paper table
  kAblation,   ///< sensitivity study beyond the paper's figures
  kExtension,  ///< post-paper extension experiment
  kExample,    ///< narrative walkthrough
  kPerf,       ///< harness performance benchmark, not a paper artifact
};

/// Human-readable kind label ("figure", "table", ...).
const char* kind_name(Kind kind);

/// One declared parameter: overridable via `--param name=v` or
/// `--<name> v`. The default is stored as text, read through
/// Context::str, so the schema stays printable.
struct ParamSpec {
  std::string name;
  std::string description;
  std::string default_value;
};

/// The declarative description of one experiment.
struct ExperimentSpec {
  /// Registry key, e.g. "fig11" or "quickstart".
  std::string name;
  /// One-line summary shown by `impact list`.
  std::string description;
  Kind kind = Kind::kFigure;
  /// Declared parameters, in display order.
  std::vector<ParamSpec> params;
  /// Role in tools/bench.sh output assembly: "" for experiments that
  /// do not feed BENCH_simulator.json, "micro" for the Google Benchmark
  /// harness, otherwise the JSON key the run's stdout lands under.
  std::string bench_role;
  /// True for specs wrapping an external harness with its own flags
  /// (Google Benchmark): unknown argv entries pass through in
  /// Args::extra instead of erroring.
  bool accepts_extra_args = false;
  /// Number of sweep cells a run at these settings enumerates (smoke
  /// flag comes from the Context). Used by `impact describe` and the
  /// cell-count pins in test_lab. Zero means "not cell-structured".
  std::function<std::size_t(const Context&)> cell_count;
  /// The experiment body. Receives the fully wired Context (pool,
  /// cache, parameter resolution) and returns a process exit code.
  std::function<int(Context&)> run;
};

}  // namespace impact::lab
