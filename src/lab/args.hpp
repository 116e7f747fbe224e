// The shared command-line vocabulary of `impact run <name> ...`: the
// two common flags every experiment understands (--smoke, --threads),
// declared-parameter overrides (--param k=v or --<name> v for
// any parameter the experiment's spec declares), and an opt-in
// passthrough lane for specs that wrap an external harness with
// its own flags (Google Benchmark).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace impact::lab {

struct ExperimentSpec;

/// Parsed driver arguments. `params` holds only explicit overrides;
/// resolution against the spec's declared defaults happens in
/// lab::Context.
struct Args {
  /// Reduced-scale run (CI-friendly).
  bool smoke = false;
  /// Worker-thread override; 0 keeps the IMPACT_THREADS/-hardware
  /// default of exec::ThreadPool.
  unsigned threads = 0;
  /// Declared-parameter overrides, by parameter name.
  std::map<std::string, std::string, std::less<>> params;
  /// Unrecognized arguments, preserved in order — only populated when the
  /// spec sets `accepts_extra_args` (Google Benchmark passthrough).
  std::vector<std::string> extra;
};

/// Parses `argv[1..argc)` against `spec`. Returns false and fills
/// `error` on the first unknown flag, missing value, undeclared
/// parameter, or bare word. Accepted forms:
///   --smoke --threads N|--threads=N
///   --param k=v|--param=k=v       (k must be declared by the spec)
///   --<name> V|--<name>=V         (any declared parameter name)
[[nodiscard]] bool parse_args(const ExperimentSpec& spec, int argc,
                              const char* const* argv, Args& out,
                              std::string& error);

}  // namespace impact::lab
