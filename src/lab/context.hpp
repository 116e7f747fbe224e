// Context: the wired-up environment an experiment body runs in.
//
// Pre-refactor every heavy driver repeated the same main() prologue:
// construct an exec::ThreadPool (IMPACT_THREADS), a store::ResultCache
// from env, a store::WorkloadStore and a store::CellRunner over the three.
// Context owns that prologue once, lazily — an example that never touches
// the runner never constructs a cache — and layers parameter resolution on
// top: explicit --param overrides win over the spec's declared defaults,
// and asking for an undeclared parameter throws (the schema is the
// contract, not a suggestion).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "lab/args.hpp"
#include "lab/experiment.hpp"

namespace impact::exec {
class ThreadPool;
}
namespace impact::store {
class CellRunner;
class ResultCache;
class WorkloadStore;
}  // namespace impact::store

namespace impact::lab {

class Context {
 public:
  /// Borrows the spec; it must outlive the context (registry entries do).
  Context(const ExperimentSpec& spec, Args args);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] const ExperimentSpec& spec() const { return spec_; }
  [[nodiscard]] const Args& args() const { return args_; }
  [[nodiscard]] bool smoke() const { return args_.smoke; }

  /// Resolved parameter value: the --param override if given, else the
  /// spec default. Throws std::invalid_argument for names the spec does
  /// not declare.
  [[nodiscard]] std::string str(std::string_view name) const;

  /// Shared worker pool, created on first use. --threads N overrides the
  /// IMPACT_THREADS/-hardware default.
  [[nodiscard]] exec::ThreadPool& pool();

  /// Result cache built from IMPACT_STORE* env, created on first use.
  [[nodiscard]] store::ResultCache& cache();

  /// Shared workload input store, created on first use.
  [[nodiscard]] store::WorkloadStore& workloads();

  /// CellRunner over pool()/cache()/workloads(), created on first use.
  [[nodiscard]] store::CellRunner& runner();

 private:
  const ExperimentSpec& spec_;
  Args args_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<store::ResultCache> cache_;
  std::unique_ptr<store::WorkloadStore> workloads_;
  std::unique_ptr<store::CellRunner> runner_;
};

}  // namespace impact::lab
