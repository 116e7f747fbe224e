#include "lab/context.hpp"

#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "store/cell_runner.hpp"
#include "store/result_cache.hpp"
#include "store/workload_store.hpp"

namespace impact::lab {

Context::Context(const ExperimentSpec& spec, Args args)
    : spec_(spec), args_(std::move(args)) {}

Context::~Context() = default;

std::string Context::str(std::string_view name) const {
  const auto over = args_.params.find(name);
  if (over != args_.params.end()) return over->second;
  for (const ParamSpec& p : spec_.params) {
    if (p.name == name) return p.default_value;
  }
  throw std::invalid_argument("experiment '" + spec_.name +
                              "' declares no parameter '" +
                              std::string(name) + "'");
}

exec::ThreadPool& Context::pool() {
  if (!pool_) {
    pool_ = args_.threads > 0 ? std::make_unique<exec::ThreadPool>(args_.threads)
                              : std::make_unique<exec::ThreadPool>();
  }
  return *pool_;
}

store::ResultCache& Context::cache() {
  if (!cache_) {
    cache_ = std::make_unique<store::ResultCache>(
        store::ResultCache::options_from_env());
  }
  return *cache_;
}

store::WorkloadStore& Context::workloads() {
  if (!workloads_) workloads_ = std::make_unique<store::WorkloadStore>();
  return *workloads_;
}

store::CellRunner& Context::runner() {
  if (!runner_) {
    runner_ =
        std::make_unique<store::CellRunner>(cache(), workloads(), &pool());
  }
  return *runner_;
}

}  // namespace impact::lab
