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

namespace {

[[noreturn]] void bad_value(const ExperimentSpec& spec, std::string_view name,
                            const std::string& value, const char* want) {
  throw std::invalid_argument("parameter '" + std::string(name) + "' of '" +
                              spec.name + "': '" + value + "' is not " + want);
}

}  // namespace

std::uint32_t Context::u32(std::string_view name) const {
  const std::uint64_t v = u64(name);
  if (v > 0xffffffffULL) bad_value(spec_, name, str(name), "a 32-bit value");
  return static_cast<std::uint32_t>(v);
}

std::uint64_t Context::u64(std::string_view name) const {
  const std::string value = str(name);
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(value, &used);
    if (used != value.size()) bad_value(spec_, name, value, "an integer");
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(spec_, name, value, "an integer");
  } catch (const std::out_of_range&) {
    bad_value(spec_, name, value, "an integer in range");
  }
}

double Context::f64(std::string_view name) const {
  const std::string value = str(name);
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) bad_value(spec_, name, value, "a number");
    return v;
  } catch (const std::invalid_argument&) {
    bad_value(spec_, name, value, "a number");
  } catch (const std::out_of_range&) {
    bad_value(spec_, name, value, "a number in range");
  }
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
