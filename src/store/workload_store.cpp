#include "store/workload_store.hpp"

namespace impact::store {

const graph::WorkloadInput* WorkloadStore::get(
    const graph::MultiprogConfig& config, graph::WorkloadKind kind) {
  auto key = std::pair{graph::graph_inputs(config), kind};
  {
    std::scoped_lock lock(mu_);
    if (auto it = inputs_.find(key); it != inputs_.end()) {
      return it->second.get();
    }
  }
  // Build outside the lock; a racing duplicate build loses the emplace and
  // is dropped (both builds are deterministic, so the results are equal).
  auto built = std::make_unique<graph::WorkloadInput>(
      graph::build_input(config, kind));
  std::scoped_lock lock(mu_);
  auto [it, _] = inputs_.emplace(std::move(key), std::move(built));
  return it->second.get();
}

std::size_t WorkloadStore::size() const {
  std::scoped_lock lock(mu_);
  return inputs_.size();
}

}  // namespace impact::store
