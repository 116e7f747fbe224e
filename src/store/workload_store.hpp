// Interned pool of immutable graph::WorkloadInputs.
//
// graph::build_input is deterministic in (graph::graph_inputs(config),
// kind): `system` reaches neither the RMAT generator nor the trace
// builder, so every policy and system variant of a grid shares one build.
// The store keys on exactly that pair, builds at most once per key, and
// hands out const pointers that stay valid for the store's lifetime.
//
// Thread safety: get() may be called concurrently from sweep workers.
// The builder runs outside the lock (a default Fig. 11 build takes
// 30-135 ms in Release on a 4-vCPU VM, TC the longest; serializing
// them on a mutex would erase the sweep's parallelism), so two workers
// racing on the same key may both build — the first to publish wins and
// the duplicate is dropped. Determinism makes both builds identical, so
// which one wins is unobservable.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "graph/multiprog.hpp"

namespace impact::store {

class WorkloadStore {
 public:
  WorkloadStore() = default;
  WorkloadStore(const WorkloadStore&) = delete;
  WorkloadStore& operator=(const WorkloadStore&) = delete;

  /// The interned input for (config, kind): built on first use, shared on
  /// every later call whose graph_inputs and kind compare equal. The
  /// pointer is valid until the store is destroyed.
  [[nodiscard]] const graph::WorkloadInput* get(
      const graph::MultiprogConfig& config, graph::WorkloadKind kind);

  /// Number of distinct inputs built so far (duplicate get()s are free).
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<graph::MultiprogConfig, graph::WorkloadKind>,
           std::unique_ptr<graph::WorkloadInput>>
      inputs_;
};

}  // namespace impact::store
