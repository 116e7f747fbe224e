// Registry: the named catalogue of every experiment the repo can run.
//
// One entry per experiment — every paper figure/table, every ablation,
// every walkthrough example. The registry is an instance (no
// static self-registration: the simlint global-state rule bans dynamic
// initializers, and a static library would drop unreferenced
// registration objects anyway); register_builtin() explicitly installs
// the full built-in catalogue and is the single place a new experiment
// gets added.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lab/experiment.hpp"

namespace impact::lab {

class Registry {
 public:
  /// Installs a spec. Throws std::invalid_argument on an empty name, a
  /// missing run body, or a name already registered — a duplicate means
  /// two experiments claim the same `impact run` identity, which is
  /// always a programming error.
  void add(ExperimentSpec spec);

  /// Spec by name, or nullptr.
  [[nodiscard]] const ExperimentSpec* find(std::string_view name) const;

  /// All specs in name order.
  [[nodiscard]] std::vector<const ExperimentSpec*> all() const;

  [[nodiscard]] std::size_t size() const { return specs_.size(); }

 private:
  std::map<std::string, ExperimentSpec, std::less<>> specs_;
};

/// Installs every built-in experiment.
void register_builtin(Registry& registry);

}  // namespace impact::lab
