// Scoped installation of the current registry/trace.
//
// Instrumented layers never hold a Registry; they ask `current_registry()`
// at construction and cache the resulting handles. `obs::Scope` installs a
// fresh registry (and optionally a TraceSession) into thread-local slots
// for its lifetime — exec::Sweep opens one per cell, quickstart one per
// run. Nesting restores the previous scope on destruction.
//
// Cost outside any Scope (every microbench): resolution returns null
// handles once at construction, and the per-op cost is a single
// predictable branch on a cached handle.
//
// Components built inside a Scope must not outlive it: handles point into
// the scope's registry. Components that register providers flush them in
// their destructors, so normal inside-the-scope lifetimes are safe.
#pragma once

#include <string_view>

#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace impact::obs {

namespace detail {
[[nodiscard]] Registry*& registry_slot();
[[nodiscard]] TraceSession*& trace_slot();
}  // namespace detail

[[nodiscard]] inline Registry* current_registry() {
  return detail::registry_slot();
}
[[nodiscard]] inline TraceSession* current_trace() {
  return detail::trace_slot();
}

/// Null-safe handle resolution against the current scope: returns a null
/// handle (whose guarded use is a no-op) when no scope is active.
[[nodiscard]] inline Counter counter(std::string_view name) {
  Registry* reg = current_registry();
  return reg != nullptr ? reg->counter(name) : Counter{};
}
[[nodiscard]] inline Gauge gauge(std::string_view name) {
  Registry* reg = current_registry();
  return reg != nullptr ? reg->gauge(name) : Gauge{};
}
[[nodiscard]] inline Distribution distribution(std::string_view name,
                                               double lo, double hi,
                                               std::size_t bins) {
  Registry* reg = current_registry();
  return reg != nullptr ? reg->distribution(name, lo, hi, bins)
                        : Distribution{};
}

/// RAII capture scope: owns a Registry, installs it (and the optional
/// trace session) as current for the constructing thread, and restores the
/// previous scope on destruction.
class Scope {
 public:
  explicit Scope(TraceSession* trace = nullptr);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  Registry registry_;
  Registry* prev_registry_ = nullptr;
  TraceSession* prev_trace_ = nullptr;
};

}  // namespace impact::obs
