// Content-addressed fingerprints for experiment cells.
//
// A cell's fingerprint covers everything that determines its output: the
// workload/config structs, seeds, defense policy, fault profile, and a
// compile-time schema salt (`kSchemaVersion`, bumped whenever simulation
// semantics change — tests/test_store.cpp pins a golden fingerprint so a
// canonicalization change without a bump fails loudly). Identical
// fingerprints therefore mean bit-identical results under the repo's
// determinism contract (docs/performance.md), which is what lets
// store::ResultCache return a cached cell without re-simulating.
//
// Canonicalization: fields are (name, type-tagged value) pairs hashed in
// name-sorted order, so the hash is insensitive to the order call sites
// declare fields in and two semantically-identical configs serialize
// equal. Values carry a type tag (u/i/d/b/s/o) so `1u`, `"1"` and `1.0`
// never collide. Doubles hash their IEEE-754 bit pattern — byte-stable,
// no text-formatting ambiguity. The hash itself is the same FNV-1a the
// repo already uses for simlint finding IDs, widened to two independent
// 64-bit lanes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dram/config.hpp"
#include "fault/injector.hpp"
#include "graph/multiprog.hpp"
#include "sys/system.hpp"

namespace impact::store {

/// Bumped whenever a change alters simulation semantics (timing model,
/// replay order, defaults folded into results): every fingerprint embeds
/// it, so a bump invalidates all previously cached records at once.
inline constexpr std::uint32_t kSchemaVersion = 2;

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;

  /// 32 lowercase hex chars (hi then lo) — the on-disk record name.
  [[nodiscard]] std::string hex() const;

  /// Strict inverse of hex(); returns false (and leaves *out untouched)
  /// on malformed input.
  static bool from_hex(std::string_view text, Fingerprint* out);
};

/// Accumulates named fields and hashes them in canonical (name-sorted)
/// order. Field names must be unique within one Canon — a duplicate is a
/// canonicalization bug and throws via util::check.
class Canon {
 public:
  /// `schema_salt` defaults to kSchemaVersion; tests inject other salts to
  /// pin the invalidation behaviour. The salt participates as a hidden
  /// "__schema" field.
  explicit Canon(std::uint32_t schema_salt = kSchemaVersion);

  void field(std::string_view name, std::uint64_t value);
  void field(std::string_view name, std::int64_t value);
  void field(std::string_view name, std::uint32_t value) {
    field(name, static_cast<std::uint64_t>(value));
  }
  void field(std::string_view name, std::int32_t value) {
    field(name, static_cast<std::int64_t>(value));
  }
  void field(std::string_view name, double value);
  void field(std::string_view name, bool value);
  void field(std::string_view name, std::string_view value);
  void field(std::string_view name, const char* value) {
    field(name, std::string_view(value));
  }
  /// Nested object: the child's fingerprint becomes the value, so nesting
  /// depth never changes the parent's field algebra.
  void object(std::string_view name, const Canon& nested);

  [[nodiscard]] Fingerprint fingerprint() const;

 private:
  void add(std::string_view name, char tag, std::string value);

  std::vector<std::pair<std::string, std::string>> fields_;
};

// Canonical serializations of the config structs that determine cell
// outputs. Every field participates; adding a struct field without adding
// it here would silently alias configs, so each helper first binds its
// struct's fields by name in a structured binding, whose field count fails
// the build until the new field is named (one in padding included).
[[nodiscard]] Canon canon_of(const dram::TimingParams& timing);
[[nodiscard]] Canon canon_of(const dram::DramConfig& config);
[[nodiscard]] Canon canon_of(const sys::TlbConfig& config);
[[nodiscard]] Canon canon_of(const sys::SystemConfig& config);
[[nodiscard]] Canon canon_of(const graph::MultiprogConfig& config);
[[nodiscard]] Canon canon_of(const fault::FaultConfig& config);
/// Fault lists are order-sensitive: the injector consults configs in list
/// order, so the canonical form indexes them rather than sorting them.
[[nodiscard]] Canon canon_of(std::span<const fault::FaultConfig> faults);

}  // namespace impact::store
