// Content-addressed cache of experiment-cell results.
//
// A cell's Fingerprint covers everything that determines its output
// (configs, seeds, policies, fault profile, schema version — see
// store/fingerprint.hpp), so a hit can replace the whole
// simulation: two runs with equal fingerprints are bit-identical by
// construction, and the IMPACT_STORE_VERIFY mode re-simulates hits to
// prove it.
//
// The cache is an instance (no process-global state; the simlint
// global-state rule applies to src/store like everywhere else): drivers
// construct one in main() and thread it through a store::CellRunner.
// Lookups and stores are mutex-protected so a parallel exec::Sweep can
// probe and publish from worker threads.
//
// Backends:
//   - in-memory: always on; a map from fingerprint to serialized Record
//     bytes. Records stay serialized so verify-mode byte comparison and
//     disk writes reuse the same canonical bytes.
//   - on-disk (optional): a directory of `<fingerprint-hex>.rec` files.
//     Misses fall through to disk; disk hits are pulled into memory.
//     Writes go through a temp file + fsync + rename + directory fsync so
//     a crashed run never leaves a truncated record behind (parse() would
//     reject one anyway) and a committed record survives power loss —
//     rerunning an interrupted grid on the same directory counts on this
//     to resume from every cell that was stored.
//
// Environment:
//   IMPACT_STORE=0        disable the cache entirely (every probe misses,
//                         nothing is stored).
//   IMPACT_STORE_DIR=path enable the on-disk backend rooted at `path`
//                         (created if missing).
//   IMPACT_STORE_VERIFY=1 paranoid mode: hits are re-simulated and the
//                         fresh bytes compared against the cached bytes;
//                         any divergence aborts the process.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "store/record.hpp"

namespace impact::store {

class ResultCache {
 public:
  struct Options {
    bool enabled = true;
    bool verify = false;      ///< Re-simulate hits, abort on divergence.
    std::string disk_dir;     ///< Empty = in-memory only.
  };

  /// Reads IMPACT_STORE / IMPACT_STORE_DIR / IMPACT_STORE_VERIFY.
  [[nodiscard]] static Options options_from_env();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stored = 0;
    std::uint64_t disk_hits = 0;    ///< Subset of hits served from disk.
    std::uint64_t rejected = 0;     ///< Malformed records treated as misses.
    std::uint64_t fsyncs = 0;       ///< File + directory syncs on disk writes.
  };

  ResultCache() = default;
  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  [[nodiscard]] const Options& options() const { return options_; }

  /// Parsed record on hit; nullopt on miss (or when disabled). When
  /// `raw_bytes` is non-null it receives the cached serialized bytes —
  /// the verify mode compares those against a fresh re-simulation.
  [[nodiscard]] std::optional<Record> lookup(const Fingerprint& fp,
                                             std::string* raw_bytes = nullptr);

  /// True if a record for `fp` exists (memory or disk) without counting a
  /// hit or pulling the record into memory. Used by build-stage probes
  /// that only need to know whether dependents are all cached.
  [[nodiscard]] bool contains(const Fingerprint& fp);

  /// Serializes and stores the record under record.fp. Overwrites any
  /// existing entry (last write wins — identical fingerprints imply
  /// identical bytes, so this only matters after a verify-mode abort was
  /// narrowly avoided). Disk-write failures are non-fatal: the in-memory
  /// entry still lands and the cache stays correct, just colder next run.
  void store(const Record& record);

  [[nodiscard]] Stats stats() const;

 private:
  [[nodiscard]] std::string disk_path(const Fingerprint& fp) const;
  [[nodiscard]] std::optional<std::string> disk_read(
      const Fingerprint& fp) const;
  void disk_write(const Fingerprint& fp, const std::string& bytes);

  Options options_;
  mutable std::mutex mu_;
  std::map<Fingerprint, std::string> entries_;  ///< Serialized records.
  Stats stats_;
};

}  // namespace impact::store
