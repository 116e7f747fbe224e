#include "cache/hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <iterator>
#include <string>

#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::cache {

HierarchyConfig HierarchyConfig::table2(std::uint64_t llc_bytes,
                                        std::uint32_t llc_ways) {
  const LlcLatencyModel llc_model;
  HierarchyConfig c;
  c.l1 = CacheConfig{"L1D", 32ull * 1024, 8, 64, 4, ReplacementKind::kLru};
  c.l2 = CacheConfig{"L2", 1ull * 1024 * 1024, 16, 64, 12,
                     ReplacementKind::kSrrip};
  c.l3 = CacheConfig{"L3", llc_bytes, llc_ways, 64,
                     llc_model.latency(llc_bytes, llc_ways),
                     ReplacementKind::kSrrip};
  return c;
}

void HierarchyConfig::validate() const {
  l1.validate();
  l2.validate();
  l3.validate();
  util::check(l1.line_bytes == l2.line_bytes && l2.line_bytes == l3.line_bytes,
              "HierarchyConfig: line size must match across levels");
  util::check(mlp > 0, "HierarchyConfig: mlp must be positive");
}

Hierarchy::Hierarchy(HierarchyConfig config,
                     dram::MemoryController& controller, dram::ActorId actor)
    : Hierarchy(std::move(config), controller, actor,
                obs::current_registry()) {}

Hierarchy::Hierarchy(HierarchyConfig config,
                     dram::MemoryController& controller, dram::ActorId actor,
                     obs::Registry* registry)
    : config_(std::move(config)),
      controller_(&controller),
      actor_(actor),
      l1_(config_.l1),
      l2_(config_.l2),
      l3_(config_.l3) {
  config_.validate();
  const std::uint32_t lb = config_.l1.line_bytes;
  if (lb != 0 && (lb & (lb - 1)) == 0) {
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(lb));
  }
  // Publish the per-level stats as snapshot-time providers: sampling
  // happens only when a snapshot is taken, so the access fast path is not
  // touched at all. Registration is construction-time-only work, skipped
  // without a registry.
  if (registry != nullptr) {
    obs_registry_ = registry;
    const auto add = [&](std::string_view name,
                         std::function<std::uint64_t()> fn) {
      obs_providers_.push_back(
          registry->add_provider(std::string(name), std::move(fn)));
    };
    const Cache* const levels[] = {&l1_, &l2_, &l3_};
    for (std::size_t i = 0; i < std::size(levels); ++i) {
      const Cache* c = levels[i];
      const std::string_view* names = &kCounterNames[4 * i];
      add(names[0], [c] { return c->stats().hits; });
      add(names[1], [c] { return c->stats().misses; });
      add(names[2], [c] { return c->stats().evictions; });
      add(names[3], [c] { return c->stats().writebacks; });
    }
    add(kCounterNames[12], [this] { return prefetch_fills_; });
  }
}

Hierarchy::~Hierarchy() {
  if (obs_registry_ != nullptr) {
    for (const obs::ProviderId id : obs_providers_) {
      obs_registry_->flush_provider(id);
    }
  }
}

util::Cycle Hierarchy::full_lookup_latency() const {
  return config_.l1.latency + config_.l2.latency + config_.l3.latency;
}

void Hierarchy::handle_l3_eviction(const Eviction& ev, util::Cycle now) {
  // Inclusive LLC: the victim must leave the upper levels too.
  bool dirty = ev.dirty;
  if (const auto e1 = l1_.invalidate(ev.line)) dirty = dirty || e1->dirty;
  if (const auto e2 = l2_.invalidate(ev.line)) dirty = dirty || e2->dirty;
  if (dirty) {
    // Write the victim back to DRAM (off the demand critical path, but it
    // perturbs row-buffer state — a real noise source for the attacks).
    dram_access(addr_of(ev.line), now);
  }
}

void Hierarchy::fill_all_levels(LineAddr line, util::Cycle now, bool dirty) {
  // Each level was just probed and missed in access(), and the L3 victim's
  // back-invalidation only removes lines, so every fill of `line` itself
  // can skip the tag re-probe. The victim write-down fills stay general:
  // an L2/L1 victim is usually still present in the level below.
  if (const auto ev3 = l3_.fill_known_miss(line, dirty)) {
    handle_l3_eviction(*ev3, now);
  }
  if (const auto ev2 = l2_.fill_known_miss(line)) {
    // Non-inclusive upper levels: a dirty L2 victim flows down into L3.
    if (ev2->dirty) l3_.fill(ev2->line, true);
  }
  if (const auto ev1 = l1_.fill_known_miss(line)) {
    if (ev1->dirty) l2_.fill(ev1->line, true);
  }
}

void Hierarchy::issue_prefetches(const std::vector<LineAddr>& candidates,
                                 util::Cycle now) {
  for (LineAddr line : candidates) {
    const dram::PhysAddr addr = addr_of(line);
    if (addr >= controller_->mapping().capacity()) continue;
    if (l2_.contains(line) || l3_.contains(line)) continue;
    ++prefetch_fills_;
    dram_access(addr, now);  // DRAM-side pollution.
    // Both levels verified absent just above (back-invalidation of the L3
    // victim cannot re-insert `line`), so the fills skip the re-probe.
    if (const auto ev3 = l3_.fill_known_miss(line, false)) {
      handle_l3_eviction(*ev3, now);
    }
    if (const auto ev2 = l2_.fill_known_miss(line)) {
      if (ev2->dirty) l3_.fill(ev2->line, true);
    }
  }
}

// SIMLINT-HOT-BEGIN: per-access fast path — no allocation, no
// std::string, no by-name registry resolves (docs/static-analysis.md).
MemAccessResult Hierarchy::access(dram::PhysAddr addr, util::Cycle now,
                                  bool is_write, std::uint64_t pc) {
  const LineAddr line = line_of(addr);
  MemAccessResult r;

  // Host-side prefetch of the L2/L3 set metadata: those sets are random
  // from the host's perspective and will be scanned tens of nanoseconds
  // from now (after the L1 probe and the prefetcher updates), so the loads
  // overlap with that work instead of stalling the miss path.
  l2_.prefetch_set(line);
  l3_.prefetch_set(line);

  r.latency += config_.l1.latency;
  if (l1_.access(line, is_write)) {
    r.level = HitLevel::kL1;
    return r;
  }

  std::vector<LineAddr>& l1_prefetches = l1_pf_scratch_;
  l1_prefetches.clear();
  if (config_.enable_prefetchers) {
    ip_stride_.observe_into(pc, line, l1_prefetches);
  }

  r.latency += config_.l2.latency;
  if (l2_.access(line, false)) {
    r.level = HitLevel::kL2;
    // L1 was just probed and missed; skip its tag re-probe on the fill.
    if (const auto ev1 = l1_.fill_known_miss(line, is_write)) {
      if (ev1->dirty) l2_.fill(ev1->line, true);
    }
    if (!l1_prefetches.empty()) {
      issue_prefetches(l1_prefetches, now + r.latency);
    }
    return r;
  }

  std::vector<LineAddr>& l2_prefetches = l2_pf_scratch_;
  l2_prefetches.clear();
  if (config_.enable_prefetchers) {
    streamer_.observe_into(pc, line, l2_prefetches);
  }

  r.latency += config_.l3.latency;
  if (l3_.access(line, false)) {
    r.level = HitLevel::kL3;
    // L1/L2 both missed their probes above; the fills skip the re-probe.
    if (const auto ev2 = l2_.fill_known_miss(line)) {
      if (ev2->dirty) l3_.fill(ev2->line, true);
    }
    if (const auto ev1 = l1_.fill_known_miss(line, is_write)) {
      if (ev1->dirty) l2_.fill(ev1->line, true);
    }
    if (!l1_prefetches.empty()) {
      issue_prefetches(l1_prefetches, now + r.latency);
    }
    if (!l2_prefetches.empty()) {
      issue_prefetches(l2_prefetches, now + r.latency);
    }
    return r;
  }

  // Demand miss all the way to DRAM.
  const auto mem = dram_access(addr, now + r.latency);
  r.latency += mem.latency;
  r.level = HitLevel::kMemory;
  r.dram_outcome = mem.outcome;
  fill_all_levels(line, now + r.latency, is_write);
  if (!l1_prefetches.empty()) {
    issue_prefetches(l1_prefetches, now + r.latency);
  }
  if (!l2_prefetches.empty()) {
    issue_prefetches(l2_prefetches, now + r.latency);
  }
  return r;
}

dram::AccessResult Hierarchy::record_dram(dram::PhysAddr addr) {
  dram_log_->push_back(static_cast<std::uint32_t>(line_of(addr)));
  return {};  // A recorded request costs no cycles.
}
// SIMLINT-HOT-END

void Hierarchy::set_dram_log(std::vector<std::uint32_t>* log) {
  util::check(log == nullptr ||
                  controller_->mapping().capacity() / config_.l1.line_bytes <=
                      (std::uint64_t{1} << 32),
              "Hierarchy::set_dram_log: line index exceeds 32 bits");
  dram_log_ = log;
}

util::Cycle Hierarchy::clflush(dram::PhysAddr addr, util::Cycle now) {
  const LineAddr line = line_of(addr);
  // §5.1: "clflush only probes the LLC to flush the cache line."
  util::Cycle latency = config_.l3.latency;
  bool dirty = false;
  if (const auto e1 = l1_.invalidate(line)) dirty = dirty || e1->dirty;
  if (const auto e2 = l2_.invalidate(line)) dirty = dirty || e2->dirty;
  if (const auto e3 = l3_.invalidate(line)) dirty = dirty || e3->dirty;
  if (dirty) {
    // §3.2: the write-back to main memory lands on the critical path.
    const auto wb = dram_access(addr, now + latency);
    latency += wb.latency;
  }
  return latency;
}

util::Cycle Hierarchy::evict_via_set(dram::PhysAddr addr, util::Cycle now,
                                     std::optional<dram::BankId> avoid_bank) {
  const LineAddr target = line_of(addr);
  const std::uint32_t sets = l3_.config().sets();
  const std::uint64_t capacity_lines =
      controller_->mapping().capacity() / config_.l1.line_bytes;

  // Conflict lines: same L3 set, different tags (stride of `sets` lines).
  util::Cycle lookup_cycles = 0;
  util::Cycle dram_cycles = 0;
  std::uint32_t filled = 0;
  const std::uint64_t max_tries = 16ull * l3_.config().ways;
  for (std::uint64_t k = 1; filled < l3_.config().ways; ++k) {
    const LineAddr line =
        (target + k * static_cast<std::uint64_t>(sets)) % capacity_lines;
    if (line == target) continue;
    if (avoid_bank.has_value() && k <= max_tries &&
        controller_->mapping().decode(addr_of(line)).bank == *avoid_bank) {
      continue;  // Keep the signalling bank's row buffer untouched.
    }
    // Functional path: install the conflicting line. One tag scan decides
    // hit and miss handling (the seed probed up to three times here:
    // contains, then access, then the fill's own re-probe).
    const LineAddr l = line;
    lookup_cycles += full_lookup_latency();
    const std::uint32_t way = l3_.probe(l);
    if (way == Cache::kNoWay) {
      const auto mem = dram_access(addr_of(l), now + lookup_cycles);
      dram_cycles += mem.latency;
      if (const auto ev3 = l3_.fill_known_miss(l)) {
        handle_l3_eviction(*ev3, now);
      }
    } else {
      // Promote; keeps the set pressure honest. Collapses the seed's
      // hitting access() + present fill() (touch is idempotent, so the
      // double promotion equals one).
      l3_.touch_hit(l, way, false);
    }
    ++filled;
  }
  // Upper levels may still hold the target (they are smaller, so the
  // conflict set usually displaces it, but inclusive back-invalidation on
  // the target's eviction handles the rest). Force-complete the eviction:
  l1_.invalidate(target);
  l2_.invalidate(target);
  l3_.invalidate(target);

  // Latency model (§3.3): cache lookups serialize; the DRAM fills overlap
  // up to the MSHR-limited memory-level parallelism.
  return lookup_cycles + dram_cycles / config_.mlp;
}

bool Hierarchy::cached(dram::PhysAddr addr) const {
  const LineAddr line = line_of(addr);
  return l1_.contains(line) || l2_.contains(line) || l3_.contains(line);
}

util::Cycle Hierarchy::store_nontemporal(dram::PhysAddr addr,
                                         util::Cycle now) {
  const LineAddr line = line_of(addr);
  // Coherence probe of all levels, then a combining-buffer write to DRAM.
  util::Cycle latency = full_lookup_latency();
  l1_.invalidate(line);
  l2_.invalidate(line);
  l3_.invalidate(line);
  const auto wb = dram_access(addr, now + latency);
  latency += wb.latency;
  return latency;
}

void Hierarchy::reset_stats() {
  // Counters only: lines, replacement state and prefetcher training all
  // survive deliberately (resetting stats mid-run must not perturb the
  // simulated machine).
  l1_.reset_stats();
  l2_.reset_stats();
  l3_.reset_stats();
  prefetch_fills_ = 0;
}

void Hierarchy::drop_all() {
  // Cache::clear() also resets per-set replacement metadata, so a dropped
  // hierarchy is genuinely cold rather than inheriting the previous
  // workload's victim ordering. Prefetcher training is kept: drop_all is a
  // tag-drop helper, not a machine reset.
  l1_.clear();
  l2_.clear();
  l3_.clear();
}

}  // namespace impact::cache
