#include "sys/system.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "check/protocol_checker.hpp"
#include "obs/scope.hpp"

namespace impact::sys {

std::string SystemConfig::describe() const {
  char buf[1024];
  const auto t = dram.derived_timing();
  std::snprintf(
      buf, sizeof buf,
      "CPU: %u-core OoO x86, %.1f GHz\n"
      "MMU: L1 DTLB %u-entry/%u-way %llu-cyc, L2 TLB %u-entry/%u-way "
      "%llu-cyc, walk %llu-cyc\n"
      "L1D: 32 KB 8-way 4-cyc LRU (IP-stride)\n"
      "L2:  1 MB 16-way 12-cyc SRRIP (streamer)\n"
      "LLC: %llu MB %u-way SRRIP\n"
      "DRAM: %u ch x %u ranks x %u banks (%u banks total), %u B rows, "
      "tRCD/tRP/tCAS = %llu/%llu/%llu cyc, %s policy, row timeout %llu cyc\n",
      cores, freq_ghz, tlb.l1.entries, tlb.l1.ways,
      static_cast<unsigned long long>(tlb.l1.latency), tlb.l2.entries,
      tlb.l2.ways, static_cast<unsigned long long>(tlb.l2.latency),
      static_cast<unsigned long long>(tlb.walk_latency),
      static_cast<unsigned long long>(llc_bytes >> 20), llc_ways,
      dram.channels, dram.ranks, dram.banks_per_rank, dram.total_banks(),
      dram.row_bytes, static_cast<unsigned long long>(t.trcd),
      static_cast<unsigned long long>(t.trp),
      static_cast<unsigned long long>(t.tcas), to_string(dram.policy),
      static_cast<unsigned long long>(t.row_timeout));
  return buf;
}

namespace {

/// The Table 2 hierarchy of `cfg`, every capacity divided by cache_scale.
cache::HierarchyConfig hierarchy_config(const SystemConfig& cfg) {
  auto h = cache::HierarchyConfig::table2(cfg.llc_bytes, cfg.llc_ways);
  if (cfg.cache_scale > 1) {
    const auto scale = [&](cache::CacheConfig& c) {
      const std::uint64_t min_bytes =
          static_cast<std::uint64_t>(c.ways) * c.line_bytes;
      c.size_bytes = std::max(c.size_bytes / cfg.cache_scale, min_bytes);
    };
    scale(h.l1);
    scale(h.l2);
    scale(h.l3);
  }
  h.enable_prefetchers = cfg.prefetchers;
  return h;
}

}  // namespace

MemorySystem::CpuContext::CpuContext(const TlbConfig& tlb_config)
    : tlb(tlb_config), registry(obs::current_registry()) {
  // A snapshot lists the hierarchy's counters whether or not it is built.
  if (registry != nullptr) {
    for (const std::string_view name : cache::kCounterNames) {
      (void)registry->counter(name);
    }
  }
}

MemorySystem::MemorySystem(SystemConfig config)
    : config_(config),
      controller_(config.dram, config.mapping),
      vmem_(controller_.mapping(), config.seed),
      timestamp_(config.timer) {}

MemorySystem::CpuContext& MemorySystem::context(dram::ActorId actor) {
  auto [it, inserted] = contexts_.try_emplace(actor);
  if (inserted) it->second = std::make_unique<CpuContext>(config_.tlb);
  return *it->second;
}

cache::Hierarchy& MemorySystem::hierarchy(dram::ActorId actor) {
  CpuContext& ctx = context(actor);
  if (ctx.hierarchy == nullptr) {
    ctx.hierarchy = std::make_unique<cache::Hierarchy>(
        hierarchy_config(config_), controller_, actor, ctx.registry);
    ++hierarchy_builds_;
  }
  return *ctx.hierarchy;
}

void MemorySystem::reconcile_protocol() {
  check::ProtocolChecker* checker = controller_.checker();
  if (checker == nullptr) return;
  for (dram::BankId b = 0; b < controller_.banks(); ++b) {
    checker->reconcile_stats(b, controller_.bank_stats(b));
  }
}

Tlb& MemorySystem::tlb(dram::ActorId actor) { return context(actor).tlb; }

TlbResult MemorySystem::translate(dram::ActorId actor, VAddr vaddr) {
  return context(actor).tlb.translate(vaddr, vmem_.is_huge(actor, vaddr));
}

PathResult MemorySystem::load(dram::ActorId actor, VAddr vaddr,
                              util::Cycle& clock, std::uint64_t pc) {
  cache::Hierarchy& hier = hierarchy(actor);
  const auto tr = translate(actor, vaddr);
  const dram::PhysAddr paddr = vmem_.translate(actor, vaddr);
  const auto mem = hier.access(paddr, clock + tr.latency,
                               /*is_write=*/false, pc);
  PathResult r;
  r.latency = tr.latency + mem.latency;
  r.level = mem.level;
  r.outcome = mem.dram_outcome;
  clock += r.latency;
  return r;
}

PathResult MemorySystem::store(dram::ActorId actor, VAddr vaddr,
                               util::Cycle& clock, std::uint64_t pc) {
  cache::Hierarchy& hier = hierarchy(actor);
  const auto tr = translate(actor, vaddr);
  const dram::PhysAddr paddr = vmem_.translate(actor, vaddr);
  const auto mem = hier.access(paddr, clock + tr.latency,
                               /*is_write=*/true, pc);
  PathResult r;
  r.latency = tr.latency + mem.latency;
  r.level = mem.level;
  r.outcome = mem.dram_outcome;
  clock += r.latency;
  return r;
}

util::Cycle MemorySystem::clflush(dram::ActorId actor, VAddr vaddr,
                                  util::Cycle& clock) {
  cache::Hierarchy& hier = hierarchy(actor);
  const auto tr = translate(actor, vaddr);
  const dram::PhysAddr paddr = vmem_.translate(actor, vaddr);
  const util::Cycle latency =
      tr.latency + hier.clflush(paddr, clock + tr.latency);
  clock += latency;
  return latency;
}

util::Cycle MemorySystem::evict(dram::ActorId actor, VAddr vaddr,
                                util::Cycle& clock) {
  cache::Hierarchy& hier = hierarchy(actor);
  const auto tr = translate(actor, vaddr);
  const dram::PhysAddr paddr = vmem_.translate(actor, vaddr);
  const dram::BankId target_bank = controller_.mapping().decode(paddr).bank;
  const util::Cycle latency =
      tr.latency + hier.evict_via_set(paddr, clock + tr.latency, target_bank);
  clock += latency;
  return latency;
}

PathResult MemorySystem::direct_access(dram::ActorId actor, VAddr vaddr,
                                       util::Cycle& clock) {
  const auto tr = translate(actor, vaddr);
  const dram::PhysAddr paddr = vmem_.translate(actor, vaddr);
  const auto mem = controller_.access(paddr, clock + tr.latency, actor);
  PathResult r;
  r.latency = tr.latency + mem.latency;
  r.level = cache::HitLevel::kMemory;
  r.outcome = mem.outcome;
  clock += r.latency;
  return r;
}

PathResult MemorySystem::dma_access(dram::ActorId actor, VAddr vaddr,
                                    util::Cycle& clock) {
  // DMA transfers run on physical (IOMMU-mapped) addresses; the translation
  // cost is folded into the per-transfer driver overhead.
  const dram::PhysAddr paddr = vmem_.translate(actor, vaddr);
  const util::Cycle overhead = config_.dma.per_transfer_overhead;
  const auto mem = controller_.access(paddr, clock + overhead, actor);
  PathResult r;
  r.latency = overhead + mem.latency;
  r.level = cache::HitLevel::kMemory;
  r.outcome = mem.outcome;
  clock += r.latency;
  return r;
}

void MemorySystem::charge_walk_traffic(dram::ActorId actor, VAddr vaddr,
                                       bool walked, util::Cycle now) {
  if (!walked) return;
  // Leaf-PTE location: spread page-table pages pseudo-randomly over the
  // device (timing-only access; PTE contents are not modelled).
  std::uint64_t page = vaddr >> 12;
  page ^= page >> 17;
  page *= 0x9E3779B97F4A7C15ull;
  const dram::PhysAddr pte_addr =
      (page % (controller_.mapping().capacity() / 64)) * 64;
  controller_.access(pte_addr, now, actor);
}

void MemorySystem::warm_span(dram::ActorId actor, const VSpan& span) {
  auto& ctx = context(actor);
  const bool huge = vmem_.is_huge(actor, span.vaddr);
  const std::uint64_t step =
      huge ? (1ull << config_.tlb.huge_page_bits) : vmem_.page_bytes();
  for (VAddr v = span.vaddr; v < span.end(); v += step) {
    ctx.tlb.warm(v, huge);
  }
}

}  // namespace impact::sys
