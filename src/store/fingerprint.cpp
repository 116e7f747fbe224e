#include "store/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "util/assert.hpp"

namespace impact::store {

namespace {

// FNV-1a, the repo's established content hash (simlint finding IDs use the
// same constants). The two lanes start from independent offsets so a
// collision must happen in both 64-bit streams at once.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kLane2Offset = kFnvOffset ^ 0x9E3779B97F4A7C15ull;

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string u64_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

}  // namespace

std::string Fingerprint::hex() const { return u64_hex(hi) + u64_hex(lo); }

bool Fingerprint::from_hex(std::string_view text, Fingerprint* out) {
  if (text.size() != 32) return false;
  std::uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 16; ++i) {
      const char c = text[static_cast<std::size_t>(half * 16 + i)];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a') + 10;
      } else {
        return false;
      }
      parts[half] = (parts[half] << 4) | digit;
    }
  }
  out->hi = parts[0];
  out->lo = parts[1];
  return true;
}

Canon::Canon(std::uint32_t schema_salt) {
  field("__schema", static_cast<std::uint64_t>(schema_salt));
}

void Canon::add(std::string_view name, char tag, std::string value) {
  fields_.emplace_back(std::string(name),
                       std::string(1, tag) + ":" + std::move(value));
}

void Canon::field(std::string_view name, std::uint64_t value) {
  add(name, 'u', u64_hex(value));
}

void Canon::field(std::string_view name, std::int64_t value) {
  add(name, 'i', u64_hex(static_cast<std::uint64_t>(value)));
}

void Canon::field(std::string_view name, double value) {
  // IEEE-754 bit pattern: byte-stable, no printf rounding ambiguity.
  add(name, 'd', u64_hex(std::bit_cast<std::uint64_t>(value)));
}

void Canon::field(std::string_view name, bool value) {
  add(name, 'b', value ? "1" : "0");
}

void Canon::field(std::string_view name, std::string_view value) {
  add(name, 's', std::string(value));
}

void Canon::object(std::string_view name, const Canon& nested) {
  add(name, 'o', nested.fingerprint().hex());
}

Fingerprint Canon::fingerprint() const {
  std::vector<std::pair<std::string, std::string>> sorted = fields_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    util::check(sorted[i].first != sorted[i - 1].first,
                "Canon: duplicate field '" + sorted[i].first + "'");
  }
  Fingerprint fp{kFnvOffset, kLane2Offset};
  for (const auto& [name, value] : sorted) {
    for (std::uint64_t* lane : {&fp.hi, &fp.lo}) {
      std::uint64_t h = fnv1a(name, *lane);
      h = fnv1a("\x1f", h);
      h = fnv1a(value, h);
      *lane = fnv1a("\x1e", h);
    }
  }
  return fp;
}

// Each canon_of first binds every field of its struct by name. A new field
// makes the binding's count wrong and fails the build here until it is
// named, hashed and added to test_store's
// CanonOf.EveryInputChangeChangesTheFingerprint.
Canon canon_of(const dram::TimingParams& timing) {
  const auto& [trcd_ns, trp_ns, tras_ns, tcas_ns, tbl_ns, row_timeout_ns,
               rowclone_fpm_ns, timeout_mode, trefi_ns, trfc_ns] = timing;
  Canon c;
  c.field("trcd_ns", trcd_ns);
  c.field("trp_ns", trp_ns);
  c.field("tras_ns", tras_ns);
  c.field("tcas_ns", tcas_ns);
  c.field("tbl_ns", tbl_ns);
  c.field("row_timeout_ns", row_timeout_ns);
  c.field("rowclone_fpm_ns", rowclone_fpm_ns);
  c.field("timeout_mode", static_cast<std::uint64_t>(timeout_mode));
  c.field("trefi_ns", trefi_ns);
  c.field("trfc_ns", trfc_ns);
  return c;
}

Canon canon_of(const dram::DramConfig& config) {
  const auto& [channels, ranks, banks_per_rank, rows_per_bank, row_bytes,
               subarray_rows, policy, timing, freq] = config;
  Canon c;
  c.field("channels", channels);
  c.field("ranks", ranks);
  c.field("banks_per_rank", banks_per_rank);
  c.field("rows_per_bank", rows_per_bank);
  c.field("row_bytes", row_bytes);
  c.field("subarray_rows", subarray_rows);
  c.field("policy", to_string(policy));
  c.object("timing", canon_of(timing));
  c.field("freq_ghz", freq.ghz());
  return c;
}

Canon canon_of(const sys::TlbConfig& config) {
  const auto& [l1, l1_huge, l2, walk_latency, page_bits, huge_page_bits] =
      config;
  const auto level = [](const sys::TlbLevelConfig& l) {
    const auto& [entries, ways, latency] = l;
    Canon lc;
    lc.field("entries", entries);
    lc.field("ways", ways);
    lc.field("latency", static_cast<std::uint64_t>(latency));
    return lc;
  };
  Canon c;
  c.object("l1", level(l1));
  c.object("l1_huge", level(l1_huge));
  c.object("l2", level(l2));
  c.field("walk_latency", static_cast<std::uint64_t>(walk_latency));
  c.field("page_bits", page_bits);
  c.field("huge_page_bits", huge_page_bits);
  return c;
}

Canon canon_of(const sys::SystemConfig& config) {
  const auto& [freq_ghz, cores, dram, mapping, llc_bytes, llc_ways,
               cache_scale, prefetchers, tlb, timer, dma, seed] = config;
  // timer and dma are hashed flat, one field per member.
  const auto& [rdtscp_cost, cpuid_cost] = timer;
  const auto& [per_transfer_overhead] = dma;
  Canon c;
  c.field("freq_ghz", freq_ghz);
  c.field("cores", cores);
  c.object("dram", canon_of(dram));
  c.field("mapping", to_string(mapping));
  c.field("llc_bytes", llc_bytes);
  c.field("llc_ways", llc_ways);
  c.field("cache_scale", cache_scale);
  c.field("prefetchers", prefetchers);
  c.object("tlb", canon_of(tlb));
  c.field("timer.rdtscp_cost", static_cast<std::uint64_t>(rdtscp_cost));
  c.field("timer.cpuid_cost", static_cast<std::uint64_t>(cpuid_cost));
  c.field("dma.per_transfer_overhead",
          static_cast<std::uint64_t>(per_transfer_overhead));
  c.field("seed", seed);
  return c;
}

Canon canon_of(const graph::MultiprogConfig& config) {
  const auto& [system, rmat_scale, edge_count, graph_seed] = config;
  Canon c;
  c.object("system", canon_of(system));
  c.field("rmat_scale", rmat_scale);
  c.field("edge_count", static_cast<std::uint64_t>(edge_count));
  c.field("graph_seed", graph_seed);
  return c;
}

Canon canon_of(const fault::FaultConfig& config) {
  const auto& [kind, probability, magnitude, window_begin, window_end] =
      config;
  Canon c;
  c.field("kind", to_string(kind));
  c.field("probability", probability);
  c.field("magnitude", static_cast<std::uint64_t>(magnitude));
  c.field("window_begin", static_cast<std::uint64_t>(window_begin));
  c.field("window_end", static_cast<std::uint64_t>(window_end));
  return c;
}

Canon canon_of(std::span<const fault::FaultConfig> faults) {
  Canon c;
  c.field("count", static_cast<std::uint64_t>(faults.size()));
  for (std::size_t i = 0; i < faults.size(); ++i) {
    c.object("fault." + std::to_string(i), canon_of(faults[i]));
  }
  return c;
}

}  // namespace impact::store
