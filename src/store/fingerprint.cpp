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

// Each canon_of lists its struct's fields by hand. A new field changes the
// struct's size and fails the build here until it is added to canon_of and
// to test_store's CanonOf.EveryInputChangeChangesTheFingerprint.
static_assert(sizeof(dram::TimingParams) == 80,
              "add the new TimingParams field to canon_of");
Canon canon_of(const dram::TimingParams& timing) {
  Canon c;
  c.field("trcd_ns", timing.trcd_ns);
  c.field("trp_ns", timing.trp_ns);
  c.field("tras_ns", timing.tras_ns);
  c.field("tcas_ns", timing.tcas_ns);
  c.field("tbl_ns", timing.tbl_ns);
  c.field("row_timeout_ns", timing.row_timeout_ns);
  c.field("rowclone_fpm_ns", timing.rowclone_fpm_ns);
  c.field("timeout_mode",
          static_cast<std::uint64_t>(timing.timeout_mode));
  c.field("trefi_ns", timing.trefi_ns);
  c.field("trfc_ns", timing.trfc_ns);
  return c;
}

static_assert(sizeof(dram::DramConfig) == 120,
              "add the new DramConfig field to canon_of");
Canon canon_of(const dram::DramConfig& config) {
  Canon c;
  c.field("channels", config.channels);
  c.field("ranks", config.ranks);
  c.field("banks_per_rank", config.banks_per_rank);
  c.field("rows_per_bank", config.rows_per_bank);
  c.field("row_bytes", config.row_bytes);
  c.field("subarray_rows", config.subarray_rows);
  c.field("policy", to_string(config.policy));
  c.object("timing", canon_of(config.timing));
  c.field("freq_ghz", config.freq.ghz());
  return c;
}

static_assert(sizeof(sys::TlbConfig) == 64,
              "add the new TlbConfig field to canon_of");
Canon canon_of(const sys::TlbConfig& config) {
  Canon c;
  const auto level = [](const sys::TlbLevelConfig& l) {
    Canon lc;
    lc.field("entries", l.entries);
    lc.field("ways", l.ways);
    lc.field("latency", static_cast<std::uint64_t>(l.latency));
    return lc;
  };
  c.object("l1", level(config.l1));
  c.object("l1_huge", level(config.l1_huge));
  c.object("l2", level(config.l2));
  c.field("walk_latency", static_cast<std::uint64_t>(config.walk_latency));
  c.field("page_bits", config.page_bits);
  c.field("huge_page_bits", config.huge_page_bits);
  return c;
}

static_assert(sizeof(sys::SystemConfig) == 264,
              "add the new SystemConfig field to canon_of");
Canon canon_of(const sys::SystemConfig& config) {
  Canon c;
  c.field("freq_ghz", config.freq_ghz);
  c.field("cores", config.cores);
  c.object("dram", canon_of(config.dram));
  c.field("mapping", to_string(config.mapping));
  c.field("llc_bytes", config.llc_bytes);
  c.field("llc_ways", config.llc_ways);
  c.field("cache_scale", config.cache_scale);
  c.field("prefetchers", config.prefetchers);
  c.object("tlb", canon_of(config.tlb));
  c.field("timer.rdtscp_cost",
          static_cast<std::uint64_t>(config.timer.rdtscp_cost));
  c.field("timer.cpuid_cost",
          static_cast<std::uint64_t>(config.timer.cpuid_cost));
  c.field("dma.per_transfer_overhead",
          static_cast<std::uint64_t>(config.dma.per_transfer_overhead));
  c.field("seed", config.seed);
  return c;
}

static_assert(sizeof(graph::MultiprogConfig) == 288,
              "add the new MultiprogConfig field to canon_of");
Canon canon_of(const graph::MultiprogConfig& config) {
  Canon c;
  c.object("system", canon_of(config.system));
  c.field("rmat_scale", config.rmat_scale);
  c.field("edge_count", static_cast<std::uint64_t>(config.edge_count));
  c.field("graph_seed", config.graph_seed);
  return c;
}

static_assert(sizeof(fault::FaultConfig) == 40,
              "add the new FaultConfig field to canon_of");
Canon canon_of(const fault::FaultConfig& config) {
  Canon c;
  c.field("kind", to_string(config.kind));
  c.field("probability", config.probability);
  c.field("magnitude", static_cast<std::uint64_t>(config.magnitude));
  c.field("window_begin", static_cast<std::uint64_t>(config.window_begin));
  c.field("window_end", static_cast<std::uint64_t>(config.window_end));
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
