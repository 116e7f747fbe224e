#include "store/record.hpp"

#include <bit>
#include <cstdio>
#include <vector>

namespace impact::store {

namespace {

// --- Primitive writers (byte-stable by construction) --------------------

void put_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%llu",
                              static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

void put_double(std::string& out, double v) {
  // IEEE-754 bit pattern in hex: doubles round-trip exactly.
  char buf[20];
  const int n = std::snprintf(
      buf, sizeof(buf), "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  out.append(buf, static_cast<std::size_t>(n));
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.push_back(':');
  out.append(s);
}

// --- Primitive readers (strict: any deviation fails the whole parse) ----

struct Reader {
  std::string_view in;
  bool ok = true;

  bool literal(std::string_view expect) {
    if (!ok || in.substr(0, expect.size()) != expect) return fail();
    in.remove_prefix(expect.size());
    return true;
  }

  /// A decimal in put_u64's form: no leading zero, no overflow.
  std::uint64_t u64() {
    if (!ok) return 0;
    std::uint64_t v = 0;
    std::size_t i = 0;
    while (i < in.size() && in[i] >= '0' && in[i] <= '9') {
      const auto digit = static_cast<std::uint64_t>(in[i] - '0');
      if (v > (~0ull - digit) / 10) {
        fail();
        return 0;
      }
      v = v * 10 + digit;
      ++i;
    }
    if (i == 0 || (i > 1 && in[0] == '0')) {
      fail();
      return 0;
    }
    in.remove_prefix(i);
    return v;
  }

  double f64() {
    if (!ok) return 0.0;
    if (in.size() < 16) {
      fail();
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 16; ++i) {
      const char c = in[static_cast<std::size_t>(i)];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a') + 10;
      } else {
        fail();
        return 0.0;
      }
      bits = (bits << 4) | digit;
    }
    in.remove_prefix(16);
    return std::bit_cast<double>(bits);
  }

  std::string str() {
    const std::uint64_t n = u64();
    if (!literal(":") || in.size() < n) {
      fail();
      return {};
    }
    std::string s(in.substr(0, n));
    in.remove_prefix(n);
    return s;
  }

  /// serialize() writes each section's names in map order, so a name
  /// that does not sort after the section's previous one is rejected.
  template <typename Map>
  std::string key_after(const Map& section) {
    std::string name = str();
    if (ok && !section.empty() && !(section.rbegin()->first < name)) fail();
    return name;
  }

  bool fail() {
    ok = false;
    return false;
  }
};

constexpr std::string_view kMagic = "impact-store 1\n";

}  // namespace

std::string serialize(const Record& record) {
  std::string out;
  out += kMagic;
  out += "fp ";
  out += record.fp.hex();
  out += "\nlabel ";
  put_str(out, record.label);
  out += "\npayload ";
  put_str(out, record.payload);
  out += "\ncounters ";
  put_u64(out, record.snapshot.counters.size());
  out.push_back('\n');
  for (const auto& [name, value] : record.snapshot.counters) {
    out += "c ";
    put_str(out, name);
    out.push_back(' ');
    put_u64(out, value);
    out.push_back('\n');
  }
  out += "gauges ";
  put_u64(out, record.snapshot.gauges.size());
  out.push_back('\n');
  for (const auto& [name, value] : record.snapshot.gauges) {
    out += "g ";
    put_str(out, name);
    out.push_back(' ');
    put_double(out, value);
    out.push_back('\n');
  }
  out += "dists ";
  put_u64(out, record.snapshot.dists.size());
  out.push_back('\n');
  for (const auto& [name, hist] : record.snapshot.dists) {
    out += "d ";
    put_str(out, name);
    out.push_back(' ');
    put_double(out, hist.lo());
    out.push_back(' ');
    put_double(out, hist.hi());
    out.push_back(' ');
    put_u64(out, hist.bin_count());
    out.push_back(' ');
    put_u64(out, hist.underflow());
    out.push_back(' ');
    put_u64(out, hist.overflow());
    for (std::size_t i = 0; i < hist.bin_count(); ++i) {
      out.push_back(' ');
      put_u64(out, hist.bin(i));
    }
    out.push_back('\n');
  }
  out += "end\n";
  return out;
}

std::optional<Record> parse(std::string_view bytes) {
  Reader r{bytes};
  Record rec;
  if (!r.literal(kMagic) || !r.literal("fp ")) return std::nullopt;
  if (r.in.size() < 32 ||
      !Fingerprint::from_hex(r.in.substr(0, 32), &rec.fp)) {
    return std::nullopt;
  }
  r.in.remove_prefix(32);
  r.literal("\nlabel ");
  rec.label = r.str();
  r.literal("\npayload ");
  rec.payload = r.str();
  r.literal("\ncounters ");
  const std::uint64_t n_counters = r.u64();
  r.literal("\n");
  for (std::uint64_t i = 0; r.ok && i < n_counters; ++i) {
    r.literal("c ");
    std::string name = r.key_after(rec.snapshot.counters);
    r.literal(" ");
    const std::uint64_t value = r.u64();
    r.literal("\n");
    if (r.ok) rec.snapshot.counters.emplace(std::move(name), value);
  }
  r.literal("gauges ");
  const std::uint64_t n_gauges = r.u64();
  r.literal("\n");
  for (std::uint64_t i = 0; r.ok && i < n_gauges; ++i) {
    r.literal("g ");
    std::string name = r.key_after(rec.snapshot.gauges);
    r.literal(" ");
    const double value = r.f64();
    r.literal("\n");
    if (r.ok) rec.snapshot.gauges.emplace(std::move(name), value);
  }
  r.literal("dists ");
  const std::uint64_t n_dists = r.u64();
  r.literal("\n");
  for (std::uint64_t i = 0; r.ok && i < n_dists; ++i) {
    r.literal("d ");
    std::string name = r.key_after(rec.snapshot.dists);
    r.literal(" ");
    const double lo = r.f64();
    r.literal(" ");
    const double hi = r.f64();
    r.literal(" ");
    const std::uint64_t bins = r.u64();
    r.literal(" ");
    const std::uint64_t underflow = r.u64();
    r.literal(" ");
    const std::uint64_t overflow = r.u64();
    // Each bin takes at least two bytes (" 0"), which bounds the
    // allocation by the input's size.
    if (!r.ok || bins == 0 || bins > r.in.size() / 2 || !(hi > lo)) {
      return std::nullopt;
    }
    std::vector<std::size_t> counts(bins, 0);
    for (std::uint64_t b = 0; r.ok && b < bins; ++b) {
      r.literal(" ");
      counts[b] = r.u64();
    }
    r.literal("\n");
    if (r.ok) {
      rec.snapshot.dists.emplace(
          std::move(name),
          util::Histogram::from_parts(lo, hi, std::move(counts), underflow,
                                      overflow));
    }
  }
  if (!r.literal("end\n") || !r.in.empty()) return std::nullopt;
  return rec;
}

std::string encode(const graph::RunStats& stats) {
  std::string out = "runstats ";
  put_u64(out, stats.cycles);
  out.push_back(' ');
  put_u64(out, stats.instructions);
  out.push_back(' ');
  put_u64(out, stats.accesses);
  out.push_back(' ');
  put_u64(out, stats.llc_misses);
  out.push_back(' ');
  put_double(out, stats.row_hit_rate);
  return out;
}

std::optional<graph::RunStats> decode_run_stats(std::string_view payload) {
  Reader r{payload};
  graph::RunStats stats;
  r.literal("runstats ");
  stats.cycles = r.u64();
  r.literal(" ");
  stats.instructions = r.u64();
  r.literal(" ");
  stats.accesses = r.u64();
  r.literal(" ");
  stats.llc_misses = r.u64();
  r.literal(" ");
  stats.row_hit_rate = r.f64();
  if (!r.ok || !r.in.empty()) return std::nullopt;
  return stats;
}

std::string encode_row(const std::vector<std::string>& row) {
  std::string out = "row ";
  put_u64(out, row.size());
  for (const std::string& cell : row) {
    out.push_back(' ');
    put_str(out, cell);
  }
  return out;
}

std::optional<std::vector<std::string>> decode_row(std::string_view payload) {
  Reader r{payload};
  r.literal("row ");
  const std::uint64_t n = r.u64();
  if (!r.ok || n > (1ull << 20)) return std::nullopt;
  std::vector<std::string> row;
  row.reserve(n);
  for (std::uint64_t i = 0; r.ok && i < n; ++i) {
    r.literal(" ");
    row.push_back(r.str());
  }
  if (!r.ok || !r.in.empty()) return std::nullopt;
  return row;
}

}  // namespace impact::store
