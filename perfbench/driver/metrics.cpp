#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

/// Shortest round-trip decimal form of `v`.
std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("metric value is not finite");
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::has(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double MetricSet::value(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("no metric " + std::string(name));
}

std::string MetricSet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string MetricSet::text(std::string_view indent) const {
  std::string out;
  char buf[256];
  for (const Entry& e : entries_) {
    std::snprintf(buf, sizeof buf, "%.*s%-36s %14.6g %s\n",
                  static_cast<int>(indent.size()), indent.data(),
                  e.name.c_str(), e.value, e.unit.c_str());
    out += buf;
  }
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  const double hi = samples[n / 2];
  if (n % 2 == 1) return hi;
  const double lo =
      *std::max_element(samples.begin(), samples.begin() + n / 2);
  return (lo + hi) / 2.0;
}

namespace {

/// One kernel run: about 1 ms on an unloaded core of the baseline host.
constexpr int kReferenceIterations = 125000;

}  // namespace

HostSpeed::HostSpeed()
    : table_(std::size_t{1} << 16), last_(Clock::now() - kInterval) {
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::uint32_t& v : table_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::uint32_t>(x);
  }
}

void HostSpeed::maybe_sample() {
  if (Clock::now() - last_ < kInterval) return;
  const Clock::time_point t0 = Clock::now();
  // Integer work shaped like the simulator's: two generator streams,
  // dependent loads and stores into a 256 KiB (L2-sized) table, and a
  // branch on loaded data that the predictor cannot learn. The amount of
  // work is the same on every run; only the outcomes of the branch vary.
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t s0 = samples_.size() + 1;
  std::uint64_t s1 = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < kReferenceIterations; ++i) {
    s0 = s0 * 6364136223846793005ull + 1442695040888963407ull;
    s1 ^= s1 << 13;
    s1 ^= s1 >> 7;
    s1 ^= s1 << 17;
    const std::uint32_t t = table_[(s0 >> 40) & mask];
    if ((t & 1) != 0) {
      acc += t;
    } else {
      acc ^= s1;
    }
    table_[(s1 >> 40) & mask] += static_cast<std::uint32_t>(acc);
  }
  sink_ += acc;
  last_ = Clock::now();
  samples_.push_back(std::chrono::duration<double>(last_ - t0).count());
}

double HostSpeed::slowdown() const {
  if (samples_.empty()) return 1.0;
  return percentile(samples_, CallTimes::kCellPercentile) / kCalmSeconds;
}

void CallTimes::add(std::size_t input, std::size_t call, double seconds) {
  cells_[{input, call}].push_back(seconds);
  if (host_ != nullptr) host_->maybe_sample();
}

double CallTimes::pass_s() const {
  double sum = 0.0;
  std::set<std::size_t> inputs;
  for (const auto& [cell, samples] : cells_) {
    sum += percentile(samples, kCellPercentile);
    inputs.insert(cell.first);
  }
  return inputs.empty() ? 0.0 : sum / static_cast<double>(inputs.size());
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[idx];
}

Tail tail_of(const std::vector<double>& samples) {
  Tail t;
  t.samples = samples.size();
  const double n = static_cast<double>(samples.size());
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (n * (1.0 - p / 100.0) >= 10.0) t.pct = p;
  }
  t.value = percentile(samples, t.pct);
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  return add(static_cast<std::uint64_t>(bytes.size()));
}

bool Verifier::load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string id;
  std::string hex;
  while (in >> id >> hex) {
    reference_[id] = std::stoull(hex, nullptr, 16);
  }
  has_reference_ = true;
  return true;
}

bool Verifier::write_reference(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[32];
  for (const auto& [id, digest] : seen_) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    out << id << ' ' << buf << '\n';
  }
  return static_cast<bool>(out);
}

void Verifier::record(const std::string& id, std::uint64_t digest,
                      std::uint64_t ops, bool ok) {
  attempted_ += ops;
  std::string reason;
  if (!ok) reason = "invariant violated";
  const auto [it, first] = seen_.emplace(id, digest);
  if (!first && it->second != digest) {
    reason = "differs from an earlier run of the same input";
  }
  if (has_reference_) {
    const auto ref = reference_.find(id);
    if (ref == reference_.end()) {
      reason = "missing from the reference";
    } else if (ref->second != digest) {
      reason = "digest differs from the reference";
    }
  }
  if (!reason.empty()) {
    failed_ += ops;
    if (reported_++ < 20) {
      std::cerr << "perfbench: FAILED " << id << ": " << reason << "\n";
    }
  }
}

void Verifier::fail(std::uint64_t ops, const std::string& reason) {
  failed_ = std::min(attempted_, failed_ + ops);
  if (reported_++ < 20) std::cerr << "perfbench: FAILED " << reason << "\n";
}

}  // namespace perfbench
