#include "obs/snapshot.hpp"

#include <cstdio>

namespace impact::obs {

std::uint64_t Snapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it != counters.end() ? it->second : 0;
}

double Snapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(std::string(name));
  return it != gauges.end() ? it->second : 0.0;
}

const util::Histogram* Snapshot::dist(std::string_view name) const {
  const auto it = dists.find(std::string(name));
  return it != dists.end() ? &it->second : nullptr;
}

void Snapshot::merge(const Snapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  gauges.clear();
  for (const auto& [name, hist] : other.dists) {
    const auto it = dists.find(name);
    if (it == dists.end()) {
      dists.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

Snapshot Snapshot::diff(const Snapshot& earlier) const {
  Snapshot out;
  for (const auto& [name, v] : counters) {
    const std::uint64_t before = earlier.counter(name);
    out.counters[name] = v >= before ? v - before : 0;
  }
  for (const auto& [name, v] : gauges) {
    out.gauges[name] = v - earlier.gauge(name);
  }
  out.dists = dists;
  return out;
}

std::string Snapshot::table(std::string_view indent) const {
  std::string out;
  char line[192];
  const std::string pad(indent);
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof line, "%s%-34s %12llu\n", pad.c_str(),
                  name.c_str(), static_cast<unsigned long long>(v));
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof line, "%s%-34s %12.3f\n", pad.c_str(),
                  name.c_str(), v);
    out += line;
  }
  return out;
}

}  // namespace impact::obs
