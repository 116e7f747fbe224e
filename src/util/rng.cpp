#include "util/rng.hpp"

#include <cmath>

namespace impact::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Xoshiro256::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  have_spare_normal_ = false;
}

std::int64_t Xoshiro256::range(std::int64_t lo, std::int64_t hi) {
  check(lo <= hi, "Xoshiro256::range requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Xoshiro256::uniform() {
  // 53 high-quality bits into the mantissa.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

}  // namespace impact::util
