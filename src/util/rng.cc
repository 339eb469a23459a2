#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace govdns::util {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashString(std::string_view s, uint64_t seed) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return SplitMix64(h);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

Rng Rng::Fork(std::string_view stream_name) const {
  return Rng(HashString(stream_name, seed_));
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformU64(uint64_t bound) {
  GOVDNS_CHECK(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  GOVDNS_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full range
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * Gaussian());
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  GOVDNS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    GOVDNS_CHECK(w >= 0.0);
    total += w;
  }
  GOVDNS_CHECK(total > 0.0);
  double target = UniformDouble() * total;
  double run = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    run += weights[i];
    if (run >= target) return i;
  }
  return weights.size() - 1;
}

ZipfTable::ZipfTable(uint64_t n, double s) {
  GOVDNS_CHECK(n > 0);
  GOVDNS_CHECK(s > 0.0);
  running_sum_.reserve(n);
  double run = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    run += 1.0 / std::pow(double(k), s);
    running_sum_.push_back(run);
  }
}

uint64_t ZipfTable::Draw(Rng& rng) const {
  if (running_sum_.size() == 1) return 1;
  const double target = rng.UniformDouble() * running_sum_.back();
  const auto it =
      std::lower_bound(running_sum_.begin(), running_sum_.end(), target);
  if (it == running_sum_.end()) return n();
  return static_cast<uint64_t>(it - running_sum_.begin()) + 1;
}

}  // namespace govdns::util
