// Deterministic random number generation.
//
// Every stochastic decision in the simulator flows through Rng, seeded from
// the world configuration, so a given seed reproduces a byte-identical world.
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded via
// SplitMix64 as its authors recommend.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace govdns::util {

// SplitMix64 step; also useful as a cheap stateless hash/mixer.
uint64_t SplitMix64(uint64_t& state);

// Mixes a string into a 64-bit value (FNV-1a followed by a SplitMix64 round).
// Used to derive independent sub-streams from stable names.
uint64_t HashString(std::string_view s, uint64_t seed = 0);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Derives an independent generator for a named sub-stream. Deriving by a
  // stable name (e.g. a country code) keeps unrelated parts of world
  // generation independent of each other's draw counts.
  Rng Fork(std::string_view stream_name) const;

  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling, so
  // the result is exactly uniform.
  uint64_t UniformU64(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double UniformDouble();

  bool Bernoulli(double p);

  // Approximately log-normally distributed positive double.
  double LogNormal(double mu, double sigma);

  // Standard normal via Box-Muller (no cached spare: deterministic stream).
  double Gaussian();

  // Picks an index in [0, weights.size()) proportionally to weights.
  // Total weight must be positive.
  size_t WeightedIndex(const std::vector<double>& weights);

  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    GOVDNS_CHECK(!v.empty());
    return v[UniformU64(v.size())];
  }

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformU64(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  uint64_t s_[4];
};

// Zipf-distributed ranks in [1, n] with exponent s > 0: heavy-tailed
// popularity (which national hosting company a domain picks) comes from
// this. The table holds the running sums of 1/k^s, added in rank order, so
// a draw is one UniformDouble() scaled by their total and a binary search
// for the first rank whose running sum reaches it. n == 1 draws nothing.
class ZipfTable {
 public:
  ZipfTable(uint64_t n, double s);

  uint64_t Draw(Rng& rng) const;

  uint64_t n() const { return running_sum_.size(); }

 private:
  std::vector<double> running_sum_;  // [k - 1]: sum of 1/j^s for j <= k
};

}  // namespace govdns::util
