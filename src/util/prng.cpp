#include "util/prng.hpp"

#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace gnnerator::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Prng::Prng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& lane : state_) {
    lane = splitmix64(s);
  }
}

std::uint64_t Prng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Prng::uniform_u64(std::uint64_t bound) {
  GNNERATOR_CHECK(bound != 0);
  // Rejection sampling on the top bits: unbiased for any bound.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Prng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Prng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Prng::normal() {
  // Box-Muller; discard the spare so the stream advances by exactly two
  // draws per call regardless of history.
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Prng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Prng::bernoulli(double p) { return uniform() < p; }

std::size_t Prng::weighted_index(const std::vector<double>& weights) {
  GNNERATOR_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    GNNERATOR_CHECK_MSG(w >= 0.0, "negative weight " << w);
    total += w;
  }
  GNNERATOR_CHECK(total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;  // floating-point edge: fall into the last bucket
}

std::vector<std::uint32_t> Prng::permutation(std::uint32_t n) {
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    p[i] = i;
  }
  for (std::uint32_t i = n; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(uniform_u64(i));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

Prng Prng::fork(std::uint64_t stream_id) {
  return Prng(next_u64() ^ (stream_id * 0xD2B74407B1CE6E93ULL + 0x8BB84B93962EACC9ULL));
}

}  // namespace gnnerator::util
