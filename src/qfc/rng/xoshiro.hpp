#pragma once

/// \file xoshiro.hpp
/// xoshiro256++ pseudo-random generator (Blackman & Vigna). Deterministic,
/// fast, and UniformRandomBitGenerator-compatible so it plugs into <random>
/// if ever needed. Every stochastic routine in the library takes one of
/// these explicitly — no hidden global state.

#include <array>
#include <cstdint>

namespace qfc::rng {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64, per
  /// the reference implementation's recommendation.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      // SplitMix64 step.
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded integers would be overkill here;
    // simple rejection keeps the distribution exactly uniform.
    const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Independent child stream (for per-channel simulations): reseeds from
  /// the parent's next output mixed with a stream index.
  Xoshiro256 fork(std::uint64_t stream) {
    return Xoshiro256((*this)() ^ (0xA0761D6478BD642FULL * (stream + 1)));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace qfc::rng
