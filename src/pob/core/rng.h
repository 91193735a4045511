// Deterministic, splittable random number generator.
//
// Experiments must be reproducible across platforms and standard-library
// versions, so we implement xoshiro256** (Blackman & Vigna) directly instead
// of relying on std:: distributions, whose outputs are not portable.

#pragma once

#include <array>
#include <cstdint>

#include "pob/core/hash.h"

namespace pob {

/// Small, fast, deterministic PRNG (xoshiro256**), seeded via splitmix64.
///
/// Not cryptographically secure; intended for simulation only. Copyable:
/// copies continue the same stream independently.
class Rng {
 public:
  /// Seeds the generator. Two generators with different seeds produce
  /// independent-looking streams; the all-zero state is impossible because
  /// splitmix64 never maps a seed to four zero words.
  ///
  /// Construction, next() and below() are defined inline: the scale
  /// engine's generate phase seeds a fresh stream and draws from it for
  /// every (tick, node) pair — hundreds of millions of times per run — and
  /// an out-of-line call per draw was measurable there.
  explicit Rng(std::uint64_t seed = kSplitmixGamma) {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix(s);
  }

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() {
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

  /// Uniform integer in [0, bound). `bound` must be nonzero. Uses rejection
  /// sampling (Lemire-style) so results are exactly uniform.
  std::uint32_t below(std::uint32_t bound) {
    // Lemire's multiply-shift with rejection for exact uniformity.
    std::uint64_t x = next() & 0xffffffffULL;
    std::uint64_t m = x * bound;
    auto low = static_cast<std::uint32_t>(m);
    if (low < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (low < threshold) {
        x = next() & 0xffffffffULL;
        m = x * bound;
        low = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  std::uint32_t range(std::uint32_t lo, std::uint32_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// True with probability `p` (clamped to [0,1]).
  bool chance(double p);

  /// Derives an independent generator for a sub-task. Streams derived with
  /// different `stream` values from the same parent are independent, and
  /// deriving does not perturb the parent's own stream.
  [[nodiscard]] Rng split(std::uint64_t stream) const;

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) {
    using std::size;
    const auto n = static_cast<std::uint32_t>(size(c));
    for (std::uint32_t i = n; i > 1; --i) {
      const std::uint32_t j = below(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  /// splitmix64: used to expand a 64-bit seed into xoshiro state.
  static std::uint64_t splitmix(std::uint64_t& x) {
    const std::uint64_t z = mix64(x);
    x += kSplitmixGamma;
    return z;
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace pob
