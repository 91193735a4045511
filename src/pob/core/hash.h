// The one 64-bit mixing function: splitmix64 (Steele, Lea & Flood). Seed
// expansion (Rng), trial-seed derivation and every open-addressed table in
// the repo hash through it, so digests depend on exactly one definition.

#pragma once

#include <cstdint>

namespace pob {

/// splitmix64's increment (2^64 / golden ratio, odd).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// One splitmix64 step from state `x`: the finalizer of x + gamma. Good
/// avalanche for open-addressed probing. Inline: the scale engine calls it
/// per (tick, node) and per admitted intent.
inline std::uint64_t mix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace pob
