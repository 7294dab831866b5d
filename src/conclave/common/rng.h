// Deterministic, seedable pseudo-random generators.
//
// SplitMix64 seeds Xoshiro256**, the sequential generator for oblivious shuffles and
// workload synthesis; CounterRng addresses its words by (seed, stream, index) for
// share randomness and fault schedules. Determinism matters: every test and bench in
// this repo is reproducible from its seed.
#ifndef CONCLAVE_COMMON_RNG_H_
#define CONCLAVE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>

#include "conclave/common/check.h"

namespace conclave {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// One SplitMix64 absorption step: folds `value` into the running hash `h`. The
// single definition behind every multi-word key hash in the repo, so every key
// map hashes a key tuple identically.
inline uint64_t HashChainStep(uint64_t h, uint64_t value) {
  uint64_t z = value + 0x9e3779b97f4a7c15ULL + h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline constexpr uint64_t kHashChainSeed = 0x9e3779b97f4a7c15ULL;

// SplitMix64's output finalizer: a bijective avalanche over a 64-bit word.
inline uint64_t SplitMixFinalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Counter-based generator: word `index` of stream `stream` is a pure function of
// (seed, stream, index) — SplitMix64's finalizer over a per-stream base. Unlike the
// sequential generators, any subset of a stream can be evaluated in any order (or
// in parallel) and still produce the same words, which is what makes share
// generation embarrassingly parallel while staying bit-identical at every pool size
// (DESIGN.md §5). Consumers claim one stream per logical operation from a
// sequential counter and index words within it. It is the one generator behind the
// MPC plane's masks and Beaver triples and the fault plan's schedules.
class CounterRng {
 public:
  CounterRng() = default;
  CounterRng(uint64_t seed, uint64_t stream)
      : base_(SplitMixFinalize(seed ^
                               SplitMixFinalize(stream ^ 0x6a09e667f3bcc909ULL))) {}

  uint64_t At(uint64_t index) const {
    return SplitMixFinalize(base_ + (index + 1) * 0x9e3779b97f4a7c15ULL);
  }

  // The two mask words of elements [first, first + n), split: even[i] = At(2e) and
  // odd[i] = At(2e + 1) for element e = first + i — how a sharing lays out its
  // first two shares.
  void FillPairs(uint64_t first, size_t n, uint64_t* even, uint64_t* odd) const {
    for (size_t i = 0; i < n; ++i) {
      even[i] = At(2 * (first + i));
      odd[i] = At(2 * (first + i) + 1);
    }
  }

 private:
  uint64_t base_ = 0;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    SplitMix64 mixer(seed);
    for (auto& word : state_) {
      word = mixer.Next();
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be positive.
  uint64_t NextBelow(uint64_t bound) {
    CONCLAVE_CHECK_GT(bound, 0u);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const uint64_t candidate = Next();
      if (candidate >= threshold) {
        return candidate % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    CONCLAVE_CHECK_LE(lo, hi);
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (span == 0) {  // Full 64-bit range.
      return static_cast<int64_t>(Next());
    }
    return lo + static_cast<int64_t>(NextBelow(span));
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  bool NextBool() { return (Next() & 1) != 0; }

  // UniformRandomBitGenerator interface, so Rng plugs into <algorithm> (std::shuffle).
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return Next(); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace conclave

#endif  // CONCLAVE_COMMON_RNG_H_
