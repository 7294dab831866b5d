// Deterministic, seedable pseudo-random generators.
//
// SplitMix64 seeds Xoshiro256**, the workhorse generator for share randomization,
// oblivious shuffles, and workload synthesis. Determinism matters: every test and bench
// in this repo is reproducible from its seed.
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

// Counter-based generator: word `index` of stream `stream` is a pure function of
// (seed, stream, index) — SplitMix64's finalizer over a per-stream base. Unlike the
// sequential generators below, any subset of a stream can be evaluated in any order
// (or in parallel) and still produce the same words, which is what makes share
// generation embarrassingly parallel while staying bit-identical at every pool size
// (DESIGN.md §5). Consumers claim one stream per logical operation from a sequential
// counter and index words within it.
// SplitMix64's output finalizer: a bijective avalanche over the counter word.
// Shared by CounterRng and AesCounterRng's counter-base derivation.
inline uint64_t SplitMixFinalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class CounterRng {
 public:
  CounterRng() = default;
  CounterRng(uint64_t seed, uint64_t stream)
      : base_(Mix(seed ^ Mix(stream ^ 0x6a09e667f3bcc909ULL))) {}

  uint64_t At(uint64_t index) const {
    return Mix(base_ + (index + 1) * 0x9e3779b97f4a7c15ULL);
  }

 private:
  static uint64_t Mix(uint64_t z) { return SplitMixFinalize(z); }

  uint64_t base_ = 0;
};

// AES-backed counter generator with the same (seed, stream, index) addressing
// and purity contract as CounterRng, but the word at `index` is a half of
// AES-128(fixed key, base + (index >> 1)) — batched through AES-NI on hardware
// that has it (common/cpu.{h,cc}), a bit-identical portable AES otherwise.
// The MPC data plane draws its share randomness here; the raw share bits
// therefore differ from the SplitMix CounterRng era, but everything derived
// from *reconstructed* values (relations, virtual clocks, counters) is
// unchanged because shares stay uniform masks that cancel on reconstruction
// (DESIGN.md §13). FillWords/FillBlocksSplit are the batched hot paths:
// FillBlocksSplit writes element i's two mask words (2i, 2i+1 — the two halves
// of block i) directly into split r0/r1 arrays, which is exactly the
// share-generation access pattern.
class AesCounterRng {
 public:
  AesCounterRng() = default;
  AesCounterRng(uint64_t seed, uint64_t stream)
      : base_lo_(SplitMixFinalize(
            seed ^ SplitMixFinalize(stream ^ 0x6a09e667f3bcc909ULL))),
        base_hi_(SplitMixFinalize(
            seed ^ SplitMixFinalize(stream ^ 0xbb67ae8584caa73bULL))) {}

  // Word `index` of the stream (pure; any order, any subset).
  uint64_t At(uint64_t index) const;

  // Words [first_word, first_word + n) into out.
  void FillWords(uint64_t first_word, size_t n, uint64_t* out) const;

  // Blocks [first_block, first_block + n) deinterleaved: even words (lo
  // halves) to lo_out, odd words (hi halves) to hi_out.
  void FillBlocksSplit(uint64_t first_block, size_t n, uint64_t* lo_out,
                       uint64_t* hi_out) const;

 private:
  uint64_t base_lo_ = 0;
  uint64_t base_hi_ = 0;
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
