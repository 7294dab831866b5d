#include "conclave/common/cpu.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "conclave/common/env.h"
#include "conclave/common/rng.h"

#if defined(__x86_64__) || defined(__i386__)
#define CONCLAVE_X86 1
#include <immintrin.h>
#endif

namespace conclave {
namespace cpu {

// --- Dispatch state ---------------------------------------------------------

namespace {

int InitSimdKnobFromEnv() {
  return env::BoolKnob("CONCLAVE_SIMD", /*fallback=*/true) ? 1 : 0;
}

std::atomic<int>& SimdKnob() {
  static std::atomic<int> knob(InitSimdKnobFromEnv());
  return knob;
}

}  // namespace

bool HardwareAvx2() {
#if defined(CONCLAVE_X86)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

bool HardwareAes() {
#if defined(CONCLAVE_X86)
  static const bool supported = __builtin_cpu_supports("aes") != 0 &&
                                __builtin_cpu_supports("sse4.1") != 0;
  return supported;
#else
  return false;
#endif
}

bool SimdEnabled() { return SimdKnob().load(std::memory_order_relaxed) != 0; }

void SetSimdEnabled(bool enabled) {
  SimdKnob().store(enabled ? 1 : 0, std::memory_order_relaxed);
}

const char* SimdLevelName() { return UsingAvx2() ? "avx2" : "scalar"; }

// --- One loop per kernel, compiled twice ------------------------------------
//
// Each kernel is written once, as the portable loop inside its public function
// below, and handed to Dispatch as a lambda. Dispatch runs the lambda either as
// compiled for the build's baseline ISA or through Avx2Clone, a
// target("avx2") function whose `flatten` attribute inlines the whole loop into
// it, so the compiler vectorizes the same source with 256-bit lanes
// (CMakeLists.txt gives this file -fvect-cost-model=dynamic so that -O2
// vectorizes as -O3 does). All int64 arithmetic goes through uint64, so
// overflow wraps by definition (UBSan-clean, the two's-complement bits of the
// ring) and a vectorized loop cannot compute other bits than the scalar one;
// reductions are wrap sums, min/max and OR, whose lane order cannot change the
// result either.

namespace {

#if defined(CONCLAVE_X86)
template <typename Loop>
__attribute__((target("avx2"), flatten, noinline)) auto Avx2Clone(Loop loop) {
  return loop();
}
#endif

template <typename Loop>
auto Dispatch(Loop loop) {
#if defined(CONCLAVE_X86)
  if (UsingAvx2()) {
    return Avx2Clone(loop);
  }
#endif
  return loop();
}

// The literal operand as a column: every row reads the same value.
struct Broadcast {
  int64_t value;
  int64_t operator[](size_t) const { return value; }
};

// Calls loop(rhs) with the right operand as the rhs column or, when rhs is
// null, as the broadcast literal, so the null test stays outside the loop.
template <typename Loop>
auto WithRhs(const int64_t* rhs, int64_t literal, const Loop& loop) {
  if (rhs != nullptr) {
    return loop(rhs);
  }
  return loop(Broadcast{literal});
}

// Calls loop(cmp) with op as a comparison functor, so the operator's switch
// stays outside the loop and each operator's loop vectorizes on its own.
template <typename Loop>
auto WithCompare(Cmp op, const Loop& loop) {
  switch (op) {
    case Cmp::kEq:
      return loop(std::equal_to<int64_t>());
    case Cmp::kNe:
      return loop(std::not_equal_to<int64_t>());
    case Cmp::kLt:
      return loop(std::less<int64_t>());
    case Cmp::kLe:
      return loop(std::less_equal<int64_t>());
    case Cmp::kGt:
      return loop(std::greater<int64_t>());
    case Cmp::kGe:
      break;
  }
  return loop(std::greater_equal<int64_t>());
}

// The engine's truncating-division rule over uint64 bit patterns (no SIMD
// unit divides 64-bit lanes, so this one stays scalar): divisor 0 -> 0; the
// lhs * scale product wraps; divisor -1 is wrap-negation, so INT64_MIN / -1 is
// defined (and equal to what non-trapping hardware division produces).
struct DivRule {
  uint64_t scale;
  uint64_t operator()(uint64_t lhs, uint64_t divisor) const {
    if (divisor == 0) {
      return 0;
    }
    const uint64_t prod = lhs * scale;
    if (divisor == ~uint64_t{0}) {
      return uint64_t{0} - prod;
    }
    return static_cast<uint64_t>(static_cast<int64_t>(prod) /
                                 static_cast<int64_t>(divisor));
  }
};

}  // namespace

// Compaction, scalar in both builds. A branch per row would mispredict on a
// large share of rows at mid selectivities, so each row instead writes its
// index to the next free slot and claims the slot only if it matches. That
// slot is at most i < n, so out may hold exactly n indices.
size_t SelectCompare(Cmp op, const int64_t* lhs, const int64_t* rhs,
                     int64_t literal, int64_t base, size_t n, int64_t* out) {
  return Dispatch([=] {
    return WithRhs(rhs, literal, [&](auto b) {
      return WithCompare(op, [&](auto cmp) {
        size_t count = 0;
        for (size_t i = 0; i < n; ++i) {
          out[count] = base + static_cast<int64_t>(i);
          count += cmp(lhs[i], b[i]) ? 1 : 0;
        }
        return count;
      });
    });
  });
}

void CompareMask(Cmp op, const int64_t* lhs, const int64_t* rhs,
                 int64_t literal, size_t n, MaskMode mode, uint8_t* mask) {
  Dispatch([=] {
    WithRhs(rhs, literal, [&](auto b) {
      WithCompare(op, [&](auto cmp) {
        // combine(current byte, new 0/1 bit) is the byte the mode stores.
        const auto loop = [&](auto combine) {
          for (size_t i = 0; i < n; ++i) {
            mask[i] = combine(mask[i], cmp(lhs[i], b[i]) ? 1 : 0);
          }
        };
        switch (mode) {
          case MaskMode::kSet:
            return loop([](uint8_t, uint8_t bit) { return bit; });
          case MaskMode::kAnd:
            return loop(std::bit_and<uint8_t>());
          case MaskMode::kOr:
            return loop(std::bit_or<uint8_t>());
        }
      });
    });
  });
}

size_t CountMask(const uint8_t* mask, size_t n) {
  return Dispatch([=] {
    // 32-bit partial sums take half the vector work of a size_t sum; a chunk
    // of 2^31 0/1 bytes cannot overflow one.
    constexpr size_t kChunk = size_t{1} << 31;
    size_t count = 0;
    for (size_t lo = 0; lo < n; lo += kChunk) {
      const size_t hi = n - lo < kChunk ? n : lo + kChunk;
      uint32_t part = 0;
      for (size_t i = lo; i < hi; ++i) {
        part += mask[i];
      }
      count += part;
    }
    return count;
  });
}

// Branch-free compaction like SelectCompare's, but out may hold only the
// match count: a row past the last set byte would store one slot beyond it,
// so the loop ends at that byte. Scalar in both builds.
size_t MaskToIndices(const uint8_t* mask, size_t n, int64_t base,
                     int64_t* out) {
  return Dispatch([=] {
    size_t end = n;
    while (end > 0 && mask[end - 1] == 0) {
      --end;
    }
    size_t count = 0;
    for (size_t i = 0; i < end; ++i) {
      out[count] = base + static_cast<int64_t>(i);
      count += mask[i] != 0 ? 1 : 0;
    }
    return count;
  });
}

void ArithColumn(Arith op, const int64_t* lhs, const int64_t* rhs,
                 int64_t literal, int64_t scale, size_t n, int64_t* out) {
  Dispatch([=] {
    WithRhs(rhs, literal, [&](auto b) {
      const auto loop = [&](auto fn) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = static_cast<int64_t>(fn(static_cast<uint64_t>(lhs[i]),
                                           static_cast<uint64_t>(b[i])));
        }
      };
      switch (op) {
        case Arith::kAdd:
          return loop(std::plus<uint64_t>());
        case Arith::kSub:
          return loop(std::minus<uint64_t>());
        case Arith::kMul:
          return loop(std::multiplies<uint64_t>());
        case Arith::kDiv:
          return loop(DivRule{static_cast<uint64_t>(scale)});
      }
    });
  });
}

// A branch-free OR of every value's difference from the first.
bool AllEqual(const int64_t* v, size_t n) {
  return Dispatch([=] {
    uint64_t differ = 0;
    for (size_t i = 1; i < n; ++i) {
      differ |= static_cast<uint64_t>(v[i]) ^ static_cast<uint64_t>(v[0]);
    }
    return differ == 0;
  });
}

int64_t SumWrap(const int64_t* v, size_t n) {
  return static_cast<int64_t>(SumU64(reinterpret_cast<const uint64_t*>(v), n));
}

int64_t MinOf(const int64_t* v, size_t n) {
  return Dispatch([=] {
    int64_t best = v[0];
    for (size_t i = 1; i < n; ++i) {
      best = v[i] < best ? v[i] : best;
    }
    return best;
  });
}

int64_t MaxOf(const int64_t* v, size_t n) {
  return Dispatch([=] {
    int64_t best = v[0];
    for (size_t i = 1; i < n; ++i) {
      best = v[i] > best ? v[i] : best;
    }
    return best;
  });
}

// A gather; like the compaction loops, it compiles to scalar code in both
// builds.
void GatherI64(const int64_t* src, const int64_t* rows, size_t n,
               int64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = src[rows[i]];
    }
  });
}

void AddU64(const uint64_t* a, const uint64_t* b, size_t n, uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] + b[i];
    }
  });
}

void SubU64(const uint64_t* a, const uint64_t* b, size_t n, uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] - b[i];
    }
  });
}

void SubSubU64(const uint64_t* a, const uint64_t* b, const uint64_t* c,
               size_t n, uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] - b[i] - c[i];
    }
  });
}

void Add3U64(const uint64_t* a, const uint64_t* b, const uint64_t* c, size_t n,
             uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] + b[i] + c[i];
    }
  });
}

void AddConstU64(const uint64_t* a, uint64_t k, size_t n, uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] + k;
    }
  });
}

void MulConstU64(const uint64_t* a, uint64_t k, size_t n, uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] * k;
    }
  });
}

void MaskSubSub(const uint8_t* bits, const uint64_t* r0, const uint64_t* r1,
                size_t n, uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint64_t>(bits[i]) - r0[i] - r1[i];
    }
  });
}

void AccumDiffU64(const uint64_t* a, const uint64_t* t, size_t n,
                  uint64_t* acc) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      acc[i] += a[i] - t[i];
    }
  });
}

void BeaverCombineU64(const uint64_t* tc, const uint64_t* d, const uint64_t* tb,
                      const uint64_t* e, const uint64_t* ta, size_t n,
                      uint64_t* out) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      out[i] = tc[i] + d[i] * tb[i] + e[i] * ta[i];
    }
  });
}

void AccumMulU64(const uint64_t* d, const uint64_t* e, size_t n,
                 uint64_t* acc) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      acc[i] += d[i] * e[i];
    }
  });
}

// A gather: scalar in both builds, like GatherI64.
void GatherRerandCombine(const uint64_t* a0, const uint64_t* a1,
                         const uint64_t* a2, const int64_t* rows, size_t n,
                         uint64_t* o0, uint64_t* o1, uint64_t* o2) {
  Dispatch([=] {
    for (size_t i = 0; i < n; ++i) {
      const size_t row = static_cast<size_t>(rows[i]);
      const uint64_t r0 = o0[i];
      const uint64_t r1 = o1[i];
      o2[i] = a2[row] - r0 - r1;
      o0[i] = a0[row] + r0;
      o1[i] = a1[row] + r1;
    }
  });
}

uint64_t SumU64(const uint64_t* v, size_t n) {
  return Dispatch([=] {
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += v[i];
    }
    return sum;
  });
}

// --- Fixed-key AES-128 ------------------------------------------------------

namespace {

// Nothing-up-my-sleeve fixed key: the first 16 hex digits of pi's fractional
// part. Fixed-key AES as a correlation-robust hash/PRF over a counter is the
// standard garbled-circuit-era construction; secrecy of the key is not needed
// because the counter base is derived from the run's secret seed.
constexpr uint8_t kFixedKey[16] = {0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3,
                                   0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e,
                                   0x03, 0x70, 0x73, 0x44};

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

inline uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

struct RoundKeys {
  uint8_t rk[11][16];
};

RoundKeys ExpandKey(const uint8_t key[16]) {
  RoundKeys keys;
  uint8_t w[176];
  std::memcpy(w, key, 16);
  uint8_t rcon = 1;
  for (int i = 16; i < 176; i += 4) {
    uint8_t t0 = w[i - 4];
    uint8_t t1 = w[i - 3];
    uint8_t t2 = w[i - 2];
    uint8_t t3 = w[i - 1];
    if (i % 16 == 0) {
      const uint8_t rot = t0;
      t0 = static_cast<uint8_t>(kSbox[t1] ^ rcon);
      t1 = kSbox[t2];
      t2 = kSbox[t3];
      t3 = kSbox[rot];
      rcon = Xtime(rcon);
    }
    w[i] = static_cast<uint8_t>(w[i - 16] ^ t0);
    w[i + 1] = static_cast<uint8_t>(w[i - 15] ^ t1);
    w[i + 2] = static_cast<uint8_t>(w[i - 14] ^ t2);
    w[i + 3] = static_cast<uint8_t>(w[i - 13] ^ t3);
  }
  for (int r = 0; r < 11; ++r) {
    std::memcpy(keys.rk[r], w + 16 * r, 16);
  }
  return keys;
}

const RoundKeys& FixedRoundKeys() {
  static const RoundKeys keys = ExpandKey(kFixedKey);
  return keys;
}

void EncryptBlockPortable(const RoundKeys& keys, const uint8_t in[16],
                          uint8_t out[16]) {
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) {
    s[i] = static_cast<uint8_t>(in[i] ^ keys.rk[0][i]);
  }
  for (int round = 1; round <= 10; ++round) {
    // SubBytes + ShiftRows (state is column-major: byte r + 4c is row r,
    // column c; row r rotates left by r columns).
    uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        t[r + 4 * c] = kSbox[s[r + 4 * ((c + r) & 3)]];
      }
    }
    if (round < 10) {
      // MixColumns.
      for (int c = 0; c < 4; ++c) {
        const uint8_t a0 = t[4 * c];
        const uint8_t a1 = t[4 * c + 1];
        const uint8_t a2 = t[4 * c + 2];
        const uint8_t a3 = t[4 * c + 3];
        const uint8_t x = static_cast<uint8_t>(a0 ^ a1 ^ a2 ^ a3);
        t[4 * c] = static_cast<uint8_t>(a0 ^ x ^ Xtime(static_cast<uint8_t>(a0 ^ a1)));
        t[4 * c + 1] =
            static_cast<uint8_t>(a1 ^ x ^ Xtime(static_cast<uint8_t>(a1 ^ a2)));
        t[4 * c + 2] =
            static_cast<uint8_t>(a2 ^ x ^ Xtime(static_cast<uint8_t>(a2 ^ a3)));
        t[4 * c + 3] =
            static_cast<uint8_t>(a3 ^ x ^ Xtime(static_cast<uint8_t>(a3 ^ a0)));
      }
    }
    for (int i = 0; i < 16; ++i) {
      s[i] = static_cast<uint8_t>(t[i] ^ keys.rk[round][i]);
    }
  }
  std::memcpy(out, s, 16);
}

// One counter block (base + index, 128-bit little-endian add) through the
// portable cipher; returns the two 64-bit halves.
inline void AesBlockPortable(uint64_t base_lo, uint64_t base_hi, uint64_t index,
                             uint64_t* lo, uint64_t* hi) {
  const uint64_t ctr_lo = base_lo + index;
  const uint64_t ctr_hi = base_hi + (ctr_lo < base_lo ? 1 : 0);
  uint8_t in[16];
  uint8_t out[16];
  std::memcpy(in, &ctr_lo, 8);
  std::memcpy(in + 8, &ctr_hi, 8);
  EncryptBlockPortable(FixedRoundKeys(), in, out);
  std::memcpy(lo, out, 8);
  std::memcpy(hi, out + 8, 8);
}

#if defined(CONCLAVE_X86)

// Eight-block pipelined AES-NI counter fill: the aesenc chains of the eight
// blocks interleave, hiding the instruction latency.
__attribute__((target("aes,sse4.1"))) void AesFillBlocksSplitNi(
    uint64_t base_lo, uint64_t base_hi, uint64_t first_block, size_t n,
    uint64_t* lo_out, uint64_t* hi_out) {
  const RoundKeys& keys = FixedRoundKeys();
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys.rk[r]));
  }
  const auto counter = [&](uint64_t index) {
    const uint64_t ctr_lo = base_lo + index;
    const uint64_t ctr_hi = base_hi + (ctr_lo < base_lo ? 1 : 0);
    return _mm_set_epi64x(static_cast<long long>(ctr_hi),
                          static_cast<long long>(ctr_lo));
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i b[8];
    for (int k = 0; k < 8; ++k) {
      b[k] = _mm_xor_si128(counter(first_block + i + k), rk[0]);
    }
    for (int r = 1; r < 10; ++r) {
      for (int k = 0; k < 8; ++k) {
        b[k] = _mm_aesenc_si128(b[k], rk[r]);
      }
    }
    for (int k = 0; k < 8; ++k) {
      b[k] = _mm_aesenclast_si128(b[k], rk[10]);
      lo_out[i + k] = static_cast<uint64_t>(_mm_cvtsi128_si64(b[k]));
      hi_out[i + k] = static_cast<uint64_t>(_mm_extract_epi64(b[k], 1));
    }
  }
  for (; i < n; ++i) {
    __m128i b = _mm_xor_si128(counter(first_block + i), rk[0]);
    for (int r = 1; r < 10; ++r) {
      b = _mm_aesenc_si128(b, rk[r]);
    }
    b = _mm_aesenclast_si128(b, rk[10]);
    lo_out[i] = static_cast<uint64_t>(_mm_cvtsi128_si64(b));
    hi_out[i] = static_cast<uint64_t>(_mm_extract_epi64(b, 1));
  }
}

#endif  // CONCLAVE_X86

}  // namespace

void AesFillBlocksSplit(uint64_t base_lo, uint64_t base_hi,
                        uint64_t first_block, size_t n, uint64_t* lo_out,
                        uint64_t* hi_out) {
#if defined(CONCLAVE_X86)
  if (UsingAesNi()) {
    AesFillBlocksSplitNi(base_lo, base_hi, first_block, n, lo_out, hi_out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    AesBlockPortable(base_lo, base_hi, first_block + i, lo_out + i, hi_out + i);
  }
}

uint64_t AesWordAt(uint64_t base_lo, uint64_t base_hi, uint64_t word_index) {
  uint64_t lo;
  uint64_t hi;
#if defined(CONCLAVE_X86)
  if (UsingAesNi()) {
    AesFillBlocksSplitNi(base_lo, base_hi, word_index >> 1, 1, &lo, &hi);
    return (word_index & 1) != 0 ? hi : lo;
  }
#endif
  AesBlockPortable(base_lo, base_hi, word_index >> 1, &lo, &hi);
  return (word_index & 1) != 0 ? hi : lo;
}

void AesFillWords(uint64_t base_lo, uint64_t base_hi, uint64_t first_word,
                  size_t n, uint64_t* out) {
  size_t i = 0;
  uint64_t w = first_word;
  if (n == 0) {
    return;
  }
  if ((w & 1) != 0) {
    out[i++] = AesWordAt(base_lo, base_hi, w);
    ++w;
  }
  constexpr size_t kChunkBlocks = 256;
  uint64_t lo[kChunkBlocks];
  uint64_t hi[kChunkBlocks];
  while (n - i >= 2) {
    const size_t blocks = ((n - i) / 2) < kChunkBlocks ? (n - i) / 2 : kChunkBlocks;
    AesFillBlocksSplit(base_lo, base_hi, w >> 1, blocks, lo, hi);
    for (size_t k = 0; k < blocks; ++k) {
      out[i + 2 * k] = lo[k];
      out[i + 2 * k + 1] = hi[k];
    }
    i += 2 * blocks;
    w += 2 * blocks;
  }
  if (i < n) {
    out[i] = AesWordAt(base_lo, base_hi, w);
  }
}

void AesEncryptBlockPortable(const uint8_t key[16], const uint8_t in[16],
                             uint8_t out[16]) {
  const RoundKeys keys = ExpandKey(key);
  EncryptBlockPortable(keys, in, out);
}

}  // namespace cpu

// --- AesCounterRng (declared in common/rng.h) -------------------------------

uint64_t AesCounterRng::At(uint64_t index) const {
  return cpu::AesWordAt(base_lo_, base_hi_, index);
}

void AesCounterRng::FillWords(uint64_t first_word, size_t n,
                              uint64_t* out) const {
  cpu::AesFillWords(base_lo_, base_hi_, first_word, n, out);
}

void AesCounterRng::FillBlocksSplit(uint64_t first_block, size_t n,
                                    uint64_t* lo_out, uint64_t* hi_out) const {
  cpu::AesFillBlocksSplit(base_lo_, base_hi_, first_block, n, lo_out, hi_out);
}

}  // namespace conclave
