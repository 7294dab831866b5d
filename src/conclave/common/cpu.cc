#include "conclave/common/cpu.h"

#include <atomic>
#include <functional>
#include <limits>

#include "conclave/common/env.h"

#if defined(__x86_64__) || defined(__i386__)
#define CONCLAVE_X86 1
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

// Every row selected: what a null mask means.
struct AllRows {
  bool operator[](size_t) const { return true; }
};

// Calls loop(keep) with keep[i] nonzero for the rows the mask selects, or with
// every row selected when mask is null, so the null test stays outside the
// loop.
template <typename Loop>
auto WithMask(const uint8_t* mask, const Loop& loop) {
  if (mask != nullptr) {
    return loop(mask);
  }
  return loop(AllRows{});
}

// v for a selected row, else the reduction's identity. It is a bitwise select,
// not a branch: GCC vectorizes no loop whose loads the mask guards.
inline int64_t KeptOr(bool keep, int64_t v, int64_t identity) {
  const uint64_t all = uint64_t{0} - static_cast<uint64_t>(keep);
  return static_cast<int64_t>((static_cast<uint64_t>(v) & all) |
                              (static_cast<uint64_t>(identity) & ~all));
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

int64_t SumWrap(const int64_t* v, const uint8_t* mask, size_t n) {
  return Dispatch([=] {
    return WithMask(mask, [&](auto keep) {
      uint64_t sum = 0;
      for (size_t i = 0; i < n; ++i) {
        sum += static_cast<uint64_t>(KeptOr(keep[i] != 0, v[i], 0));
      }
      return static_cast<int64_t>(sum);
    });
  });
}

int64_t MinOf(const int64_t* v, const uint8_t* mask, size_t n) {
  return Dispatch([=] {
    return WithMask(mask, [&](auto keep) {
      constexpr int64_t kIdentity = std::numeric_limits<int64_t>::max();
      int64_t best = kIdentity;
      for (size_t i = 0; i < n; ++i) {
        const int64_t x = KeptOr(keep[i] != 0, v[i], kIdentity);
        best = x < best ? x : best;
      }
      return best;
    });
  });
}

int64_t MaxOf(const int64_t* v, const uint8_t* mask, size_t n) {
  return Dispatch([=] {
    return WithMask(mask, [&](auto keep) {
      constexpr int64_t kIdentity = std::numeric_limits<int64_t>::min();
      int64_t best = kIdentity;
      for (size_t i = 0; i < n; ++i) {
        const int64_t x = KeptOr(keep[i] != 0, v[i], kIdentity);
        best = x > best ? x : best;
      }
      return best;
    });
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
  return static_cast<uint64_t>(
      SumWrap(reinterpret_cast<const int64_t*>(v), /*mask=*/nullptr, n));
}

}  // namespace cpu
}  // namespace conclave
