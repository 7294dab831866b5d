// Runtime CPU dispatch for the data plane's innermost loops (DESIGN.md §13).
//
// Every kernel here is one portable loop compiled twice: once for the build's
// baseline ISA, and once inlined into a function-level target("avx2") clone
// that the compiler vectorizes with 256-bit lanes. A runtime check picks the
// clone — no per-file -m flags, so one binary runs correctly on any x86-64 and
// uses the wide units when the host has them. The compaction loops
// (SelectCompare, MaskToIndices) and the gathers (GatherI64,
// GatherRerandCombine) stay scalar in both builds. No kernel has a second
// source.
//
// Both builds compute the same bits because the source fixes them: all
// arithmetic is performed in uint64 (defined wrap, matching the engine's
// two's-complement ring semantics), division follows the engine's truncating
// rule (divisor 0 -> 0, INT64_MIN / -1 wraps to itself instead of trapping),
// and reductions are wrap sums, min/max and OR, which no lane order changes.
// The differential suite (tests/simd_kernels_test.cc) runs both builds on
// adversarial shapes and requires equal outputs.
//
// Dispatch is hardware capability AND the CONCLAVE_SIMD knob: CONCLAVE_SIMD=0
// (or "off"/"false", or SetSimdEnabled(false)) forces the baseline build even on
// AVX2 hardware, which is how CI runs the fallback and how the differential
// fuzzer runs its simd {on,off} axis. The knob selects only the kernel clones;
// it never changes results, only which instructions compute them.
//
// Layering: common/ must not see relational/ types, so the compare/arith kinds
// are mirrored here as cpu::Cmp / cpu::Arith; ops.cc static_asserts that the
// enumerator orders match CompareOp / ArithKind and casts.
#ifndef CONCLAVE_COMMON_CPU_H_
#define CONCLAVE_COMMON_CPU_H_

#include <cstddef>
#include <cstdint>

namespace conclave {
namespace cpu {

// --- Dispatch state ---------------------------------------------------------

// Hardware capability (a cached cpuid probe; independent of the knob).
bool HardwareAvx2();

// The CONCLAVE_SIMD knob: unset or any value other than "0"/"off"/"false"
// means enabled. SetSimdEnabled overrides the environment for the process.
bool SimdEnabled();
void SetSimdEnabled(bool enabled);

// Effective dispatch: hardware capability AND the knob.
inline bool UsingAvx2() { return SimdEnabled() && HardwareAvx2(); }

// "avx2" or "scalar" — for bench labels and logs.
const char* SimdLevelName();

// RAII knob override for tests and A/B benches.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : saved_(SimdEnabled()) {
    SetSimdEnabled(enabled);
  }
  ~ScopedSimd() { SetSimdEnabled(saved_); }
  ScopedSimd(const ScopedSimd&) = delete;
  ScopedSimd& operator=(const ScopedSimd&) = delete;

 private:
  bool saved_;
};

// --- Kernel enums (mirrors of CompareOp / ArithKind; see header comment) ----

enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class Arith { kAdd, kSub, kMul, kDiv };

// --- Selection / comparison kernels ----------------------------------------

// Writes `base + i` for every i in [0, n) where lhs[i] op rhs[i] (or the
// literal when rhs == nullptr) to out; returns the match count. out must have
// room for n indices. Match order is ascending i — identical to a serial scan.
size_t SelectCompare(Cmp op, const int64_t* lhs, const int64_t* rhs,
                     int64_t literal, int64_t base, size_t n, int64_t* out);

// Byte-mask comparison: evaluates lhs[i] op rhs[i]/literal into 0/1 bytes.
// kSet overwrites mask, kAnd intersects into it, kOr unions into it — the
// accumulate modes are what let the fused expression evaluator AND a chain of
// filters (and StripSentinelRows OR its per-column sentinel tests) without a
// scratch mask per predicate.
enum class MaskMode { kSet, kAnd, kOr };
void CompareMask(Cmp op, const int64_t* lhs, const int64_t* rhs,
                 int64_t literal, size_t n, MaskMode mode, uint8_t* mask);

// Number of nonzero bytes in mask[0, n).
size_t CountMask(const uint8_t* mask, size_t n);

// Writes `base + i` for every nonzero mask byte to out (ascending); returns
// the count. out must have room for CountMask(mask, n) indices.
size_t MaskToIndices(const uint8_t* mask, size_t n, int64_t base, int64_t* out);

// --- Arithmetic kernels -----------------------------------------------------

// out[i] = lhs[i] op rhs[i] (or the literal when rhs == nullptr), int64
// wrap semantics via uint64. kDiv applies the engine's fixed-point rule:
// divisor 0 -> 0, otherwise trunc((lhs * scale) / divisor) with the product
// wrapped and INT64_MIN / -1 defined as wrap-negation. `scale` is only read
// for kDiv. In-place (out == lhs) is allowed.
void ArithColumn(Arith op, const int64_t* lhs, const int64_t* rhs,
                 int64_t literal, int64_t scale, size_t n, int64_t* out);

// --- Reductions and scans (aggregate pre-combine fast paths) ----------------

// True if v[0..n) are all equal (vacuously true for n <= 1).
bool AllEqual(const int64_t* v, size_t n);

// Reductions over the rows of v[0..n) whose mask byte is nonzero; a null mask
// selects every row. This is how an aggregate reads a filter's survivors in
// place. With no row selected they return their identities: 0, INT64_MAX and
// INT64_MIN. The sum wraps (uint64 addition), and like min and max it is
// order-independent, so the SIMD lane fold is bit-identical to the serial
// loop.
int64_t SumWrap(const int64_t* v, const uint8_t* mask, size_t n);
int64_t MinOf(const int64_t* v, const uint8_t* mask, size_t n);
int64_t MaxOf(const int64_t* v, const uint8_t* mask, size_t n);
// a + b, wrapping like the MPC ring (a signed overflow would be undefined).
inline int64_t AddWrap(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

// --- Gather -----------------------------------------------------------------

// out[i] = src[rows[i]] — the filter-materialization inner loop.
void GatherI64(const int64_t* src, const int64_t* rows, size_t n, int64_t* out);

// --- Ring (uint64, Z_2^64) kernels for the share data plane -----------------

// out[i] = a[i] + b[i] (mod 2^64). In-place allowed.
void AddU64(const uint64_t* a, const uint64_t* b, size_t n, uint64_t* out);
// out[i] = a[i] - b[i].
void SubU64(const uint64_t* a, const uint64_t* b, size_t n, uint64_t* out);
// out[i] = a[i] - b[i] - c[i] (share-combine: s2 = value - r0 - r1).
void SubSubU64(const uint64_t* a, const uint64_t* b, const uint64_t* c,
               size_t n, uint64_t* out);
// out[i] = a[i] + b[i] + c[i] (reconstruction; int64 out is the same bits).
void Add3U64(const uint64_t* a, const uint64_t* b, const uint64_t* c, size_t n,
             uint64_t* out);
// out[i] = a[i] + k.
void AddConstU64(const uint64_t* a, uint64_t k, size_t n, uint64_t* out);
// out[i] = a[i] * k (low 64 bits).
void MulConstU64(const uint64_t* a, uint64_t k, size_t n, uint64_t* out);
// out[i] = bits[i] - r0[i] - r1[i], bits being 0/1 bytes (the ideal-compare
// share combine).
void MaskSubSub(const uint8_t* bits, const uint64_t* r0, const uint64_t* r1,
                size_t n, uint64_t* out);
// acc[i] += a[i] - t[i] (Beaver masked-opening accumulation).
void AccumDiffU64(const uint64_t* a, const uint64_t* t, size_t n, uint64_t* acc);
// out[i] = tc[i] + d[i] * tb[i] + e[i] * ta[i] (Beaver recombination).
void BeaverCombineU64(const uint64_t* tc, const uint64_t* d, const uint64_t* tb,
                      const uint64_t* e, const uint64_t* ta, size_t n,
                      uint64_t* out);
// acc[i] += d[i] * e[i] (the d*e term folded into party 0's share).
void AccumMulU64(const uint64_t* d, const uint64_t* e, size_t n, uint64_t* acc);
// Fused gather + re-randomize combine. o0/o1 arrive pre-filled with the fresh
// mask words r0/r1; on return o0[i] = a0[rows[i]] + r0, o1[i] = a1[rows[i]] +
// r1, o2[i] = a2[rows[i]] - r0 - r1.
void GatherRerandCombine(const uint64_t* a0, const uint64_t* a1,
                         const uint64_t* a2, const int64_t* rows, size_t n,
                         uint64_t* o0, uint64_t* o1, uint64_t* o2);
// Wrapping sum of v[0..n) (RingSum's per-morsel partial): SumWrap over the
// same bits.
uint64_t SumU64(const uint64_t* v, size_t n);

}  // namespace cpu
}  // namespace conclave

#endif  // CONCLAVE_COMMON_CPU_H_
