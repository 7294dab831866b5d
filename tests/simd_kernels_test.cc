// Differential suite for the runtime-dispatched kernels (common/cpu.{h,cc}).
//
// Every kernel is one loop compiled twice: for the build's baseline ISA and as
// an AVX2 clone. Each runs twice on the same adversarial inputs — once with the
// SIMD knob off (the baseline build) and once with it on (the AVX2 clone, when
// the host has it) — and the outputs must match bit for bit. Shapes
// deliberately include 0/1-row columns, tails of every residue mod the vector
// width, and INT64_MIN/INT64_MAX wrap cases. The compaction kernels write into
// outputs of exactly their documented capacity, so a loop that stores past it
// fails under ASan.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conclave/common/cpu.h"
#include "conclave/common/rng.h"

namespace conclave {
namespace {

using cpu::Arith;
using cpu::Cmp;
using cpu::MaskMode;
using cpu::ScopedSimd;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Lengths covering every tail residue of the 4-lane i64 and 32-byte mask
// widths, plus empty and single.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                           31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 1000};

std::vector<int64_t> AdversarialColumn(size_t n, uint64_t salt) {
  std::vector<int64_t> v(n);
  Rng rng(0x5eed + salt);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:
        v[i] = kMin;
        break;
      case 1:
        v[i] = kMax;
        break;
      case 2:
        v[i] = 0;
        break;
      case 3:
        v[i] = -1;
        break;
      case 4:
        v[i] = 1;
        break;
      case 5:
        v[i] = rng.NextInRange(-4, 4);
        break;
      default:
        v[i] = static_cast<int64_t>(rng.Next());
        break;
    }
  }
  return v;
}

std::vector<uint64_t> RandomU64(size_t n, uint64_t salt) {
  std::vector<uint64_t> v(n);
  Rng rng(0xfeed + salt);
  for (auto& x : v) {
    x = rng.Next();
  }
  return v;
}

const Cmp kCmps[] = {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                     Cmp::kGe};
const Arith kAriths[] = {Arith::kAdd, Arith::kSub, Arith::kMul, Arith::kDiv};

TEST(SimdKernels, SelectCompareMatchesScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware; scalar path is the only path";
  }
  for (size_t n : kLengths) {
    const auto lhs = AdversarialColumn(n, 1);
    const auto rhs = AdversarialColumn(n, 2);
    for (Cmp op : kCmps) {
      for (int with_rhs = 0; with_rhs < 2; ++with_rhs) {
        // Room for exactly n indices, the documented capacity.
        std::vector<int64_t> got(n, -7);
        std::vector<int64_t> want(n, -7);
        const int64_t* rp = with_rhs ? rhs.data() : nullptr;
        size_t want_count;
        size_t got_count;
        {
          ScopedSimd off(false);
          want_count = cpu::SelectCompare(op, lhs.data(), rp, -1, 100, n,
                                          want.data());
        }
        {
          ScopedSimd on(true);
          got_count =
              cpu::SelectCompare(op, lhs.data(), rp, -1, 100, n, got.data());
        }
        ASSERT_EQ(want_count, got_count)
            << "op=" << static_cast<int>(op) << " n=" << n
            << " rhs=" << with_rhs;
        ASSERT_EQ(want, got) << "op=" << static_cast<int>(op) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, CompareMaskAllModesMatchScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  const MaskMode kModes[] = {MaskMode::kSet, MaskMode::kAnd, MaskMode::kOr};
  for (size_t n : kLengths) {
    const auto lhs = AdversarialColumn(n, 3);
    const auto rhs = AdversarialColumn(n, 4);
    for (Cmp op : kCmps) {
      for (MaskMode mode : kModes) {
        // Seed the mask with an alternating 0/1 pattern so kAnd/kOr have
        // something to combine with.
        std::vector<uint8_t> want(n);
        std::vector<uint8_t> got(n);
        for (size_t i = 0; i < n; ++i) {
          want[i] = got[i] = static_cast<uint8_t>(i & 1);
        }
        {
          ScopedSimd off(false);
          cpu::CompareMask(op, lhs.data(), rhs.data(), 0, n, mode, want.data());
        }
        {
          ScopedSimd on(true);
          cpu::CompareMask(op, lhs.data(), rhs.data(), 0, n, mode, got.data());
        }
        ASSERT_EQ(want, got) << "op=" << static_cast<int>(op)
                             << " mode=" << static_cast<int>(mode)
                             << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, CountMaskAndMaskToIndicesMatchScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  for (size_t n : kLengths) {
    std::vector<uint8_t> mask(n);
    Rng rng(0xabc + n);
    for (auto& b : mask) {
      b = static_cast<uint8_t>(rng.NextBool() ? 1 : 0);
    }
    size_t want_count;
    size_t got_count;
    // Room for exactly CountMask(mask, n) indices, the documented capacity.
    const size_t matches =
        static_cast<size_t>(std::count(mask.begin(), mask.end(), uint8_t{1}));
    std::vector<int64_t> want_idx(matches, -9);
    std::vector<int64_t> got_idx(matches, -9);
    {
      ScopedSimd off(false);
      want_count = cpu::CountMask(mask.data(), n);
      ASSERT_EQ(cpu::MaskToIndices(mask.data(), n, 7, want_idx.data()),
                want_count);
    }
    {
      ScopedSimd on(true);
      got_count = cpu::CountMask(mask.data(), n);
      ASSERT_EQ(cpu::MaskToIndices(mask.data(), n, 7, got_idx.data()),
                got_count);
    }
    ASSERT_EQ(want_count, got_count) << "n=" << n;
    ASSERT_EQ(want_idx, got_idx) << "n=" << n;
  }
}

TEST(SimdKernels, ArithColumnMatchesScalarIncludingWrapAndDiv) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  for (size_t n : kLengths) {
    const auto lhs = AdversarialColumn(n, 5);
    const auto rhs = AdversarialColumn(n, 6);
    for (Arith op : kAriths) {
      for (int with_rhs = 0; with_rhs < 2; ++with_rhs) {
        const int64_t* rp = with_rhs ? rhs.data() : nullptr;
        // Literal -1 plus scale 1000 exercises the INT64_MIN / -1 rule and
        // product wrap in the same sweep.
        std::vector<int64_t> want(n, 42);
        std::vector<int64_t> got(n, 42);
        {
          ScopedSimd off(false);
          cpu::ArithColumn(op, lhs.data(), rp, -1, 1000, n, want.data());
        }
        {
          ScopedSimd on(true);
          cpu::ArithColumn(op, lhs.data(), rp, -1, 1000, n, got.data());
        }
        ASSERT_EQ(want, got) << "op=" << static_cast<int>(op) << " n=" << n
                             << " rhs=" << with_rhs;
      }
    }
  }
}

TEST(SimdKernels, DivisionRuleEdgeCases) {
  // The rule itself (both dispatch levels must produce these exact values):
  // divisor 0 -> 0; INT64_MIN * 1 / -1 wraps back to INT64_MIN; product wrap.
  const int64_t lhs[] = {kMin, kMax, 10, -10, 5};
  const int64_t rhs[] = {-1, -1, 0, 3, 2};
  const int64_t want[] = {kMin, -kMax, 0, -3, 2};
  for (bool simd : {false, true}) {
    ScopedSimd guard(simd);
    int64_t out[5];
    cpu::ArithColumn(Arith::kDiv, lhs, rhs, 0, 1, 5, out);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(out[i], want[i]) << "i=" << i << " simd=" << simd;
    }
  }
}

// A mask the masked reductions run under; `all` stands for the null mask.
struct MaskPattern {
  const char* name;
  bool all;
  std::vector<uint8_t> bytes;

  const uint8_t* data() const { return all ? nullptr : bytes.data(); }
  bool Keeps(size_t i) const { return all || bytes[i] != 0; }
};

// Null (every row), all-zero, all-one, alternating, and random bytes that are
// zero or any nonzero value.
std::vector<MaskPattern> MaskPatterns(size_t n, uint64_t salt) {
  std::vector<uint8_t> alternating(n);
  std::vector<uint8_t> random(n);
  Rng rng(0xa5c + salt);
  for (size_t i = 0; i < n; ++i) {
    alternating[i] = static_cast<uint8_t>(i & 1);
    random[i] = rng.NextBelow(2) == 0 ? 0 : static_cast<uint8_t>(1 + rng.NextBelow(255));
  }
  return {{"null", true, {}},
          {"all-zero", false, std::vector<uint8_t>(n, 0)},
          {"all-one", false, std::vector<uint8_t>(n, 1)},
          {"alternating", false, std::move(alternating)},
          {"random", false, std::move(random)}};
}

TEST(SimdKernels, ReductionsMatchScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  for (size_t n : kLengths) {
    const auto v = AdversarialColumn(n, 7);
    for (const MaskPattern& pattern : MaskPatterns(n, 7)) {
      const uint8_t* mask = pattern.data();
      int64_t want_sum, got_sum, want_min, got_min, want_max, got_max;
      {
        ScopedSimd off(false);
        want_sum = cpu::SumWrap(v.data(), mask, n);
        want_min = cpu::MinOf(v.data(), mask, n);
        want_max = cpu::MaxOf(v.data(), mask, n);
      }
      {
        ScopedSimd on(true);
        got_sum = cpu::SumWrap(v.data(), mask, n);
        got_min = cpu::MinOf(v.data(), mask, n);
        got_max = cpu::MaxOf(v.data(), mask, n);
      }
      EXPECT_EQ(want_sum, got_sum) << "n=" << n << " mask=" << pattern.name;
      EXPECT_EQ(want_min, got_min) << "n=" << n << " mask=" << pattern.name;
      EXPECT_EQ(want_max, got_max) << "n=" << n << " mask=" << pattern.name;
    }
    bool want_eq, got_eq;
    {
      ScopedSimd off(false);
      want_eq = cpu::AllEqual(v.data(), n);
    }
    {
      ScopedSimd on(true);
      got_eq = cpu::AllEqual(v.data(), n);
    }
    EXPECT_EQ(want_eq, got_eq) << "n=" << n;

    // AllEqual positive case (the adversarial column is almost never equal).
    std::vector<int64_t> same(n, kMin);
    for (bool simd : {false, true}) {
      ScopedSimd guard(simd);
      EXPECT_TRUE(cpu::AllEqual(same.data(), n)) << "n=" << n;
    }
  }
}

// The masked reductions against plain loops written here, at both dispatch
// levels: comparing the two builds of one source cannot catch a bug in that
// source. An all-zero mask (and n = 0) must return the identities 0,
// INT64_MAX and INT64_MIN.
TEST(SimdKernels, MaskedReductionsMatchPlainLoops) {
  for (size_t n : kLengths) {
    const auto v = AdversarialColumn(n, 12);
    for (const MaskPattern& pattern : MaskPatterns(n, 12)) {
      const char* const name = pattern.name;
      const uint8_t* mask = pattern.data();
      uint64_t sum = 0;
      int64_t min = kMax;
      int64_t max = kMin;
      for (size_t i = 0; i < n; ++i) {
        if (pattern.Keeps(i)) {
          sum += static_cast<uint64_t>(v[i]);
          min = std::min(min, v[i]);
          max = std::max(max, v[i]);
        }
      }
      if (std::string(name) == "all-zero" || n == 0) {
        ASSERT_EQ(sum, 0u);
        ASSERT_EQ(min, kMax);
        ASSERT_EQ(max, kMin);
      }
      for (bool simd : {false, true}) {
        ScopedSimd guard(simd);
        EXPECT_EQ(cpu::SumWrap(v.data(), mask, n), static_cast<int64_t>(sum))
            << "n=" << n << " mask=" << name << " simd=" << simd;
        EXPECT_EQ(cpu::MinOf(v.data(), mask, n), min)
            << "n=" << n << " mask=" << name << " simd=" << simd;
        EXPECT_EQ(cpu::MaxOf(v.data(), mask, n), max)
            << "n=" << n << " mask=" << name << " simd=" << simd;
      }
    }
  }
}

TEST(SimdKernels, GatherMatchesScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  const auto src = AdversarialColumn(512, 8);
  for (size_t n : kLengths) {
    std::vector<int64_t> rows(n);
    Rng rng(0x90 + n);
    for (auto& r : rows) {
      r = static_cast<int64_t>(rng.NextBelow(src.size()));
    }
    std::vector<int64_t> want(n), got(n);
    {
      ScopedSimd off(false);
      cpu::GatherI64(src.data(), rows.data(), n, want.data());
    }
    {
      ScopedSimd on(true);
      cpu::GatherI64(src.data(), rows.data(), n, got.data());
    }
    ASSERT_EQ(want, got) << "n=" << n;
  }
}

TEST(SimdKernels, RingKernelsMatchScalar) {
  if (!cpu::HardwareAvx2()) {
    GTEST_SKIP() << "no AVX2 hardware";
  }
  for (size_t n : kLengths) {
    const auto a = RandomU64(n, 1);
    const auto b = RandomU64(n, 2);
    const auto c = RandomU64(n, 3);
    const auto d = RandomU64(n, 4);
    const auto e = RandomU64(n, 5);
    std::vector<uint8_t> bits(n);
    std::vector<int64_t> rows(n);
    Rng rng(0x77 + n);
    for (size_t i = 0; i < n; ++i) {
      bits[i] = static_cast<uint8_t>(rng.NextBool() ? 1 : 0);
      rows[i] = n == 0 ? 0 : static_cast<int64_t>(rng.NextBelow(n));
    }
    struct Outs {
      std::vector<uint64_t> add, sub, subsub, add3, addc, mulc, masksub,
          accdiff, beaver, accmul, g0, g1, g2;
      uint64_t sum;
    };
    auto run = [&](bool simd) {
      ScopedSimd guard(simd);
      Outs o;
      o.add.resize(n);
      cpu::AddU64(a.data(), b.data(), n, o.add.data());
      o.sub.resize(n);
      cpu::SubU64(a.data(), b.data(), n, o.sub.data());
      o.subsub.resize(n);
      cpu::SubSubU64(a.data(), b.data(), c.data(), n, o.subsub.data());
      o.add3.resize(n);
      cpu::Add3U64(a.data(), b.data(), c.data(), n, o.add3.data());
      o.addc.resize(n);
      cpu::AddConstU64(a.data(), 0x9e3779b97f4a7c15ULL, n, o.addc.data());
      o.mulc.resize(n);
      cpu::MulConstU64(a.data(), 0xdeadbeefcafef00dULL, n, o.mulc.data());
      o.masksub.resize(n);
      cpu::MaskSubSub(bits.data(), a.data(), b.data(), n, o.masksub.data());
      o.accdiff = c;
      cpu::AccumDiffU64(a.data(), b.data(), n, o.accdiff.data());
      o.beaver.resize(n);
      cpu::BeaverCombineU64(a.data(), b.data(), c.data(), d.data(), e.data(),
                            n, o.beaver.data());
      o.accmul = c;
      cpu::AccumMulU64(a.data(), b.data(), n, o.accmul.data());
      o.g0 = d;  // pre-filled r0
      o.g1 = e;  // pre-filled r1
      o.g2.resize(n);
      cpu::GatherRerandCombine(a.data(), b.data(), c.data(), rows.data(), n,
                               o.g0.data(), o.g1.data(), o.g2.data());
      o.sum = cpu::SumU64(a.data(), n);
      return o;
    };
    const Outs want = run(false);
    const Outs got = run(true);
    ASSERT_EQ(want.add, got.add) << "n=" << n;
    ASSERT_EQ(want.sub, got.sub) << "n=" << n;
    ASSERT_EQ(want.subsub, got.subsub) << "n=" << n;
    ASSERT_EQ(want.add3, got.add3) << "n=" << n;
    ASSERT_EQ(want.addc, got.addc) << "n=" << n;
    ASSERT_EQ(want.mulc, got.mulc) << "n=" << n;
    ASSERT_EQ(want.masksub, got.masksub) << "n=" << n;
    ASSERT_EQ(want.accdiff, got.accdiff) << "n=" << n;
    ASSERT_EQ(want.beaver, got.beaver) << "n=" << n;
    ASSERT_EQ(want.accmul, got.accmul) << "n=" << n;
    ASSERT_EQ(want.g0, got.g0) << "n=" << n;
    ASSERT_EQ(want.g1, got.g1) << "n=" << n;
    ASSERT_EQ(want.g2, got.g2) << "n=" << n;
    ASSERT_EQ(want.sum, got.sum) << "n=" << n;
  }
}

TEST(SimdKernels, InPlaceArithAndAddAllowed) {
  for (bool simd : {false, true}) {
    ScopedSimd guard(simd);
    auto v = AdversarialColumn(37, 9);
    auto expect = v;
    for (size_t i = 0; i < v.size(); ++i) {
      expect[i] = static_cast<int64_t>(static_cast<uint64_t>(expect[i]) * 3u);
    }
    cpu::ArithColumn(Arith::kMul, v.data(), nullptr, 3, 1, v.size(), v.data());
    EXPECT_EQ(v, expect) << "simd=" << simd;

    auto u = RandomU64(37, 10);
    auto w = RandomU64(37, 11);
    auto expect_u = u;
    for (size_t i = 0; i < u.size(); ++i) {
      expect_u[i] += w[i];
    }
    cpu::AddU64(u.data(), w.data(), u.size(), u.data());
    EXPECT_EQ(u, expect_u) << "simd=" << simd;
  }
}

TEST(SimdKernels, KnobAndLevelNames) {
  const bool initial = cpu::SimdEnabled();
  {
    ScopedSimd off(false);
    EXPECT_FALSE(cpu::SimdEnabled());
    EXPECT_FALSE(cpu::UsingAvx2());
    EXPECT_STREQ(cpu::SimdLevelName(), "scalar");
    {
      ScopedSimd on(true);
      EXPECT_TRUE(cpu::SimdEnabled());
      if (cpu::HardwareAvx2()) {
        EXPECT_STREQ(cpu::SimdLevelName(), "avx2");
      }
    }
    EXPECT_FALSE(cpu::SimdEnabled());
  }
  EXPECT_EQ(cpu::SimdEnabled(), initial);
}

}  // namespace
}  // namespace conclave
