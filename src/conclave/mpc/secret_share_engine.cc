#include "conclave/mpc/secret_share_engine.h"

#include <algorithm>
#include <cstring>

#include "conclave/common/cpu.h"
#include "conclave/common/thread_pool.h"

namespace conclave {
namespace {

// cpu::Cmp mirrors CompareOp enumerator-for-enumerator so the engine can cast.
static_assert(static_cast<int>(cpu::Cmp::kEq) == static_cast<int>(CompareOp::kEq) &&
              static_cast<int>(cpu::Cmp::kNe) == static_cast<int>(CompareOp::kNe) &&
              static_cast<int>(cpu::Cmp::kLt) == static_cast<int>(CompareOp::kLt) &&
              static_cast<int>(cpu::Cmp::kLe) == static_cast<int>(CompareOp::kLe) &&
              static_cast<int>(cpu::Cmp::kGt) == static_cast<int>(CompareOp::kGt) &&
              static_cast<int>(cpu::Cmp::kGe) == static_cast<int>(CompareOp::kGe));

// Both operands of a binary batched op must agree in size.
void CheckSameSize(const SharedColumn& a, const SharedColumn& b) {
  CONCLAVE_CHECK_EQ(a.size(), b.size());
}

// Morsel loop over [0, n) with the MPC grain.
template <typename Body>
void ForRows(size_t n, const Body& body) {
  ParallelFor(0, static_cast<int64_t>(n), body, kMpcGrainRows);
}

}  // namespace

SharedColumn SecretShareEngine::Add(const SharedColumn& a, const SharedColumn& b) {
  CheckSameSize(a, b);
  SharedColumn out(a.size());
  for (int p = 0; p < kNumShareParties; ++p) {
    const Ring* const ap = a.shares[p].data();
    const Ring* const bp = b.shares[p].data();
    Ring* const op = out.shares[p].data();
    ForRows(a.size(), [&](int64_t lo, int64_t hi) {
      cpu::AddU64(ap + lo, bp + lo, static_cast<size_t>(hi - lo), op + lo);
    });
  }
  return out;
}

SharedColumn SecretShareEngine::Sub(const SharedColumn& a, const SharedColumn& b) {
  CheckSameSize(a, b);
  SharedColumn out(a.size());
  for (int p = 0; p < kNumShareParties; ++p) {
    const Ring* const ap = a.shares[p].data();
    const Ring* const bp = b.shares[p].data();
    Ring* const op = out.shares[p].data();
    ForRows(a.size(), [&](int64_t lo, int64_t hi) {
      cpu::SubU64(ap + lo, bp + lo, static_cast<size_t>(hi - lo), op + lo);
    });
  }
  return out;
}

SharedColumn SecretShareEngine::AddConst(const SharedColumn& a, int64_t constant) {
  SharedColumn out = a;
  const Ring k = ToRing(constant);
  Ring* const o0 = out.shares[0].data();
  ForRows(out.size(), [&](int64_t lo, int64_t hi) {
    cpu::AddConstU64(o0 + lo, k, static_cast<size_t>(hi - lo), o0 + lo);
  });
  return out;
}

SharedColumn SecretShareEngine::MulConst(const SharedColumn& a, int64_t constant) {
  SharedColumn out(a.size());
  const Ring k = ToRing(constant);
  for (int p = 0; p < kNumShareParties; ++p) {
    const Ring* const ap = a.shares[p].data();
    Ring* const op = out.shares[p].data();
    ForRows(a.size(), [&](int64_t lo, int64_t hi) {
      cpu::MulConstU64(ap + lo, k, static_cast<size_t>(hi - lo), op + lo);
    });
  }
  return out;
}

SharedColumn SecretShareEngine::Public(std::span<const int64_t> values) {
  SharedColumn out(values.size());
  const int64_t* const v = values.data();
  Ring* const o0 = out.shares[0].data();
  ForRows(values.size(), [&](int64_t lo, int64_t hi) {
    std::memcpy(o0 + lo, v + lo, static_cast<size_t>(hi - lo) * sizeof(Ring));
  });
  return out;
}

SharedColumn SecretShareEngine::PublicConst(size_t n, int64_t value) {
  SharedColumn out(n);
  out.shares[0].assign(n, ToRing(value));
  return out;
}

void BeaverBlock::Mul(const CounterRng& triples, uint64_t first, size_t len,
                      ConstShareRun x, ConstShareRun y, ShareRun z) {
  TripleDealer::Unpack(triples, first, len, a_.run(), b_.run(), c_.run());
  // Party-major passes so every inner loop streams over dense arrays.
  std::memset(d_, 0, len * sizeof(Ring));
  std::memset(e_, 0, len * sizeof(Ring));
  for (int p = 0; p < kNumShareParties; ++p) {
    cpu::AccumDiffU64(x.p[p], a_.s[p], len, d_);
    cpu::AccumDiffU64(y.p[p], b_.s[p], len, e_);
  }
  for (int p = 0; p < kNumShareParties; ++p) {
    cpu::BeaverCombineU64(c_.s[p], d_, b_.s[p], e_, a_.s[p], len, z.p[p]);
  }
  cpu::AccumMulU64(d_, e_, len, z.p[0]);
}

void ChargeSsBatch(SimNetwork& network, SsPrimitive primitive, uint64_t units) {
  const SsCharge charge = network.model().SsChargeFor(primitive);
  network.CpuSeconds(static_cast<double>(units) * charge.seconds);
  network.CountAggregateBytes(units * charge.bytes);
  network.Rounds(charge.rounds);
}

void ChargeMul(SimNetwork& network, uint64_t n) {
  if (n == 0) {
    return;
  }
  ChargeSsBatch(network, SsPrimitive::kMult, n);
  network.mutable_counters().mpc_multiplications += n;
}

void ChargeCompare(SimNetwork& network, CompareOp op, uint64_t n) {
  const bool is_equality = (op == CompareOp::kEq || op == CompareOp::kNe);
  ChargeSsBatch(network, is_equality ? SsPrimitive::kEquality : SsPrimitive::kCompare,
                n);
  network.mutable_counters().mpc_comparisons += n;
}

void ChargeDiv(SimNetwork& network, uint64_t n) {
  ChargeSsBatch(network, SsPrimitive::kDivision, n);
}

void ChargeOpen(SimNetwork& network, uint64_t n) {
  ChargeSsBatch(network, SsPrimitive::kOpen, n);
}

SharedColumn SecretShareEngine::Mul(const SharedColumn& a, const SharedColumn& b) {
  CheckSameSize(a, b);
  const size_t n = a.size();
  if (n == 0) {
    return SharedColumn(0);
  }

  const CounterRng triples = dealer_.ClaimBatch(n);
  SharedColumn out(n);
  ForRows(n, [&](int64_t lo, int64_t hi) {
    BeaverBlock beaver;
    for (int64_t first = lo; first < hi; first += static_cast<int64_t>(kFusedBlockRows)) {
      const size_t i = static_cast<size_t>(first);
      const size_t len = std::min(kFusedBlockRows, static_cast<size_t>(hi - first));
      beaver.Mul(triples, i, len, RunOf(a, i), RunOf(b, i), RunOf(out, i));
    }
  });
  ChargeMul(*network_, n);
  return out;
}

std::vector<int64_t> SecretShareEngine::Open(const SharedColumn& a) {
  ChargeOpen(*network_, a.size());
  return ReconstructValues(a);
}

SharedColumn SecretShareEngine::Rerandomize(const SharedColumn& a) {
  const size_t n = a.size();
  SharedColumn out(n);
  const CounterRng rng = NewStream();
  const Ring* const a0 = a.shares[0].data();
  const Ring* const a1 = a.shares[1].data();
  const Ring* const a2 = a.shares[2].data();
  Ring* const o0 = out.shares[0].data();
  Ring* const o1 = out.shares[1].data();
  Ring* const o2 = out.shares[2].data();
  ForRows(n, [&](int64_t lo, int64_t hi) {
    // o0/o1 hold the fresh masks r0/r1 until the zero-sharing combine: o2 is
    // computed from them first, then they absorb the input shares.
    const size_t len = static_cast<size_t>(hi - lo);
    rng.FillPairs(static_cast<uint64_t>(lo), len, o0 + lo, o1 + lo);
    cpu::SubSubU64(a2 + lo, o0 + lo, o1 + lo, len, o2 + lo);
    cpu::AddU64(o0 + lo, a0 + lo, len, o0 + lo);
    cpu::AddU64(o1 + lo, a1 + lo, len, o1 + lo);
  });
  return out;
}

SharedColumn SecretShareEngine::GatherRerandomizeWith(const SharedColumn& column,
                                                      std::span<const int64_t> rows,
                                                      const CounterRng& rng) {
  const size_t n = rows.size();
  SharedColumn out(n);
  const Ring* const a0 = column.shares[0].data();
  const Ring* const a1 = column.shares[1].data();
  const Ring* const a2 = column.shares[2].data();
  Ring* const o0 = out.shares[0].data();
  Ring* const o1 = out.shares[1].data();
  Ring* const o2 = out.shares[2].data();
  ForRows(n, [&](int64_t lo, int64_t hi) {
#if !defined(NDEBUG)
    for (int64_t i = lo; i < hi; ++i) {
      CONCLAVE_DCHECK(rows[static_cast<size_t>(i)] >= 0 &&
                      rows[static_cast<size_t>(i)] <
                          static_cast<int64_t>(column.size()));
    }
#endif
    const size_t len = static_cast<size_t>(hi - lo);
    rng.FillPairs(static_cast<uint64_t>(lo), len, o0 + lo, o1 + lo);
    cpu::GatherRerandCombine(a0, a1, a2, rows.data() + lo, len, o0 + lo,
                             o1 + lo, o2 + lo);
  });
  return out;
}

void SecretShareEngine::ShareComparison(CompareOp op, const int64_t* lhs,
                                        const int64_t* rhs, size_t len,
                                        const CounterRng& masks, uint64_t first,
                                        uint8_t* bits, ShareRun out) {
  // One vector compare into 0/1 bytes, one batched mask fill, one combine.
  cpu::CompareMask(static_cast<cpu::Cmp>(op), lhs, rhs, 0, len, cpu::MaskMode::kSet,
                   bits);
  masks.FillPairs(first, len, out.p[0], out.p[1]);
  cpu::MaskSubSub(bits, out.p[0], out.p[1], len, out.p[2]);
}

SharedColumn SecretShareEngine::Compare(CompareOp op, const SharedColumn& a,
                                        const SharedColumn& b) {
  CheckSameSize(a, b);
  const size_t n = a.size();

  auto lhs_buf = arena_.Acquire(n);
  auto rhs_buf = arena_.Acquire(n);
  ReconstructInto(a, lhs_buf.i64());
  ReconstructInto(b, rhs_buf.i64());
  const int64_t* const lhs = lhs_buf.i64();
  const int64_t* const rhs = rhs_buf.i64();

  // Fresh sharing of the comparison bits, fused with their computation.
  SharedColumn out(n);
  const CounterRng masks = NewStream();
  auto bits_buf = arena_.Acquire((n + 7) / 8);
  uint8_t* const bits = reinterpret_cast<uint8_t*>(bits_buf.u64());
  ForRows(n, [&](int64_t lo, int64_t hi) {
    const size_t i = static_cast<size_t>(lo);
    ShareComparison(op, lhs + i, rhs + i, static_cast<size_t>(hi - lo), masks, i,
                    bits + i, RunOf(out, i));
  });
  ChargeCompare(*network_, op, n);
  return out;
}

SharedColumn SecretShareEngine::CompareConst(CompareOp op, const SharedColumn& a,
                                             int64_t constant) {
  return Compare(op, a, PublicConst(a.size(), constant));
}

SharedColumn SecretShareEngine::Div(const SharedColumn& a, const SharedColumn& b,
                                    int64_t scale) {
  CheckSameSize(a, b);
  const size_t n = a.size();

  auto num_buf = arena_.Acquire(n);
  auto den_buf = arena_.Acquire(n);
  ReconstructInto(a, num_buf.i64());
  ReconstructInto(b, den_buf.i64());
  const int64_t* const num = num_buf.i64();
  const int64_t* const den = den_buf.i64();

  SharedColumn out(n);
  const CounterRng rng = NewStream();
  auto q_buf = arena_.Acquire(n);
  int64_t* const q = q_buf.i64();
  Ring* const o0 = out.shares[0].data();
  Ring* const o1 = out.shares[1].data();
  Ring* const o2 = out.shares[2].data();
  ForRows(n, [&](int64_t lo, int64_t hi) {
    const size_t len = static_cast<size_t>(hi - lo);
    // The engine's division rule lives in one place (cpu::ArithColumn kDiv) so
    // the MPC lane and the cleartext Arithmetic kernel can never drift.
    cpu::ArithColumn(cpu::Arith::kDiv, num + lo, den + lo, 0, scale, len,
                     q + lo);
    rng.FillPairs(static_cast<uint64_t>(lo), len, o0 + lo, o1 + lo);
    cpu::SubSubU64(reinterpret_cast<const uint64_t*>(q) + lo, o0 + lo, o1 + lo,
                   len, o2 + lo);
  });
  ChargeDiv(*network_, n);
  return out;
}

SharedColumn SecretShareEngine::Mux(const SharedColumn& condition,
                                    const SharedColumn& a, const SharedColumn& b) {
  CheckSameSize(condition, a);
  CheckSameSize(a, b);
  // b + cond * (a - b): one Beaver multiplication per element.
  return Add(b, Mul(condition, Sub(a, b)));
}

}  // namespace conclave
