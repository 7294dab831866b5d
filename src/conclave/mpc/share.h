// Additive 3-party secret sharing over the ring Z_2^64.
//
// A value x is split as x = s0 + s1 + s2 (mod 2^64); party i holds s_i. Linear
// operations act share-wise without communication; multiplications use Beaver triples
// (triple_dealer.h). This mirrors Sharemind's additive scheme [12]: the paper's
// evaluation uses Sharemind as the secret-sharing backend, and all of Conclave's MPC
// relational protocols (join, aggregation, shuffle, sort) reduce to these primitives.
//
// Signed int64 relation cells map to ring elements by two's-complement bit pattern, so
// additions/subtractions/multiplications of shares agree with wrapping int64 semantics.
//
// The bulk helpers here are the data plane's innermost loops: they run structure-of-
// arrays passes over morsels of rows (common/thread_pool.h ParallelFor), writing
// disjoint elements, so they produce bit-identical shares at every pool size. Share
// generation uses counter-based randomness (CounterRng): element i of a sharing
// draws words 2i and 2i+1 of the operation's stream, independent of evaluation
// order. The loops themselves dispatch through common/cpu.h: each is one
// loop compiled twice, run as its AVX2 build on hardware that has it and as its
// baseline build everywhere else, with the same bits either way.
#ifndef CONCLAVE_MPC_SHARE_H_
#define CONCLAVE_MPC_SHARE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/relational/relation.h"

namespace conclave {

inline constexpr int kNumShareParties = 3;

using Ring = uint64_t;

inline Ring ToRing(int64_t value) { return std::bit_cast<Ring>(value); }
inline int64_t FromRing(Ring value) { return std::bit_cast<int64_t>(value); }

// Morsel size for the MPC data plane's row loops. Smaller than the cleartext
// operators' grain: each shared row touches three share streams (plus triples and
// masks on the heavier kernels), so this still amortizes chunk dispatch thousands
// of times over while letting mid-sized batches spread across a pool.
inline constexpr int64_t kMpcGrainRows = 8 * 1024;

// Morsel size of the fused kernels (one Batcher compare-exchange layer, one
// segmented-scan level per pass; DESIGN.md §5). A fused element costs tens of
// nanoseconds (mask and triple words plus a Beaver step per column) against
// about one for an Add element, so a morsel this size still amortizes its dispatch
// while a 17k-comparator layer spreads over 17 morsels. Chosen by measurement
// (4-vCPU host, pool 4, hhi_mpc_only's query p50, median of 6 interleaved runs):
// 1,024 → 0.086 s, 2,048 → 0.094 s, 4,096 → 0.105 s, 8,192 → 0.160 s.
inline constexpr int64_t kMpcFusedGrainRows = 1024;

// One secret-shared vector of ring elements (a relation column, or a batch of
// intermediate values). shares[p][i] is party p's share of element i.
struct SharedColumn {
  std::array<std::vector<Ring>, kNumShareParties> shares;

  SharedColumn() = default;
  explicit SharedColumn(size_t size) {
    for (auto& s : shares) {
      s.assign(size, 0);
    }
  }

  size_t size() const { return shares[0].size(); }
  bool empty() const { return shares[0].empty(); }

  // Resizes all three share vectors; grown elements are zero. Scratch owners
  // (e.g. the triple dealer's batch) resize instead of reconstructing so steady
  // state reuses capacity instead of reallocating.
  void Resize(size_t size) {
    for (auto& s : shares) {
      s.resize(size);
    }
  }

  Ring ReconstructAt(size_t i) const {
    return shares[0][i] + shares[1][i] + shares[2][i];
  }
};

// The three parties' shares of a run of consecutive elements: a morsel of a
// SharedColumn, or a fused kernel's chunk-local buffer. The chunk kernels
// (BeaverBlock, SecretShareEngine::ShareComparison, TripleDealer::Unpack) read and
// write through these, so whole-column ops and fused kernels run one body.
struct ConstShareRun {
  std::array<const Ring*, kNumShareParties> p;
};
struct ShareRun {
  std::array<Ring*, kNumShareParties> p;
  operator ConstShareRun() const { return {{p[0], p[1], p[2]}}; }
};

// The run of `column` that starts at element `offset`.
inline ShareRun RunOf(SharedColumn& column, size_t offset = 0) {
  return {{column.shares[0].data() + offset, column.shares[1].data() + offset,
           column.shares[2].data() + offset}};
}
inline ConstShareRun RunOf(const SharedColumn& column, size_t offset = 0) {
  return {{column.shares[0].data() + offset, column.shares[1].data() + offset,
           column.shares[2].data() + offset}};
}

// Splits cleartext values into fresh random additive shares (sequential generator;
// test/fixture convenience). The engine's data plane uses the CounterRng overload.
SharedColumn ShareValues(std::span<const int64_t> values, Rng& rng);

// Counter-based, morsel-parallel sharing: element i draws stream words 2i and 2i+1,
// so the result is a pure function of (values, rng) at every pool size. The mask
// words are written straight into the share vectors (CounterRng::FillPairs).
SharedColumn ShareValues(std::span<const int64_t> values, const CounterRng& rng);

// Shares one relation column zero-copy: the columnar layout makes this exactly
// ShareValues over the column's contiguous cell span — no strided gather, no copy.
inline SharedColumn ShareColumn(const Relation& relation, int col,
                                const CounterRng& rng) {
  CONCLAVE_CHECK_GE(col, 0);
  CONCLAVE_CHECK_LT(col, relation.NumColumns());
  return ShareValues(relation.ColumnSpan(col), rng);
}

// Recombines shares into cleartext values.
std::vector<int64_t> ReconstructValues(const SharedColumn& column);

// Reconstructs elements [begin, end) into a caller-owned buffer of end - begin
// elements (no allocation; the engine points this at arena scratch), one
// morsel-parallel pass.
void ReconstructInto(const SharedColumn& column, int64_t begin, int64_t end,
                     int64_t* out);
inline void ReconstructInto(const SharedColumn& column, int64_t* out) {
  ReconstructInto(column, 0, static_cast<int64_t>(column.size()), out);
}

// Fixed-order chunked sum of one share vector: per-morsel partials folded in chunk
// order. Ring addition commutes mod 2^64, but the fixed fold order is the documented
// discipline for every morsel reduction in the MPC lane (DESIGN.md §5).
Ring RingSum(std::span<const Ring> values);

// A secret-shared relation: public schema and row count, secret cells, stored
// column-major for batched per-column protocols. Consistent with the paper's security
// model, sizes of relations under MPC are public; cell values are not.
class SharedRelation {
 public:
  SharedRelation() = default;
  explicit SharedRelation(Schema schema) : schema_(std::move(schema)) {}
  SharedRelation(Schema schema, std::vector<SharedColumn> columns);

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  int NumColumns() const { return schema_.NumColumns(); }
  int64_t NumRows() const {
    return columns_.empty() ? 0 : static_cast<int64_t>(columns_[0].size());
  }

  const SharedColumn& Column(int index) const;
  SharedColumn& MutableColumn(int index);

  // Appends a secret column; its length must match the relation's row count.
  void AppendColumn(ColumnDef def, SharedColumn column);
  // Appends a public column as the trivial sharing (v, 0, 0).
  void AppendPublicColumn(ColumnDef def, const std::vector<int64_t>& values);
  void DropColumn(int index);

  // Total shared cells (rows x columns); drives the simulated memory accounting.
  uint64_t NumCells() const {
    return static_cast<uint64_t>(NumRows()) * static_cast<uint64_t>(NumColumns());
  }

 private:
  Schema schema_;
  std::vector<SharedColumn> columns_;
};

// Shares every cell of a cleartext relation (no cost accounting — the engine-level
// InputRelation in protocols.h charges ingest costs).
SharedRelation ShareRelation(const Relation& relation, Rng& rng);

// Reconstructs a shared relation to cleartext.
Relation ReconstructRelation(const SharedRelation& shared);

// Share-local data movement (no communication, no re-randomization — callers that
// reveal gathered data must re-randomize first). GatherColumn is one morsel-parallel
// pass that moves all three shares of each row.
SharedColumn GatherColumn(const SharedColumn& column, std::span<const int64_t> rows);
SharedColumn SliceColumn(const SharedColumn& column, size_t start, size_t length);
// Same-schema relations end to end, in input order: each column's three share
// vectors are the inputs' copied one after another. Read through pointers, so
// callers need not copy their inputs into a contiguous vector first.
SharedRelation ConcatShares(std::span<const SharedRelation* const> inputs);

}  // namespace conclave

#endif  // CONCLAVE_MPC_SHARE_H_
