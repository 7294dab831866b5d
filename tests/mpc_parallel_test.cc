// Pool-size independence of the MPC data plane (DESIGN.md §5, strong form).
//
// Every engine kernel is a morsel-parallel loop fed by counter-based randomness, so
// running the same operation sequence under pools of different sizes must produce
// bit-identical *shares* — not merely equal reconstructions — plus identical virtual
// clock, byte counters, and op counters. These tests bind pools of size 1, 2, and 4
// to the calling thread (exactly how the dispatcher hands its pool to the MPC lane)
// and fingerprint everything the engine emits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "conclave/common/thread_pool.h"
#include "conclave/data/generators.h"
#include "conclave/hybrid/hybrid_agg.h"
#include "conclave/hybrid/hybrid_join.h"
#include "conclave/hybrid/hybrid_window.h"
#include "conclave/hybrid/public_join.h"
#include "conclave/mpc/oblivious.h"
#include "conclave/mpc/protocols.h"

namespace conclave {
namespace {

std::vector<int64_t> RandomValues(int64_t n, uint64_t seed, int64_t lo = -1000,
                                  int64_t hi = 1000) {
  Rng rng(seed);
  std::vector<int64_t> values(static_cast<size_t>(n));
  for (auto& v : values) {
    v = rng.NextInRange(lo, hi);
  }
  return values;
}

struct Trace {
  std::vector<SharedColumn> columns;
  std::vector<Relation> relations;
  double virtual_seconds = 0;
  uint64_t network_bytes = 0;
  uint64_t mpc_multiplications = 0;
  uint64_t mpc_comparisons = 0;
  uint64_t triples_dealt = 0;

  bool BitIdentical(const Trace& other) const {
    if (columns.size() != other.columns.size() ||
        relations.size() != other.relations.size()) {
      return false;
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      for (int p = 0; p < kNumShareParties; ++p) {
        if (columns[c].shares[p] != other.columns[c].shares[p]) {
          return false;
        }
      }
    }
    for (size_t r = 0; r < relations.size(); ++r) {
      if (!relations[r].RowsEqual(other.relations[r])) {
        return false;
      }
    }
    return virtual_seconds == other.virtual_seconds &&
           network_bytes == other.network_bytes &&
           mpc_multiplications == other.mpc_multiplications &&
           mpc_comparisons == other.mpc_comparisons &&
           triples_dealt == other.triples_dealt;
  }

  // FNV-1a over every share, every reconstructed cell, the clock's bits and the
  // counters: one number that pins the whole trace across code changes.
  uint64_t Fingerprint() const { return Hash(/*values_only=*/false); }

  // The same hash with each recorded column's reconstructed values in place of its
  // three share vectors: it pins everything that no change of mask randomness can
  // move.
  uint64_t ValueFingerprint() const { return Hash(/*values_only=*/true); }

  uint64_t Hash(bool values_only) const {
    uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](uint64_t value) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
      }
    };
    for (const SharedColumn& column : columns) {
      mix(column.size());
      if (values_only) {
        for (int64_t value : ReconstructValues(column)) {
          mix(static_cast<uint64_t>(value));
        }
        continue;
      }
      for (int p = 0; p < kNumShareParties; ++p) {
        for (Ring share : column.shares[p]) {
          mix(share);
        }
      }
    }
    for (const Relation& relation : relations) {
      mix(static_cast<uint64_t>(relation.NumRows()));
      for (int c = 0; c < relation.NumColumns(); ++c) {
        for (int64_t cell : relation.ColumnSpan(c)) {
          mix(static_cast<uint64_t>(cell));
        }
      }
    }
    mix(std::bit_cast<uint64_t>(virtual_seconds));
    mix(network_bytes);
    mix(mpc_multiplications);
    mix(mpc_comparisons);
    mix(triples_dealt);
    return hash;
  }

  void Record(const SharedRelation& relation) {
    relations.push_back(ReconstructRelation(relation));
    for (int c = 0; c < relation.NumColumns(); ++c) {
      columns.push_back(relation.Column(c));
    }
  }
};

// Exercises every engine kernel once, at a size that spans several morsels
// (kMpcGrainRows = 8192), and records all produced shares.
Trace RunKernels(int pool_parallelism) {
  ThreadPool pool(pool_parallelism);
  ThreadPool::Scope scope(&pool);

  const int64_t n = 3 * kMpcGrainRows + 257;  // Several chunks plus a ragged tail.
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, /*seed=*/99);
  Trace trace;

  SharedColumn a = engine.Share(RandomValues(n, 1));
  SharedColumn b = engine.Share(RandomValues(n, 2, -50, 50));
  trace.columns.push_back(a);
  trace.columns.push_back(b);
  trace.columns.push_back(SecretShareEngine::Add(a, b));
  trace.columns.push_back(SecretShareEngine::Sub(a, b));
  trace.columns.push_back(SecretShareEngine::AddConst(a, 17));
  trace.columns.push_back(SecretShareEngine::MulConst(a, -3));
  trace.columns.push_back(engine.Mul(a, b));
  trace.columns.push_back(engine.Rerandomize(a));
  trace.columns.push_back(engine.Compare(CompareOp::kLt, a, b));
  trace.columns.push_back(engine.CompareConst(CompareOp::kGe, a, 10));
  trace.columns.push_back(engine.Div(a, b, 100));
  trace.columns.push_back(
      engine.Mux(engine.CompareConst(CompareOp::kEq, b, 0), a, b));

  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    rows[static_cast<size_t>(i)] = (i * 7919) % n;
  }
  trace.columns.push_back(GatherColumn(a, rows));
  trace.columns.push_back(engine.GatherRerandomize(a, rows));

  // A claimed triple batch, unpacked into three columns.
  const size_t count = static_cast<size_t>(n);
  SharedColumn triple_a(count);
  SharedColumn triple_b(count);
  SharedColumn triple_c(count);
  TripleDealer::Unpack(engine.dealer().ClaimBatch(count), 0, count, RunOf(triple_a),
                       RunOf(triple_b), RunOf(triple_c));
  trace.columns.push_back(triple_a);
  trace.columns.push_back(triple_b);
  trace.columns.push_back(triple_c);

  Relation rel = data::UniformInts(n, {"k", "v"}, 1 << 16, /*seed=*/5);
  const auto shared = mpc::InputRelation(engine, rel);
  CONCLAVE_CHECK(shared.ok());
  trace.relations.push_back(ReconstructRelation(*shared));

  trace.virtual_seconds = net.ElapsedSeconds();
  trace.network_bytes = net.counters().network_bytes;
  trace.mpc_multiplications = net.counters().mpc_multiplications;
  trace.mpc_comparisons = net.counters().mpc_comparisons;
  trace.triples_dealt = engine.dealer().triples_dealt();
  return trace;
}

// The oblivious layer and every secret-sharing protocol end to end: sort, shuffle,
// select, merge; filter, joins, aggregations (segmented scans + RingSum reduction
// path), distinct, windows, the sorted distinct count; and the hybrid and public
// protocols with a selectively-trusted party among three.
Trace RunProtocols(int pool_parallelism) {
  ThreadPool pool(pool_parallelism);
  ThreadPool::Scope scope(&pool);

  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, /*seed=*/123);
  Trace trace;
  const auto input = [&engine](const Relation& relation) {
    auto shared = mpc::InputRelation(engine, relation);
    CONCLAVE_CHECK(shared.ok());
    return *std::move(shared);
  };
  const auto record = [&trace](const StatusOr<SharedRelation>& result) {
    CONCLAVE_CHECK(result.ok());
    trace.Record(*result);
  };

  Relation rel = data::UniformInts(500, {"g", "x"}, 8, /*seed=*/11);
  const SharedRelation shared = input(rel);

  const int keys[] = {0};
  SharedRelation sorted = ObliviousSort(engine, shared, keys);
  trace.Record(sorted);
  trace.Record(ObliviousShuffle(engine, shared));

  SharedColumn indices = engine.Share(RandomValues(64, 3, 0, 499));
  SharedRelation selected = ObliviousSelect(engine, shared, indices);
  for (int c = 0; c < selected.NumColumns(); ++c) {
    trace.columns.push_back(selected.Column(c));
  }

  const int group[] = {0};
  const auto agg = mpc::Aggregate(engine, shared, group, AggKind::kSum, 1, "s");
  CONCLAVE_CHECK(agg.ok());
  trace.relations.push_back(ReconstructRelation(*agg));

  const auto global =
      mpc::Aggregate(engine, shared, std::span<const int>{}, AggKind::kSum, 1, "t");
  CONCLAVE_CHECK(global.ok());
  trace.columns.push_back(global->Column(0));

  record(mpc::Aggregate(engine, shared, group, AggKind::kMax, 1, "m"));
  record(mpc::Aggregate(engine, shared, group, AggKind::kMean, 1, "a"));
  record(mpc::Filter(engine, shared,
                     FilterPredicate::ColumnVsLiteral(1, CompareOp::kLt, 3)));
  record(mpc::Distinct(engine, shared, keys));
  for (WindowFn fn : {WindowFn::kRowNumber, WindowFn::kRunningSum, WindowFn::kLag}) {
    record(mpc::Window(engine, shared, group, /*order_column=*/1, fn,
                       /*value_column=*/1, "w"));
  }

  // Merge: the power-of-two network and the full-sort fallback.
  const SharedRelation run_a = ObliviousSort(engine, input(data::UniformInts(
                                                          128, {"g", "x"}, 50, 12)),
                                             keys);
  const SharedRelation run_b = ObliviousSort(engine, input(data::UniformInts(
                                                          100, {"g", "x"}, 50, 13)),
                                             keys);
  trace.Record(ObliviousMerge(engine, run_a, run_b, keys));
  trace.Record(ObliviousMerge(engine, run_b, run_a, keys));

  // Sorted distinct count over a filter's keep flags.
  const SharedRelation by_key = input(ops::SortBy(rel, keys));
  const SharedColumn keep = mpc::FilterFlags(
      engine, by_key, FilterPredicate::ColumnVsLiteral(1, CompareOp::kGe, 4));
  trace.columns.push_back(keep);
  record(mpc::CountDistinctSorted(engine, by_key, 0, keep, "c"));

  // Joins: one key and two keys, Cartesian, hybrid and public.
  const SharedRelation left = input(data::UniformInts(60, {"k", "j", "a"}, 6, 14));
  const SharedRelation right = input(data::UniformInts(45, {"k", "j", "b"}, 6, 15));
  const int one_key[] = {0};
  const int two_keys[] = {0, 1};
  constexpr PartyId kStp = 0;
  constexpr int kParties = 3;
  for (std::span<const int> join_keys :
       {std::span<const int>(one_key), std::span<const int>(two_keys)}) {
    record(mpc::Join(engine, left, right, join_keys, join_keys));
    record(hybrid::HybridJoin(engine, left, right, join_keys, join_keys, kStp,
                              kParties));
    record(hybrid::PublicJoinShared(engine, left, right, join_keys, join_keys,
                                    kStp, kParties));
  }

  // The hybrid aggregation and window (STP-ordered scans).
  record(hybrid::HybridAggregate(engine, shared, group, AggKind::kSum, 1, "h",
                                 kStp, kParties));
  record(hybrid::HybridAggregate(engine, left, two_keys, AggKind::kMin, 2, "h",
                                 kStp, kParties));
  for (WindowFn fn : {WindowFn::kRowNumber, WindowFn::kRunningSum, WindowFn::kLag}) {
    record(hybrid::HybridWindow(engine, left, group, /*order_column=*/2, fn,
                                /*value_column=*/2, "hw", kStp, kParties));
  }

  trace.virtual_seconds = net.ElapsedSeconds();
  trace.network_bytes = net.counters().network_bytes;
  trace.mpc_multiplications = net.counters().mpc_multiplications;
  trace.mpc_comparisons = net.counters().mpc_comparisons;
  trace.triples_dealt = engine.dealer().triples_dealt();
  return trace;
}

// What RunProtocols never reaches: sorts and scans that span several morsels, the
// 3-key comparison ladder (the equality chain of keys past the second), descending
// sorts, and every aggregate kind's scan, at sizes from one row to several morsels
// plus a ragged tail. Keys come from small domains so the ladder sees ties.
Trace RunNetworks(int pool_parallelism) {
  ThreadPool pool(pool_parallelism);
  ThreadPool::Scope scope(&pool);

  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, /*seed=*/321);
  Trace trace;
  const auto record = [&trace](const StatusOr<SharedRelation>& result) {
    CONCLAVE_CHECK(result.ok());
    trace.Record(*result);
  };

  const int three_keys[] = {0, 1, 2};
  const int value_key[] = {3};
  const int group[] = {0};
  uint64_t seed = 40;
  for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{17}, int64_t{1000},
                    3 * kMpcGrainRows + 257}) {
    Relation rel{Schema::Of({"a", "b", "c", "v"})};
    rel.Resize(n);
    const int64_t domains[] = {3, 3, 5, 1000};
    for (int c = 0; c < 4; ++c) {
      const std::vector<int64_t> values = RandomValues(n, ++seed, 0, domains[c]);
      std::copy(values.begin(), values.end(), rel.ColumnData(c));
    }
    const auto shared = mpc::InputRelation(engine, rel);
    CONCLAVE_CHECK(shared.ok());

    trace.Record(ObliviousSort(engine, *shared, three_keys, /*ascending=*/true));
    trace.Record(ObliviousSort(engine, *shared, three_keys, /*ascending=*/false));
    record(mpc::Sort(engine, *shared, value_key, /*ascending=*/false));
    for (AggKind kind : {AggKind::kSum, AggKind::kCount, AggKind::kMin, AggKind::kMax,
                         AggKind::kMean}) {
      record(mpc::Aggregate(engine, *shared, group, kind, /*agg_column=*/3, "agg"));
    }
  }

  trace.virtual_seconds = net.ElapsedSeconds();
  trace.network_bytes = net.counters().network_bytes;
  trace.mpc_multiplications = net.counters().mpc_multiplications;
  trace.mpc_comparisons = net.counters().mpc_comparisons;
  trace.triples_dealt = engine.dealer().triples_dealt();
  return trace;
}

TEST(MpcParallelTest, KernelSharesBitIdenticalAcrossPoolSizes) {
  const Trace serial = RunKernels(1);
  EXPECT_TRUE(serial.BitIdentical(RunKernels(2)));
  EXPECT_TRUE(serial.BitIdentical(RunKernels(4)));
}

TEST(MpcParallelTest, ProtocolSharesBitIdenticalAcrossPoolSizes) {
  const Trace serial = RunProtocols(1);
  EXPECT_TRUE(serial.BitIdentical(RunProtocols(2)));
  EXPECT_TRUE(serial.BitIdentical(RunProtocols(4)));
}

// Every protocol's shares, clock and counters, pinned: a refactor of the protocols
// or of the building blocks beneath them must leave this number unchanged. Update it
// only for a deliberate change of a protocol's randomness or charges.
TEST(MpcParallelTest, ProtocolFingerprintIsPinned) {
  EXPECT_EQ(RunProtocols(1).Fingerprint(), 0xb9a1bb40b0d611faULL);
}

// The multi-morsel sorts and scans, pinned the same way: bit-identical at every pool
// size, and one fingerprint across code changes.
TEST(MpcParallelTest, NetworkTraceIsPinnedAtEveryPoolSize) {
  const Trace serial = RunNetworks(1);
  EXPECT_EQ(serial.Fingerprint(), 0x237c667e08472a0fULL);
  EXPECT_TRUE(serial.BitIdentical(RunNetworks(2)));
  EXPECT_TRUE(serial.BitIdentical(RunNetworks(4)));
}

// What the protocols compute, pinned apart from their masks: reconstructed columns
// and relations, clock and counters. A change of share randomness moves the two
// pins above but must leave these.
TEST(MpcParallelTest, ValueFingerprintsArePinned) {
  EXPECT_EQ(RunProtocols(1).ValueFingerprint(), 0x33aef795bafba7a8ULL);
  EXPECT_EQ(RunNetworks(1).ValueFingerprint(), 0x8a7f205a1e1fd817ULL);
}

TEST(MpcParallelTest, RepeatedParallelRunsAreStable) {
  // Scheduling nondeterminism must never surface: repeat the parallel run.
  const Trace first = RunProtocols(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(first.BitIdentical(RunProtocols(4)));
  }
}

TEST(MpcParallelTest, KernelsCorrectUnderParallelPool) {
  // Semantic spot-checks while a pool is bound (the determinism tests above only
  // compare runs with each other).
  ThreadPool pool(4);
  ThreadPool::Scope scope(&pool);
  SimNetwork net{CostModel{}};
  SecretShareEngine engine(&net, 7);
  const int64_t n = 2 * kMpcGrainRows + 13;
  const auto a_vals = RandomValues(n, 21);
  const auto b_vals = RandomValues(n, 22, -30, 30);
  SharedColumn a = engine.Share(a_vals);
  SharedColumn b = engine.Share(b_vals);
  const auto product = ReconstructValues(engine.Mul(a, b));
  const auto less = ReconstructValues(engine.Compare(CompareOp::kLt, a, b));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(product[static_cast<size_t>(i)],
              a_vals[static_cast<size_t>(i)] * b_vals[static_cast<size_t>(i)]);
    EXPECT_EQ(less[static_cast<size_t>(i)],
              a_vals[static_cast<size_t>(i)] < b_vals[static_cast<size_t>(i)] ? 1
                                                                              : 0);
  }
}

}  // namespace
}  // namespace conclave
