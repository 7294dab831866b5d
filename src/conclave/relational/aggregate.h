// Hash group-by aggregation as a consume/finish operator: the one aggregation
// core. ops::Aggregate consumes its whole input at once, spill::Aggregator
// consumes it chunk by chunk and cuts a sorted partial per chunk, and a fused
// chain's aggregate tail (relational/pipeline.h) consumes its streaming
// prefix's output batch by batch. Every path reads a BatchView: a chain's
// program hands over its columns in place together with its mask, and the
// aggregator reduces the rows the mask keeps, so no survivor is gathered. Every
// path accumulates into the same per-group state, updating only the fields its
// kind finalizes from, and finalizes through the same switch, so they agree bit
// for bit.
#ifndef CONCLAVE_RELATIONAL_AGGREGATE_H_
#define CONCLAVE_RELATIONAL_AGGREGATE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"

namespace conclave {

// Rows of a batch as the aggregator reads them: borrowed pointers to its
// columns, each `rows` long, and the rows that count. Those are the rows whose
// mask byte is nonzero, or every row when the mask is null. A chain's program
// output (relational/expr.h) is such a view; a relation is the unmasked case.
struct BatchView {
  std::vector<const int64_t*> columns;
  int64_t rows = 0;
  const uint8_t* mask = nullptr;
  int64_t counted = 0;  // Rows that count: the mask's popcount, or `rows`.

  // Every row of `relation`.
  static BatchView Of(const Relation& relation);
};

// Running state of one group. Each AggKind updates and finalizes only its own
// fields (sum, count, min or max; sum and count for kMean) and leaves the rest
// at their identities. Merging is associative and commutative, so any
// partition of the rows gives the same state.
struct AggAccumulator {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void Merge(const AggAccumulator& other);
  int64_t Finalize(AggKind kind) const;

  // The spilled partial of a group (spill.h): kMean keeps its exact (sum,
  // count) so the quotient is taken once, after the merge; every other kind
  // keeps its finalized value, which merges under the same kind (counts add).
  static int PartialWidth(AggKind kind) { return kind == AggKind::kMean ? 2 : 1; }
  void ToPartial(AggKind kind, int64_t* cells) const;
  static AggAccumulator FromPartial(AggKind kind, const int64_t* cells);
};

// Mixes a multi-column key into one hash (SplitMix64 finalizer per word).
struct GroupKeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    uint64_t h = kHashChainSeed;
    for (int64_t v : key) {
      h = HashChainStep(h, static_cast<uint64_t>(v));
    }
    return static_cast<size_t>(h);
  }
};

class GroupAggregator {
 public:
  // Column references are resolved indices into `input_schema`; for kCount
  // `agg_column` is ignored. An empty `group_columns` keeps one global group.
  GroupAggregator(const Schema& input_schema, std::span<const int> group_columns,
                  AggKind kind, int agg_column, const std::string& output_name);

  AggKind kind() const { return kind_; }
  // Group columns, then the aggregate column `output_name` (ops::Aggregate's).
  const Schema& output_schema() const { return output_schema_; }
  // Group columns, then AggAccumulator::PartialWidth(kind) partial columns.
  const Schema& partial_schema() const { return partial_schema_; }

  // Accumulates the counted rows among rows [lo, hi) of `batch`, whose columns
  // follow the constructor's schema. A range that counts no row of a group
  // adds no group. A range longer than one morsel accumulates morsel-parallel
  // into private maps merged in range order.
  void Consume(const BatchView& batch, int64_t lo, int64_t hi);
  // Rows [lo, hi) of `input`, read through its unmasked view.
  void Consume(const Relation& input, int64_t lo, int64_t hi) {
    Consume(BatchView::Of(input), lo, hi);
  }

  int64_t NumGroups() const;

  // Every group consumed since the last Finish, sorted by group key and
  // finalized: ops::Aggregate's output. Resets the state.
  Relation Finish();
  // The same groups in partial_schema() layout, sorted by group key. Resets
  // the state.
  Relation FinishPartial();

 private:
  using SingleKeyMap = std::unordered_map<int64_t, AggAccumulator>;
  using MultiKeyMap =
      std::unordered_map<std::vector<int64_t>, AggAccumulator, GroupKeyHash>;

  Relation Emit(bool partial);

  std::vector<int> group_columns_;
  AggKind kind_;
  int agg_column_;
  Schema output_schema_;
  Schema partial_schema_;
  // One group column keys an int64 map; zero or several key a vector map.
  SingleKeyMap single_;
  MultiKeyMap multi_;
};

}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_AGGREGATE_H_
