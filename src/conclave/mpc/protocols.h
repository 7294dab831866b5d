// MPC relational operators over secret-shared relations (the Sharemind backend's
// operator library, §6 of the paper: "We implemented the same standard MPC algorithms
// for joins (a Cartesian product approach) and aggregations [39] in both Sharemind and
// Obliv-C").
//
// Leakage discipline: relation sizes under MPC are public (§3.2). The compaction-based
// operators (filter, join, aggregation, distinct) reveal their *output* sizes, matching
// the paper's Sharemind baseline ("a join implementation that leaks output size",
// §7.3); rows are obliviously shuffled before any flag is opened so nothing else leaks.
//
// Operators that can exceed the simulated Sharemind VM's memory return
// RESOURCE_EXHAUSTED via StatusOr (see CostModel::ss_memory_limit_bytes).
//
// Next to each protocol the planner prices sits its charge composite (FilterCharges,
// ...): given the protocol's row, column and key counts, it applies the protocol's
// charges to a network in the protocol's order, through the charge functions the
// protocol runs, and stops at the first failing working-set check with its status.
// The planner (compiler/plan_cost.cc) prices a node with it on a scratch network.
#ifndef CONCLAVE_MPC_PROTOCOLS_H_
#define CONCLAVE_MPC_PROTOCOLS_H_

#include <span>
#include <string>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/mpc/oblivious.h"
#include "conclave/mpc/secret_share_engine.h"
#include "conclave/relational/ops.h"

namespace conclave {
namespace mpc {

// Round depth of the batched Cartesian-join equality phase (all n*m tests run as one
// deep batch rather than per-element fan-in trees).
inline constexpr uint64_t kSsJoinRounds = 8;

// Simulated-memory guard: `live_cells` shared cells must fit in the Sharemind VM.
// `what` names the check in the error.
Status CheckWorkingSet(const CostModel& model, uint64_t live_cells, const char* what);

// The cells of `copies` copies of a rows x columns relation (saturating).
inline uint64_t LiveCells(uint64_t copies, uint64_t rows, uint64_t columns) {
  return SaturatingMul(copies, SaturatingMul(rows, columns));
}

// Secret-shares a cleartext relation into the MPC, charging per-record ingest and
// storage-layer costs (the dominant cost of linear passes; Fig. 1c).
StatusOr<SharedRelation> InputRelation(SecretShareEngine& engine,
                                       const Relation& input);
// InputRelation's charge: its working-set check, then the ingest.
Status ChargeInput(SimNetwork& network, uint64_t rows, uint64_t columns);

// Opens a shared relation to the computing parties (end of an MPC step).
Relation RevealRelation(SecretShareEngine& engine, const SharedRelation& input);

// The meters one reveal of `cells` shared cells charges, shared by
// RevealRelation and the dispatcher's reveals (opened as RevealSources), so
// every reveal charges alike however its rows are then pulled.
void ChargeRevealMeters(SimNetwork& network, uint64_t cells);

// Column selection/reordering: share-local, no protocol cost.
SharedRelation Project(const SharedRelation& input, std::span<const int> columns);

// Share-wise concatenation of same-schema relations (ConcatShares; no
// protocol cost).
SharedRelation Concat(std::span<const SharedRelation* const> inputs);

// Sorted-merge concat (§5.4): folds same-schema relations, each sorted by
// `key_columns`, through ObliviousMerge.
SharedRelation MergeConcat(SecretShareEngine& engine,
                           std::span<const SharedRelation* const> inputs,
                           std::span<const int> key_columns);
// Requires the branches to total at most 2^62 rows.
void MergeConcatCharges(SimNetwork& network, std::span<const int64_t> branch_rows,
                        uint64_t columns, uint64_t keys);

// Appends a computed column; add/sub/scalar-mul are local, column-mul costs one
// Beaver multiplication per row, div runs the division protocol.
SharedRelation Arithmetic(SecretShareEngine& engine, const SharedRelation& input,
                          const ArithSpec& spec);
void ArithmeticCharges(SimNetwork& network, uint64_t rows, ArithKind kind,
                       bool rhs_is_column);

// Oblivious filter: comparison per row, shuffle, open flags, compact. Reveals the
// number of matching rows only.
StatusOr<SharedRelation> Filter(SecretShareEngine& engine, const SharedRelation& input,
                                const FilterPredicate& predicate);
Status FilterCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                     CompareOp op);

// Assembles a join's output in ops::JoinOutputSchema layout: the keys and left
// non-key columns from left_column(c), then the right non-key columns from
// right_column(c), called once per output column in that order. Every secure join
// assembles its output here.
template <typename LeftColumn, typename RightColumn>
SharedRelation AssembleJoin(const Schema& left, const Schema& right,
                            std::span<const int> left_keys,
                            std::span<const int> right_keys, LeftColumn left_column,
                            RightColumn right_column) {
  std::vector<int> left_rest;
  std::vector<int> right_rest;
  Schema schema = ops::JoinOutputSchema(left, right, left_keys, right_keys,
                                        &left_rest, &right_rest);
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(schema.NumColumns()));
  for (int c : left_keys) {
    columns.push_back(left_column(c));
  }
  for (int c : left_rest) {
    columns.push_back(left_column(c));
  }
  for (int c : right_rest) {
    columns.push_back(right_column(c));
  }
  return SharedRelation(std::move(schema), std::move(columns));
}

// Cartesian-product oblivious join: n*m private equality tests, then compaction.
// Reveals the join's output size only.
StatusOr<SharedRelation> Join(SecretShareEngine& engine, const SharedRelation& left,
                              const SharedRelation& right,
                              std::span<const int> left_keys,
                              std::span<const int> right_keys);
Status JoinCharges(SimNetwork& network, uint64_t left_rows, uint64_t right_rows,
                   uint64_t left_columns, uint64_t right_columns, uint64_t keys,
                   uint64_t out_rows);

// Sorting-network aggregation (Jónsson et al. [39]): oblivious sort by group key,
// adjacent-equality flags, log-depth segmented scan accumulating each group into its
// last row, shuffle, open keep-flags, compact. Reveals the number of groups only.
// If `assume_sorted` (sort-elimination, §5.4), the oblivious sort is skipped.
StatusOr<SharedRelation> Aggregate(SecretShareEngine& engine,
                                   const SharedRelation& input,
                                   std::span<const int> group_columns, AggKind kind,
                                   int agg_column, const std::string& output_name,
                                   bool assume_sorted = false);
// `keys` == 0 prices the global aggregate.
Status AggregateCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                        uint64_t keys, AggKind kind, bool assume_sorted);

// The scan-and-compact tail of the aggregation protocol, factored out so the hybrid
// aggregation (§5.3) can drive it with STP-computed equality flags instead of
// MPC-computed ones. `ordered` must be grouped by the group columns (sorted, or
// STP-ordered); `equal_prev_flags[i]` is a shared 0/1 marking row i as belonging to
// row i-1's group (flag 0 at row 0).
StatusOr<SharedRelation> AggregateWithFlags(SecretShareEngine& engine,
                                            const SharedRelation& ordered,
                                            std::span<const int> group_columns,
                                            AggKind kind, int agg_column,
                                            const std::string& output_name,
                                            const SharedColumn& equal_prev_flags);
void AggregateWithFlagsCharges(SimNetwork& network, uint64_t rows, uint64_t keys,
                               AggKind kind);

// Oblivious window function (f(...) OVER (PARTITION BY p ORDER BY o)): oblivious sort
// by (partition, order) unless `assume_sorted`, adjacent-equality partition flags, and
// a flag-gated linear pass (kLag) or log-depth segmented scan (kRowNumber /
// kRunningSum). Output keeps every input row in sorted order with the computed column
// appended — nothing is compacted or revealed, so the operator leaks nothing.
StatusOr<SharedRelation> Window(SecretShareEngine& engine, const SharedRelation& input,
                                std::span<const int> partition_columns,
                                int order_column, WindowFn fn, int value_column,
                                const std::string& output_name,
                                bool assume_sorted = false);
Status WindowCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                     uint64_t partitions, WindowFn fn, bool assume_sorted);

// The scan tail of the window protocol, factored out so the hybrid window (an
// STP-assisted §5.3-style variant) can drive it with STP-computed partition flags.
// `ordered` must be arranged by (partition, order); `same_partition_flags[i]` is a
// shared 0/1 marking row i as belonging to row i-1's partition (flag 0 at row 0).
StatusOr<SharedRelation> WindowWithFlags(SecretShareEngine& engine,
                                         const SharedRelation& ordered, WindowFn fn,
                                         int value_column,
                                         const std::string& output_name,
                                         const SharedColumn& same_partition_flags);
void WindowWithFlagsCharges(SimNetwork& network, uint64_t rows, WindowFn fn);

// Oblivious sort by columns (Batcher network), as a standalone operator (order-by).
StatusOr<SharedRelation> Sort(SecretShareEngine& engine, const SharedRelation& input,
                              std::span<const int> columns, bool ascending = true,
                              bool assume_sorted = false);
Status SortCharges(SimNetwork& network, uint64_t rows, uint64_t columns, uint64_t keys,
                   bool ascending, bool assume_sorted);

// First `count` rows (public count; meaningful after Sort).
SharedRelation Limit(const SharedRelation& input, int64_t count);

// Distinct rows of the projected columns; reveals the distinct count only.
StatusOr<SharedRelation> Distinct(SecretShareEngine& engine,
                                  const SharedRelation& input,
                                  std::span<const int> columns,
                                  bool assume_sorted = false);
Status DistinctCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                       uint64_t keys, bool assume_sorted);

// Shuffles, opens the 0/1 column `flag_column`, keeps rows with flag == 1, and drops
// the flag column. The building block of all size-revealing compactions; exposed for
// the hybrid aggregation (§5.3, step 8).
SharedRelation ShuffleRevealCompact(SecretShareEngine& engine,
                                    const SharedRelation& input, int flag_column);

// Order-preserving filter: evaluates the predicate per row and returns the secret 0/1
// flag column without compacting, so relation size and row order are untouched. Used
// when downstream operators exploit an established sort order (§5.4): compaction would
// either reshuffle or leak per-row predicate outcomes.
SharedColumn FilterFlags(SecretShareEngine& engine, const SharedRelation& input,
                         const FilterPredicate& predicate);

// Counts distinct values of `key_column` among rows whose keep-flag is 1, assuming
// the relation is sorted by that key (e.g., by a public join). One linear pass:
// a segmented OR over keep-flags plus a boundary sum — the O(n) distinct-count the
// paper credits sort elimination for in aspirin count (§7.4). Returns a 1-row,
// 1-column relation.
StatusOr<SharedRelation> CountDistinctSorted(SecretShareEngine& engine,
                                             const SharedRelation& input,
                                             int key_column,
                                             const SharedColumn& keep_flags,
                                             const std::string& output_name);

}  // namespace mpc
}  // namespace conclave

#endif  // CONCLAVE_MPC_PROTOCOLS_H_
