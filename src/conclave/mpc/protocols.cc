#include "conclave/mpc/protocols.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "conclave/common/cpu.h"
#include "conclave/common/strings.h"
#include "conclave/common/thread_pool.h"

namespace conclave {
namespace mpc {
namespace {

// Shared 0/1 column: row i equals row i-1 on `columns` (index 0 gets flag 0).
// Used by aggregation and distinct after sorting to delimit key groups.
SharedColumn AdjacentEqualFlags(SecretShareEngine& engine, const SharedRelation& input,
                                std::span<const int> columns) {
  const int64_t n = input.NumRows();
  CONCLAVE_CHECK_GT(n, 0);
  SharedColumn equal;
  for (size_t k = 0; k < columns.size(); ++k) {
    const SharedColumn& column = input.Column(columns[k]);
    SharedColumn current = SliceColumn(column, 1, static_cast<size_t>(n - 1));
    SharedColumn previous = SliceColumn(column, 0, static_cast<size_t>(n - 1));
    SharedColumn eq_k = engine.Compare(CompareOp::kEq, current, previous);
    equal = (k == 0) ? std::move(eq_k) : engine.Mul(equal, eq_k);
  }
  // Prepend flag 0 for the first row.
  SharedColumn flags(static_cast<size_t>(n));
  for (int p = 0; p < kNumShareParties; ++p) {
    std::copy(equal.shares[p].begin(), equal.shares[p].end(),
              flags.shares[p].begin() + 1);
  }
  return flags;
}

// The charges opening the sort-based protocols over n > 0 rows: the sort by
// `sort_keys` keys unless pre-sorted, then AdjacentEqualFlags on `flag_keys` keys
// (per key, equality over the n - 1 adjacent pairs, folded by a multiplication).
void SortedFlagsCharges(SimNetwork& network, uint64_t n, uint64_t columns,
                        uint64_t sort_keys, uint64_t flag_keys, bool assume_sorted) {
  if (!assume_sorted) {
    ChargeBatcherNetwork(network, BatcherSortNetwork(static_cast<int64_t>(n)),
                         sort_keys, columns, /*ascending=*/true);
  }
  for (uint64_t k = 0; k < flag_keys; ++k) {
    ChargeCompare(network, CompareOp::kEq, n - 1);
    if (k > 0) {
      ChargeMul(network, n - 1);
    }
  }
}

// How a segmented scan folds each row's in-segment predecessor into it.
enum class ScanCombine { kAdd, kMin, kMax, kOr };

ScanCombine CombineFor(AggKind kind) {
  switch (kind) {
    case AggKind::kMin:
      return ScanCombine::kMin;
    case AggKind::kMax:
      return ScanCombine::kMax;
    default:
      return ScanCombine::kAdd;
  }
}

// The charges of a segmented scan over n rows, level by level in the order of
// each level's steps: the min/max comparison, the combine's mul (all but add),
// the group mux's mul, the flags'.
void ChargeSegmentedScan(SimNetwork& network, uint64_t n, ScanCombine combine) {
  for (uint64_t d = 1; d < n; d *= 2) {
    const uint64_t len = n - d;
    if (combine == ScanCombine::kMin || combine == ScanCombine::kMax) {
      ChargeCompare(network,
                    combine == ScanCombine::kMin ? CompareOp::kLt : CompareOp::kGt, len);
    }
    if (combine != ScanCombine::kAdd) {
      ChargeMul(network, len);
    }
    ChargeMul(network, len);
    ChargeMul(network, len);
  }
}

// Log-depth segmented scan (Hillis-Steele). `flags[i] == 1` means row i is in the
// same group as row i-1; after the scan, the last row of each group holds the
// group's combined value: a sum by addition, min/max by compare+mux, and the OR of
// 0/1 values as a + b - a*b. Level d is one morsel-parallel pass: row i >= d reads
// rows i and i - d of level d/2 and writes a second buffer (an in-place update
// would feed a row's new value to the row d after it), which then swaps in.
void SegmentedScan(SecretShareEngine& engine, SharedColumn& values,
                   const SharedColumn& segment_flags, ScanCombine combine) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n < 2) {
    return;
  }
  ChargeSegmentedScan(engine.network(), static_cast<uint64_t>(n), combine);
  const bool ordered = combine == ScanCombine::kMin || combine == ScanCombine::kMax;
  const CompareOp pick_op = combine == ScanCombine::kMin ? CompareOp::kLt
                                                         : CompareOp::kGt;
  SharedColumn flags = segment_flags;
  SharedColumn next_values(static_cast<size_t>(n));
  SharedColumn next_flags(static_cast<size_t>(n));
  TripleDealer& dealer = engine.dealer();
  for (int64_t d = 1; d < n; d *= 2) {
    // Each level's randomness, claimed in the order of its charges.
    const size_t len = static_cast<size_t>(n - d);
    CounterRng pick_masks;
    CounterRng combine_triples;
    if (ordered) {
      pick_masks = engine.NewStream();
    }
    if (combine != ScanCombine::kAdd) {
      combine_triples = dealer.ClaimBatch(len);
    }
    const CounterRng mux_triples = dealer.ClaimBatch(len);
    const CounterRng flag_triples = dealer.ClaimBatch(len);

    ParallelFor(
        0, n,
        [&](int64_t begin, int64_t end) {
          // Rows before d keep their value and flag.
          for (int64_t row = begin; row < std::min(end, d); ++row) {
            const size_t i = static_cast<size_t>(row);
            for (int p = 0; p < kNumShareParties; ++p) {
              next_values.shares[p][i] = values.shares[p][i];
              next_flags.shares[p][i] = flags.shares[p][i];
            }
          }
          int64_t lhs[kFusedBlockRows] = {};
          int64_t rhs[kFusedBlockRows] = {};
          uint8_t bits[kFusedBlockRows] = {};
          ShareBlock pick;
          ShareBlock step;
          BeaverBlock beaver;
          for (int64_t row = std::max(begin, d); row < end;
               row += static_cast<int64_t>(kFusedBlockRows)) {
            const size_t len = std::min(kFusedBlockRows, static_cast<size_t>(end - row));
            const size_t i = static_cast<size_t>(row);
            const size_t j = static_cast<size_t>(row - d);  // Also the stream index.
            const ConstShareRun cur = RunOf(std::as_const(values), i);
            const ConstShareRun shifted = RunOf(std::as_const(values), j);
            const ConstShareRun cur_flag = RunOf(std::as_const(flags), i);
            // delta = combine(cur, shifted) - cur, share by share (ring arithmetic is
            // exact): shifted for a sum, pick * (shifted - cur) for min/max, and
            // shifted - cur * shifted for OR.
            ConstShareRun delta = shifted;
            switch (combine) {
              case ScanCombine::kAdd:
                break;
              case ScanCombine::kMin:
              case ScanCombine::kMax:
                cpu::Add3U64(shifted.p[0], shifted.p[1], shifted.p[2], len,
                             reinterpret_cast<uint64_t*>(lhs));
                cpu::Add3U64(cur.p[0], cur.p[1], cur.p[2], len,
                             reinterpret_cast<uint64_t*>(rhs));
                SecretShareEngine::ShareComparison(pick_op, lhs, rhs, len, pick_masks,
                                                   j, bits, pick.run());
                for (int p = 0; p < kNumShareParties; ++p) {
                  cpu::SubU64(shifted.p[p], cur.p[p], len, step.s[p]);
                }
                beaver.Mul(combine_triples, j, len, pick.run(), step.run(), step.run());
                delta = step.run();
                break;
              case ScanCombine::kOr:
                beaver.Mul(combine_triples, j, len, cur, shifted, step.run());
                for (int p = 0; p < kNumShareParties; ++p) {
                  cpu::SubU64(shifted.p[p], step.s[p], len, step.s[p]);
                }
                delta = step.run();
                break;
            }
            // Only rows still inside their segment absorb the combined value.
            beaver.Mul(mux_triples, j, len, cur_flag, delta, step.run());
            const ShareRun out = RunOf(next_values, i);
            for (int p = 0; p < kNumShareParties; ++p) {
              cpu::AddU64(cur.p[p], step.s[p], len, out.p[p]);
            }
            beaver.Mul(flag_triples, j, len, cur_flag, RunOf(std::as_const(flags), j),
                       RunOf(next_flags, i));
          }
        },
        kMpcFusedGrainRows);
    std::swap(values, next_values);
    std::swap(flags, next_flags);
  }
}

// Shared 0/1 column: row i is the last of its group, i.e. NOT equal_prev[i+1]; the
// last row always is. Share-local.
SharedColumn LastOfGroupFlags(const SharedColumn& equal_prev) {
  const size_t n = equal_prev.size();
  SharedColumn last(n);
  const SharedColumn not_next =
      SecretShareEngine::Sub(SecretShareEngine::PublicConst(n - 1, 1),
                             SliceColumn(equal_prev, 1, n - 1));
  for (int p = 0; p < kNumShareParties; ++p) {
    std::copy(not_next.shares[p].begin(), not_next.shares[p].end(),
              last.shares[p].begin());
    last.shares[p][n - 1] = 0;
  }
  last.shares[0][n - 1] = 1;
  return last;
}

// The empty result of an aggregation: the group columns plus the output column.
SharedRelation EmptyAggregate(const Schema& input, std::span<const int> group_columns,
                              const std::string& output_name) {
  std::vector<ColumnDef> defs;
  for (int c : group_columns) {
    defs.push_back(input.Column(c));
  }
  defs.emplace_back(output_name);
  std::vector<SharedColumn> empty_columns(defs.size(), SharedColumn(0));
  return SharedRelation(Schema(std::move(defs)), std::move(empty_columns));
}

SharedRelation GatherRows(const SharedRelation& input,
                          std::span<const int64_t> rows) {
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(input.NumColumns()));
  for (int c = 0; c < input.NumColumns(); ++c) {
    columns.push_back(GatherColumn(input.Column(c), rows));
  }
  return SharedRelation(input.schema(), std::move(columns));
}

// ShuffleRevealCompact's charges over a rows x columns relation.
void ShuffleRevealCompactCharges(SimNetwork& network, uint64_t rows, uint64_t columns) {
  ChargeObliviousShuffle(network, rows * columns);
  ChargeOpen(network, rows);
}

// The Cartesian join's match phase: n * m * keys equality tests in one
// kSsJoinRounds-deep batch.
void ChargeJoinMatch(SimNetwork& network, uint64_t n, uint64_t m, uint64_t keys) {
  const uint64_t pairs = SaturatingMul(SaturatingMul(n, m), keys);
  const SsCharge charge = network.model().SsChargeFor(SsPrimitive::kEquality);
  network.CpuSeconds(static_cast<double>(pairs) * charge.seconds);
  network.CountAggregateBytes(pairs * charge.bytes);
  network.Rounds(kSsJoinRounds);
  network.mutable_counters().mpc_comparisons += pairs;
}

}  // namespace

Status CheckWorkingSet(const CostModel& model, uint64_t live_cells, const char* what) {
  const uint64_t bytes = SaturatingMul(live_cells, model.ss_bytes_per_resident_cell);
  if (bytes > model.ss_memory_limit_bytes) {
    return ResourceExhaustedError(StrFormat(
        "Sharemind VM out of memory (%s): working set %s exceeds limit %s", what,
        HumanBytes(bytes).c_str(), HumanBytes(model.ss_memory_limit_bytes).c_str()));
  }
  return Status::Ok();
}

Status ChargeInput(SimNetwork& network, uint64_t rows, uint64_t columns) {
  const CostModel& model = network.model();
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(model, LiveCells(2, rows, columns), "ingest"));
  const SsCharge charge = model.SsChargeFor(SsPrimitive::kRecordIngest);
  network.CpuSeconds(static_cast<double>(rows) * charge.seconds);
  network.CountAggregateBytes(rows * columns * charge.bytes);
  network.Rounds(charge.rounds);
  return Status::Ok();
}

StatusOr<SharedRelation> InputRelation(SecretShareEngine& engine,
                                       const Relation& input) {
  CONCLAVE_RETURN_IF_ERROR(ChargeInput(engine.network(),
                                       static_cast<uint64_t>(input.NumRows()),
                                       static_cast<uint64_t>(input.NumColumns())));
  // Zero-copy ingest: each relation column is a contiguous buffer, and sharing is
  // one morsel-parallel pass straight over its span — no gathers, no copies.
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(input.NumColumns()));
  for (int c = 0; c < input.NumColumns(); ++c) {
    columns.push_back(engine.ShareColumn(input, c));
  }
  return SharedRelation(input.schema(), std::move(columns));
}

Relation RevealRelation(SecretShareEngine& engine, const SharedRelation& input) {
  ChargeRevealMeters(engine.network(), input.NumCells());
  return ReconstructRelation(input);
}

void ChargeRevealMeters(SimNetwork& network, uint64_t cells) {
  ChargeSsBatch(network, SsPrimitive::kReveal, cells);
}

SharedRelation Project(const SharedRelation& input, std::span<const int> columns) {
  std::vector<ColumnDef> defs;
  std::vector<SharedColumn> data;
  defs.reserve(columns.size());
  data.reserve(columns.size());
  for (int c : columns) {
    defs.push_back(input.schema().Column(c));
    data.push_back(input.Column(c));
  }
  return SharedRelation(Schema(std::move(defs)), std::move(data));
}

SharedRelation Concat(std::span<const SharedRelation* const> inputs) {
  return ConcatShares(inputs);
}

SharedRelation MergeConcat(SecretShareEngine& engine,
                           std::span<const SharedRelation* const> inputs,
                           std::span<const int> key_columns) {
  SharedRelation merged = *inputs[0];
  for (const SharedRelation* input : inputs.subspan(1)) {
    merged = ObliviousMerge(engine, merged, *input, key_columns);
  }
  return merged;
}

void MergeConcatCharges(SimNetwork& network, std::span<const int64_t> branch_rows,
                        uint64_t columns, uint64_t keys) {
  int64_t merged = branch_rows[0];
  for (int64_t branch : branch_rows.subspan(1)) {
    ChargeBatcherNetwork(network, ObliviousMergeLayers(merged, branch), keys, columns,
                         /*ascending=*/true);
    merged += branch;
  }
}

SharedRelation Arithmetic(SecretShareEngine& engine, const SharedRelation& input,
                          const ArithSpec& spec) {
  const SharedColumn& lhs = input.Column(spec.lhs_column);
  SharedColumn rhs;
  if (spec.rhs_is_column) {
    rhs = input.Column(spec.rhs_column);
  } else {
    rhs = SecretShareEngine::PublicConst(static_cast<size_t>(input.NumRows()),
                                         spec.rhs_literal);
  }

  SharedColumn result;
  switch (spec.kind) {
    case ArithKind::kAdd:
      result = SecretShareEngine::Add(lhs, rhs);
      break;
    case ArithKind::kSub:
      result = SecretShareEngine::Sub(lhs, rhs);
      break;
    case ArithKind::kMul:
      if (spec.rhs_is_column) {
        result = engine.Mul(lhs, rhs);
      } else {
        result = SecretShareEngine::MulConst(lhs, spec.rhs_literal);
      }
      break;
    case ArithKind::kDiv:
      result = engine.Div(lhs, rhs, spec.scale);
      break;
  }

  SharedRelation output = input;
  output.AppendColumn(ColumnDef(spec.result_name), std::move(result));
  return output;
}

void ArithmeticCharges(SimNetwork& network, uint64_t rows, ArithKind kind,
                       bool rhs_is_column) {
  if (kind == ArithKind::kMul && rhs_is_column) {
    ChargeMul(network, rows);
  } else if (kind == ArithKind::kDiv) {
    ChargeDiv(network, rows);
  }
}

SharedRelation ShuffleRevealCompact(SecretShareEngine& engine,
                                    const SharedRelation& input, int flag_column) {
  SharedRelation shuffled = ObliviousShuffle(engine, input);
  const std::vector<int64_t> flags = engine.Open(shuffled.Column(flag_column));
  std::vector<int64_t> kept;
  for (size_t i = 0; i < flags.size(); ++i) {
    CONCLAVE_CHECK(flags[i] == 0 || flags[i] == 1);
    if (flags[i] == 1) {
      kept.push_back(static_cast<int64_t>(i));
    }
  }
  SharedRelation compacted = GatherRows(shuffled, kept);
  compacted.DropColumn(flag_column);
  return compacted;
}

StatusOr<SharedRelation> Filter(SecretShareEngine& engine, const SharedRelation& input,
                                const FilterPredicate& predicate) {
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(engine.network().model(), 3 * input.NumCells(), "filter"));

  SharedRelation flagged = input;
  flagged.AppendColumn(ColumnDef("__flag"), FilterFlags(engine, input, predicate));
  return ShuffleRevealCompact(engine, flagged, flagged.NumColumns() - 1);
}

Status FilterCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                     CompareOp op) {
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(network.model(), LiveCells(3, rows, columns), "filter"));
  ChargeCompare(network, op, rows);
  ShuffleRevealCompactCharges(network, rows, columns + 1);
  return Status::Ok();
}

StatusOr<SharedRelation> Join(SecretShareEngine& engine, const SharedRelation& left,
                              const SharedRelation& right,
                              std::span<const int> left_keys,
                              std::span<const int> right_keys) {
  const uint64_t n = static_cast<uint64_t>(left.NumRows());
  const uint64_t m = static_cast<uint64_t>(right.NumRows());

  // Cartesian-product protocol cost: one private equality test per row pair (per key
  // column). Conclave's motivation in a nutshell: this is O(n*m) however small the
  // output.
  ChargeJoinMatch(engine.network(), n, m, left_keys.size());

  // Ideal match step: keys reconstructed internally, matches found in cleartext.
  std::vector<int> key_positions(left_keys.size());
  std::iota(key_positions.begin(), key_positions.end(), 0);
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  ops::JoinRowPairs(ReconstructRelation(Project(left, left_keys)),
                    ReconstructRelation(Project(right, right_keys)), key_positions,
                    key_positions, &left_rows, &right_rows);

  const uint64_t out_columns = static_cast<uint64_t>(
      left.NumColumns() + right.NumColumns() - static_cast<int>(left_keys.size()));
  CONCLAVE_RETURN_IF_ERROR(CheckWorkingSet(
      engine.network().model(),
      left.NumCells() + right.NumCells() + left_rows.size() * out_columns, "join"));

  // Shuffle so the revealed output carries no row-alignment information.
  return ObliviousShuffle(
      engine,
      AssembleJoin(
          left.schema(), right.schema(), left_keys, right_keys,
          [&](int c) { return engine.GatherRerandomize(left.Column(c), left_rows); },
          [&](int c) {
            return engine.GatherRerandomize(right.Column(c), right_rows);
          }));
}

Status JoinCharges(SimNetwork& network, uint64_t left_rows, uint64_t right_rows,
                   uint64_t left_columns, uint64_t right_columns, uint64_t keys,
                   uint64_t out_rows) {
  ChargeJoinMatch(network, left_rows, right_rows, keys);
  const uint64_t out_columns = left_columns + right_columns - keys;
  const uint64_t live = SaturatingAdd(LiveCells(1, left_rows, left_columns),
                                      LiveCells(1, right_rows, right_columns));
  CONCLAVE_RETURN_IF_ERROR(CheckWorkingSet(
      network.model(), SaturatingAdd(live, LiveCells(1, out_rows, out_columns)),
      "join"));
  ChargeObliviousShuffle(network, out_rows * out_columns);
  return Status::Ok();
}

StatusOr<SharedRelation> Aggregate(SecretShareEngine& engine,
                                   const SharedRelation& input,
                                   std::span<const int> group_columns, AggKind kind,
                                   int agg_column, const std::string& output_name,
                                   bool assume_sorted) {
  const int64_t n = input.NumRows();

  // Zero rows aggregate to zero groups (matching the cleartext engine), for global
  // and grouped aggregations alike.
  if (n == 0) {
    return EmptyAggregate(input.schema(), group_columns, output_name);
  }

  // Global aggregate (no group-by): sums/counts are share-local; min/max use a
  // batched compare-exchange tree.
  if (group_columns.empty()) {
    std::vector<ColumnDef> defs{ColumnDef(output_name)};
    SharedColumn result(1);
    if (kind == AggKind::kSum || kind == AggKind::kCount || kind == AggKind::kMean) {
      SharedColumn acc(1);
      SharedColumn count(1);
      for (int p = 0; p < kNumShareParties; ++p) {
        // Morsel-parallel partials, folded in fixed chunk order (DESIGN.md §5).
        acc.shares[p][0] =
            kind == AggKind::kCount ? 0 : RingSum(input.Column(agg_column).shares[p]);
      }
      if (kind == AggKind::kCount) {
        acc.shares[0][0] = static_cast<Ring>(n);
      }
      if (kind == AggKind::kMean) {
        count.shares[0][0] = static_cast<Ring>(n);
        acc = engine.Div(acc, count, 1);
      }
      result = std::move(acc);
    } else {
      CONCLAVE_CHECK_GT(n, 0);
      SharedColumn current = input.Column(agg_column);
      while (current.size() > 1) {
        const size_t half = current.size() / 2;
        SharedColumn a = SliceColumn(current, 0, half);
        SharedColumn b = SliceColumn(current, half, half);
        SharedColumn pick = engine.Compare(
            kind == AggKind::kMin ? CompareOp::kLt : CompareOp::kGt, a, b);
        SharedColumn winner = engine.Mux(pick, a, b);
        if (current.size() % 2 == 1) {
          // Odd element rides along to the next level.
          SharedColumn odd = SliceColumn(current, current.size() - 1, 1);
          SharedColumn next(half + 1);
          for (int p = 0; p < kNumShareParties; ++p) {
            std::copy(winner.shares[p].begin(), winner.shares[p].end(),
                      next.shares[p].begin());
            next.shares[p][half] = odd.shares[p][0];
          }
          current = std::move(next);
        } else {
          current = std::move(winner);
        }
      }
      result = std::move(current);
    }
    std::vector<SharedColumn> columns{std::move(result)};
    return SharedRelation(Schema(std::move(defs)), std::move(columns));
  }

  CONCLAVE_CHECK_GT(n, 0);
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(engine.network().model(), 3 * input.NumCells(), "aggregate"));

  // Step 1: arrange rows into key groups (oblivious sort, unless already sorted).
  SharedRelation sorted =
      assume_sorted ? input : ObliviousSort(engine, input, group_columns);

  // Step 2: group-delimiting flags, computed under MPC.
  SharedColumn eq_flags = AdjacentEqualFlags(engine, sorted, group_columns);

  return AggregateWithFlags(engine, sorted, group_columns, kind, agg_column,
                            output_name, eq_flags);
}

Status AggregateCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                        uint64_t keys, AggKind kind, bool assume_sorted) {
  if (rows == 0) {
    return Status::Ok();
  }
  if (keys == 0) {
    if (kind == AggKind::kMean) {
      ChargeDiv(network, 1);
    } else if (kind == AggKind::kMin || kind == AggKind::kMax) {
      for (uint64_t size = rows; size > 1;) {
        const uint64_t half = size / 2;
        ChargeCompare(network, kind == AggKind::kMin ? CompareOp::kLt : CompareOp::kGt,
                      half);
        ChargeMul(network, half);
        size = half + size % 2;
      }
    }
    return Status::Ok();
  }
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(network.model(), LiveCells(3, rows, columns), "aggregate"));
  SortedFlagsCharges(network, rows, columns, keys, keys, assume_sorted);
  AggregateWithFlagsCharges(network, rows, keys, kind);
  return Status::Ok();
}

StatusOr<SharedRelation> AggregateWithFlags(SecretShareEngine& engine,
                                            const SharedRelation& ordered,
                                            std::span<const int> group_columns,
                                            AggKind kind, int agg_column,
                                            const std::string& output_name,
                                            const SharedColumn& equal_prev_flags) {
  const int64_t n = ordered.NumRows();
  CONCLAVE_CHECK_EQ(equal_prev_flags.size(), static_cast<size_t>(n));
  if (n == 0) {
    return EmptyAggregate(ordered.schema(), group_columns, output_name);
  }

  // Segmented scan accumulates each group into its last row. Mean runs two chained
  // scans (sum and count) and divides.
  SharedColumn values;
  if (kind == AggKind::kCount) {
    values = SecretShareEngine::PublicConst(static_cast<size_t>(n), 1);
  } else {
    values = ordered.Column(agg_column);
  }
  SegmentedScan(engine, values, equal_prev_flags, CombineFor(kind));
  if (kind == AggKind::kMean) {
    SharedColumn counts = SecretShareEngine::PublicConst(static_cast<size_t>(n), 1);
    SegmentedScan(engine, counts, equal_prev_flags, ScanCombine::kAdd);
    values = engine.Div(values, counts, 1);
  }

  // Keep-flag = row is the last of its group.
  SharedColumn keep = LastOfGroupFlags(equal_prev_flags);

  // Assemble group columns + aggregate + keep flag; shuffle/open/compact.
  std::vector<ColumnDef> defs;
  std::vector<SharedColumn> columns;
  for (int c : group_columns) {
    defs.push_back(ordered.schema().Column(c));
    columns.push_back(ordered.Column(c));
  }
  defs.emplace_back(output_name);
  columns.push_back(std::move(values));
  defs.emplace_back("__keep");
  columns.push_back(std::move(keep));
  SharedRelation flagged(Schema(std::move(defs)), std::move(columns));
  return ShuffleRevealCompact(engine, flagged, flagged.NumColumns() - 1);
}

void AggregateWithFlagsCharges(SimNetwork& network, uint64_t rows, uint64_t keys,
                               AggKind kind) {
  if (rows == 0) {
    return;
  }
  ChargeSegmentedScan(network, rows, CombineFor(kind));
  if (kind == AggKind::kMean) {
    ChargeSegmentedScan(network, rows, ScanCombine::kAdd);
    ChargeDiv(network, rows);
  }
  // The group columns, the aggregate and the keep flag.
  ShuffleRevealCompactCharges(network, rows, keys + 2);
}

StatusOr<SharedRelation> Window(SecretShareEngine& engine, const SharedRelation& input,
                                std::span<const int> partition_columns,
                                int order_column, WindowFn fn, int value_column,
                                const std::string& output_name, bool assume_sorted) {
  const int64_t n = input.NumRows();

  std::vector<ColumnDef> defs = input.schema().columns();
  defs.emplace_back(output_name);
  if (n == 0) {
    std::vector<SharedColumn> empty_columns(defs.size(), SharedColumn(0));
    return SharedRelation(Schema(std::move(defs)), std::move(empty_columns));
  }
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(engine.network().model(), 3 * input.NumCells(), "window"));

  std::vector<int> sort_columns(partition_columns.begin(), partition_columns.end());
  sort_columns.push_back(order_column);
  SharedRelation sorted =
      assume_sorted ? input : ObliviousSort(engine, input, sort_columns);

  // 0/1 flags marking rows in the same partition as their predecessor.
  SharedColumn same_partition = AdjacentEqualFlags(engine, sorted, partition_columns);
  return WindowWithFlags(engine, sorted, fn, value_column, output_name,
                         same_partition);
}

Status WindowCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                     uint64_t partitions, WindowFn fn, bool assume_sorted) {
  if (rows == 0) {
    return Status::Ok();
  }
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(network.model(), LiveCells(3, rows, columns), "window"));
  SortedFlagsCharges(network, rows, columns, partitions + 1, partitions, assume_sorted);
  WindowWithFlagsCharges(network, rows, fn);
  return Status::Ok();
}

StatusOr<SharedRelation> WindowWithFlags(SecretShareEngine& engine,
                                         const SharedRelation& ordered, WindowFn fn,
                                         int value_column,
                                         const std::string& output_name,
                                         const SharedColumn& same_partition_flags) {
  const int64_t n = ordered.NumRows();
  CONCLAVE_CHECK_EQ(same_partition_flags.size(), static_cast<size_t>(n));
  std::vector<ColumnDef> defs = ordered.schema().columns();
  defs.emplace_back(output_name);
  if (n == 0) {
    std::vector<SharedColumn> empty_columns(defs.size(), SharedColumn(0));
    return SharedRelation(Schema(std::move(defs)), std::move(empty_columns));
  }

  SharedColumn computed;
  switch (fn) {
    case WindowFn::kRowNumber: {
      SharedColumn ones = SecretShareEngine::PublicConst(static_cast<size_t>(n), 1);
      SegmentedScan(engine, ones, same_partition_flags, ScanCombine::kAdd);
      computed = std::move(ones);
      break;
    }
    case WindowFn::kLag: {
      // lag[i] = same_partition[i] * value[i-1]; the flag is 0/1, so one Beaver
      // multiplication per row gates the shifted value to 0 at partition starts.
      const SharedColumn& values = ordered.Column(value_column);
      SharedColumn shifted(static_cast<size_t>(n));
      for (int p = 0; p < kNumShareParties; ++p) {
        std::copy(values.shares[p].begin(), values.shares[p].end() - 1,
                  shifted.shares[p].begin() + 1);
      }
      computed = engine.Mul(same_partition_flags, shifted);
      break;
    }
    case WindowFn::kRunningSum: {
      SharedColumn values = ordered.Column(value_column);
      SegmentedScan(engine, values, same_partition_flags, ScanCombine::kAdd);
      computed = std::move(values);
      break;
    }
  }

  std::vector<SharedColumn> columns;
  columns.reserve(defs.size());
  for (int c = 0; c < ordered.NumColumns(); ++c) {
    columns.push_back(ordered.Column(c));
  }
  columns.push_back(std::move(computed));
  return SharedRelation(Schema(std::move(defs)), std::move(columns));
}

void WindowWithFlagsCharges(SimNetwork& network, uint64_t rows, WindowFn fn) {
  if (fn == WindowFn::kLag) {
    ChargeMul(network, rows);
  } else {
    ChargeSegmentedScan(network, rows, ScanCombine::kAdd);  // Row number, running sum.
  }
}

StatusOr<SharedRelation> Sort(SecretShareEngine& engine, const SharedRelation& input,
                              std::span<const int> columns, bool ascending,
                              bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(engine.network().model(), 2 * input.NumCells(), "sort"));
  if (assume_sorted || input.NumRows() == 0) {
    return input;
  }
  return ObliviousSort(engine, input, columns, ascending);
}

Status SortCharges(SimNetwork& network, uint64_t rows, uint64_t columns, uint64_t keys,
                   bool ascending, bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(network.model(), LiveCells(2, rows, columns), "sort"));
  if (!assume_sorted && rows > 0) {
    ChargeBatcherNetwork(network, BatcherSortNetwork(static_cast<int64_t>(rows)), keys,
                         columns, ascending);
  }
  return Status::Ok();
}

SharedRelation Limit(const SharedRelation& input, int64_t count) {
  CONCLAVE_CHECK_GE(count, 0);
  const size_t kept = static_cast<size_t>(std::min(count, input.NumRows()));
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(input.NumColumns()));
  for (int c = 0; c < input.NumColumns(); ++c) {
    columns.push_back(SliceColumn(input.Column(c), 0, kept));
  }
  return SharedRelation(input.schema(), std::move(columns));
}

StatusOr<SharedRelation> Distinct(SecretShareEngine& engine,
                                  const SharedRelation& input,
                                  std::span<const int> columns, bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(engine.network().model(), 3 * input.NumCells(), "distinct"));
  SharedRelation projected = Project(input, columns);
  if (projected.NumRows() == 0) {
    return projected;
  }
  std::vector<int> all_columns(static_cast<size_t>(projected.NumColumns()));
  for (size_t i = 0; i < all_columns.size(); ++i) {
    all_columns[i] = static_cast<int>(i);
  }
  SharedRelation sorted =
      assume_sorted ? projected : ObliviousSort(engine, projected, all_columns);
  SharedColumn eq_flags = AdjacentEqualFlags(engine, sorted, all_columns);
  // Keep the first row of each run: keep = 1 - equal-to-previous.
  const int64_t n = sorted.NumRows();
  SharedColumn keep = SecretShareEngine::Sub(
      SecretShareEngine::PublicConst(static_cast<size_t>(n), 1), eq_flags);
  sorted.AppendColumn(ColumnDef("__keep"), std::move(keep));
  return ShuffleRevealCompact(engine, sorted, sorted.NumColumns() - 1);
}

Status DistinctCharges(SimNetwork& network, uint64_t rows, uint64_t columns,
                       uint64_t keys, bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(
      CheckWorkingSet(network.model(), LiveCells(3, rows, columns), "distinct"));
  if (rows == 0) {
    return Status::Ok();
  }
  // The sort and the flags run over the projected keys alone.
  SortedFlagsCharges(network, rows, keys, keys, keys, assume_sorted);
  ShuffleRevealCompactCharges(network, rows, keys + 1);
  return Status::Ok();
}

SharedColumn FilterFlags(SecretShareEngine& engine, const SharedRelation& input,
                         const FilterPredicate& predicate) {
  if (predicate.rhs_is_column) {
    return engine.Compare(predicate.op, input.Column(predicate.column),
                          input.Column(predicate.rhs_column));
  }
  return engine.CompareConst(predicate.op, input.Column(predicate.column),
                             predicate.rhs_literal);
}

StatusOr<SharedRelation> CountDistinctSorted(SecretShareEngine& engine,
                                             const SharedRelation& input,
                                             int key_column,
                                             const SharedColumn& keep_flags,
                                             const std::string& output_name) {
  const int64_t n = input.NumRows();
  CONCLAVE_CHECK_EQ(keep_flags.size(), static_cast<size_t>(n));
  std::vector<ColumnDef> defs{ColumnDef(output_name)};
  if (n == 0) {
    SharedColumn zero(1);
    std::vector<SharedColumn> columns{std::move(zero)};
    return SharedRelation(Schema(std::move(defs)), std::move(columns));
  }
  CONCLAVE_RETURN_IF_ERROR(CheckWorkingSet(engine.network().model(),
                                           3 * input.NumCells(), "count distinct"));

  // Segmented OR-scan of the keep flags over key groups: after the scan, the last
  // row of each group holds "group has any kept row". Count = sum over groups of
  // the group-OR at the last row — a local share addition after one multiplication.
  const int key_columns[] = {key_column};
  const SharedColumn segment = AdjacentEqualFlags(engine, input, key_columns);
  SharedColumn group_or = keep_flags;
  SegmentedScan(engine, group_or, segment, ScanCombine::kOr);
  const SharedColumn is_last = LastOfGroupFlags(segment);
  SharedColumn contributions = engine.Mul(is_last, group_or);
  SharedColumn total(1);
  for (int p = 0; p < kNumShareParties; ++p) {
    total.shares[p][0] = RingSum(contributions.shares[p]);
  }
  std::vector<SharedColumn> columns{std::move(total)};
  return SharedRelation(Schema(std::move(defs)), std::move(columns));
}

}  // namespace mpc
}  // namespace conclave
