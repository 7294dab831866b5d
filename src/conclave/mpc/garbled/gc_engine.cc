#include "conclave/mpc/garbled/gc_engine.h"

#include "conclave/common/strings.h"

namespace conclave {
namespace gc {
namespace {

uint64_t Rows(const Relation& relation) {
  return static_cast<uint64_t>(relation.NumRows());
}
uint64_t Cols(const Relation& relation) {
  return static_cast<uint64_t>(relation.NumColumns());
}

}  // namespace

Status ChargeCircuit(SimNetwork& network, const GcOpCost& cost, const char* op_name,
                     double slowdown) {
  const CostModel& model = network.model();
  if (cost.live_state_bytes > model.gc_memory_limit_bytes) {
    return ResourceExhaustedError(StrFormat(
        "garbled-circuit %s out of memory: %s live state exceeds limit %s", op_name,
        HumanBytes(cost.live_state_bytes).c_str(),
        HumanBytes(model.gc_memory_limit_bytes).c_str()));
  }
  network.CpuSeconds(static_cast<double>(cost.and_gates) *
                     model.gc_seconds_per_and_gate * slowdown);
  network.CountAggregateBytes(cost.and_gates * model.gc_bytes_per_and_gate);
  network.Rounds(2);  // Garbled circuits are constant-round.
  network.mutable_counters().gc_and_gates += cost.and_gates;
  return Status::Ok();
}

Status ChargeInputLabels(SimNetwork& network, uint64_t rows, uint64_t cols) {
  const CostModel& model = network.model();
  const uint64_t bits = SaturatingMul(SaturatingMul(rows, cols), 64);
  // Wire labels for the evaluator's input bits travel via oblivious transfer:
  // one 16 B label per bit (plus OT overhead folded into the constant).
  const uint64_t label_bytes = SaturatingMul(bits, 16);
  network.CountAggregateBytes(label_bytes);
  network.CpuSeconds(model.SecondsForBytes(label_bytes));
  network.Rounds(2);
  const uint64_t live = SaturatingMul(bits, model.gc_bytes_per_live_bit);
  if (live > model.gc_memory_limit_bytes) {
    return ResourceExhaustedError(
        StrFormat("garbled-circuit input out of memory: %s live state",
                  HumanBytes(live).c_str()));
  }
  return Status::Ok();
}

StatusOr<Relation> GcEngine::Project(const Relation& input,
                                     std::span<const int> columns) {
  // Wire re-bundling costs no gates, but input and output labels stay live.
  CONCLAVE_RETURN_IF_ERROR(Charge(
      LinearPassCost(model(), Rows(input), Cols(input), columns.size(), 0), "project"));
  return ops::Project(input, columns);
}

StatusOr<Relation> GcEngine::Filter(const Relation& input,
                                    const FilterPredicate& predicate) {
  CONCLAVE_RETURN_IF_ERROR(
      Charge(FilterCost(model(), Rows(input), Cols(input), predicate.op), "filter"));
  return ops::Filter(input, predicate);
}

StatusOr<Relation> GcEngine::Join(const Relation& left, const Relation& right,
                                  std::span<const int> left_keys,
                                  std::span<const int> right_keys) {
  CONCLAVE_RETURN_IF_ERROR(Charge(JoinCost(model(), Rows(left), Rows(right), Cols(left),
                                           Cols(right), left_keys.size()),
                                  "join"));
  return ops::Join(left, right, left_keys, right_keys);
}

StatusOr<Relation> GcEngine::Aggregate(const Relation& input,
                                       std::span<const int> group_columns,
                                       AggKind kind, int agg_column,
                                       const std::string& output_name,
                                       bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(Charge(AggregateCost(model(), Rows(input), Cols(input),
                                                group_columns.size(), assume_sorted),
                                  "aggregate"));
  return ops::Aggregate(input, group_columns, kind, agg_column, output_name);
}

StatusOr<Relation> GcEngine::Window(const Relation& input, const WindowSpec& spec,
                                    bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(Charge(WindowCost(model(), Rows(input), Cols(input),
                                             spec.partition_columns.size(),
                                             assume_sorted),
                                  "window"));
  return ops::Window(input, spec);
}

StatusOr<Relation> GcEngine::Sort(const Relation& input, std::span<const int> columns,
                                  bool ascending, bool assume_sorted) {
  if (assume_sorted) {
    return input;
  }
  CONCLAVE_RETURN_IF_ERROR(
      Charge(SortCost(model(), Rows(input), Cols(input), columns.size()), "sort"));
  return ops::SortBy(input, columns, ascending);
}

StatusOr<Relation> GcEngine::Distinct(const Relation& input,
                                      std::span<const int> columns,
                                      bool assume_sorted) {
  CONCLAVE_RETURN_IF_ERROR(Charge(
      DistinctCost(model(), Rows(input), columns.size(), assume_sorted), "distinct"));
  return ops::Distinct(input, columns);
}

StatusOr<Relation> GcEngine::Concat(std::span<const Relation* const> inputs) {
  uint64_t rows = 0;
  for (const Relation* rel : inputs) {
    rows += Rows(*rel);
  }
  const uint64_t cols = inputs.empty() ? 0 : Cols(*inputs[0]);
  CONCLAVE_RETURN_IF_ERROR(
      Charge(LinearPassCost(model(), rows, cols, cols, 0), "concat"));
  return ops::Concat(inputs);
}

StatusOr<Relation> GcEngine::Arithmetic(const Relation& input, const ArithSpec& spec) {
  CONCLAVE_RETURN_IF_ERROR(Charge(
      ArithmeticCost(model(), Rows(input), Cols(input), spec.kind), "arithmetic"));
  return ops::Arithmetic(input, spec);
}

StatusOr<Relation> GcEngine::Limit(const Relation& input, int64_t count) {
  CONCLAVE_RETURN_IF_ERROR(
      Charge(LimitCost(model(), Rows(input), Cols(input), count), "limit"));
  return ops::Limit(input, count);
}

}  // namespace gc
}  // namespace conclave
