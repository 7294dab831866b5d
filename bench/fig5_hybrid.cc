// Figure 5: hybrid operator microbenchmarks (§7.2).
//
// Panel (a): join on trust-annotated keys — Sharemind's Cartesian MPC join vs.
// Conclave's hybrid join (STP learns keys) vs. Conclave's public join (keys public).
// Panel (b): grouped aggregation — Sharemind's sorting-network aggregation vs.
// Conclave's hybrid aggregation (STP sorts in the clear).
//
// Expected shape: the MPC join/aggregation blow up (O(n^2) equality tests /
// O(n log^2 n) oblivious comparisons); the hybrid operators scale near-linearly; the
// public join is cheapest (no MPC at all) and completes at 2M records, where the
// hybrid join's MPC step exhausts Sharemind's memory — all mirroring the paper.
#include <cmath>

#include "bench/bench_util.h"
#include "conclave/data/generators.h"
#include "conclave/hybrid/hybrid_agg.h"
#include "conclave/hybrid/hybrid_join.h"
#include "conclave/hybrid/public_join.h"
#include "conclave/mpc/garbled/gc_cost.h"

namespace conclave {
namespace {

using bench::Cell;
using bench::kTimeBudgetSeconds;

const CostModel kModel;
constexpr PartyId kStp = 2;
constexpr int kParties = 3;

double Log2(double x) { return std::log2(std::max(2.0, x)); }

// --- estimates matching the engines' charging formulas --------------------------------

double EstMpcJoin(uint64_t total) {
  const double half = static_cast<double>(total) / 2;
  return half * half * kModel.ss_equality_seconds +
         static_cast<double>(total) * kModel.ss_record_io_seconds;
}

double EstHybridJoin(uint64_t total) {
  const double n = static_cast<double>(total);
  return n * kModel.ss_record_io_seconds +
         2 * n * Log2(n) * kModel.ss_select_op_seconds;
}

double EstPublicJoin(uint64_t total) {
  return static_cast<double>(total) * kModel.ss_record_io_seconds +
         kModel.PythonSeconds(total);
}

double EstMpcAgg(uint64_t total) {
  return static_cast<double>(total) * kModel.ss_record_io_seconds +
         static_cast<double>(gc::BatcherCompareExchanges(total)) *
             kModel.ss_compare_seconds;
}

double EstHybridAgg(uint64_t total) {
  const double n = static_cast<double>(total);
  return n * kModel.ss_record_io_seconds + 3 * n * Log2(n) * kModel.ss_mult_seconds +
         kModel.PythonSeconds(total);
}

// --- executed runs --------------------------------------------------------------------

struct JoinData {
  SharedRelation left;
  SharedRelation right;
};

StatusOr<JoinData> ShareJoinInputs(SecretShareEngine& engine, uint64_t total) {
  Relation left = data::UniformInts(static_cast<int64_t>(total / 2), {"k", "x"},
                                    std::max<int64_t>(2, static_cast<int64_t>(total)),
                                    1);
  Relation right = data::UniformInts(static_cast<int64_t>(total / 2), {"k", "y"},
                                     std::max<int64_t>(2, static_cast<int64_t>(total)),
                                     2);
  JoinData data;
  CONCLAVE_ASSIGN_OR_RETURN(data.left, mpc::InputRelation(engine, left));
  CONCLAVE_ASSIGN_OR_RETURN(data.right, mpc::InputRelation(engine, right));
  return data;
}

Cell RunJoin(uint64_t total, int variant) {
  const double estimate = variant == 0   ? EstMpcJoin(total)
                          : variant == 1 ? EstHybridJoin(total)
                                         : EstPublicJoin(total);
  // Memory pre-flight for the hybrid join (6 live copies of 2-column inputs).
  if (variant == 1 &&
      !mpc::CheckWorkingSet(kModel, 6 * total * 2, "hybrid join").ok()) {
    return Cell::Oom();
  }
  if (estimate > kTimeBudgetSeconds) {
    return Cell::Dnf();
  }
  SimNetwork net(kModel);
  SecretShareEngine engine(&net, total + 3);
  auto data = ShareJoinInputs(engine, total);
  if (!data.ok()) {
    return Cell::Oom();
  }
  const int keys[] = {0};
  StatusOr<SharedRelation> result = [&]() -> StatusOr<SharedRelation> {
    switch (variant) {
      case 0:
        return mpc::Join(engine, data->left, data->right, keys, keys);
      case 1:
        return hybrid::HybridJoin(engine, data->left, data->right, keys, keys, kStp,
                                  kParties);
      default:
        return hybrid::PublicJoinShared(engine, data->left, data->right, keys, keys,
                                        kStp, kParties);
    }
  }();
  if (!result.ok()) {
    return result.status().code() == StatusCode::kResourceExhausted ? Cell::Oom()
                                                                    : Cell::Dnf();
  }
  return Cell::Seconds(net.ElapsedSeconds());
}

Cell RunAgg(uint64_t total, int variant) {
  const double estimate = variant == 0 ? EstMpcAgg(total) : EstHybridAgg(total);
  if (estimate > kTimeBudgetSeconds) {
    return Cell::Dnf();
  }
  SimNetwork net(kModel);
  SecretShareEngine engine(&net, total + 4);
  Relation rel = data::UniformInts(
      static_cast<int64_t>(total), {"g", "v"},
      std::max<int64_t>(2, static_cast<int64_t>(total) / 10), 5);
  auto shared = mpc::InputRelation(engine, rel);
  if (!shared.ok()) {
    return Cell::Oom();
  }
  const int group[] = {0};
  StatusOr<SharedRelation> result =
      variant == 0
          ? mpc::Aggregate(engine, *shared, group, AggKind::kSum, 1, "s")
          : hybrid::HybridAggregate(engine, *shared, group, AggKind::kSum, 1, "s",
                                    kStp, kParties);
  if (!result.ok()) {
    return result.status().code() == StatusCode::kResourceExhausted ? Cell::Oom()
                                                                    : Cell::Dnf();
  }
  return Cell::Seconds(net.ElapsedSeconds());
}

}  // namespace
}  // namespace conclave

int main() {
  using namespace conclave;
  using bench::Cell;
  bench::TuneAllocatorForBench();

  std::vector<uint64_t> join_sizes{10,     100,    1000,    10000, 100000,
                                   200000, 1000000, 2000000};
  std::vector<uint64_t> agg_sizes{10, 100, 1000, 10000, 30000, 100000};
  if (bench::SmallScale()) {
    join_sizes = {10, 1000, 100000};
    agg_sizes = {10, 1000, 30000};
  }

  bench::WallTimer join_timer;
  bench::Table join_table("Figure 5a: hybrid join runtime [s]",
                          {"sharemind join", "hybrid join", "public join"});
  for (uint64_t n : join_sizes) {
    join_table.AddRow(n, {RunJoin(n, 0), RunJoin(n, 1), RunJoin(n, 2)});
  }
  join_table.Print();
  join_table.WriteJson("fig5_join", join_timer.Seconds());

  bench::WallTimer agg_timer;
  bench::Table agg_table("Figure 5b: hybrid aggregation runtime [s]",
                         {"sharemind agg", "hybrid agg"});
  for (uint64_t n : agg_sizes) {
    agg_table.AddRow(n, {RunAgg(n, 0), RunAgg(n, 1)});
  }
  agg_table.Print();
  agg_table.WriteJson("fig5_agg", agg_timer.Seconds());
  return 0;
}
