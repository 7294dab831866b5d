#include "conclave/smcql/smcql.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "conclave/data/generators.h"
#include "conclave/hybrid/public_join.h"
#include "conclave/mpc/garbled/gc_engine.h"
#include "conclave/mpc/protocols.h"
#include "conclave/net/network.h"
#include "conclave/relational/hash_index.h"

namespace conclave {
namespace smcql {
namespace {

std::unordered_set<int64_t> KeySet(const Relation& relation, int key_col) {
  std::unordered_set<int64_t> keys;
  keys.reserve(static_cast<size_t>(relation.NumRows()));
  for (int64_t key : relation.ColumnSpan(key_col)) {
    keys.insert(key);
  }
  return keys;
}

Relation FilterByKeyMembership(const Relation& relation, int key_col,
                               const std::unordered_set<int64_t>& keys,
                               bool keep_members) {
  const auto key_column = relation.ColumnSpan(key_col);
  std::vector<int64_t> selected;
  for (int64_t r = 0; r < relation.NumRows(); ++r) {
    if (keys.contains(key_column[static_cast<size_t>(r)]) == keep_members) {
      selected.push_back(r);
    }
  }
  return ops::GatherRows(relation, selected);
}

// Patients at party p qualifying locally: have both the diagnosis and the medication
// within that party's own data.
std::unordered_set<int64_t> LocalQualifiers(const Relation& diag, const Relation& med,
                                            int64_t diag_code, int64_t med_code) {
  std::unordered_set<int64_t> diagnosed;
  const auto diag_pids = diag.ColumnSpan(0);
  const auto diag_codes = diag.ColumnSpan(1);
  for (int64_t r = 0; r < diag.NumRows(); ++r) {
    if (diag_codes[static_cast<size_t>(r)] == diag_code) {
      diagnosed.insert(diag_pids[static_cast<size_t>(r)]);
    }
  }
  std::unordered_set<int64_t> qualifying;
  const auto med_pids = med.ColumnSpan(0);
  const auto med_codes = med.ColumnSpan(1);
  for (int64_t r = 0; r < med.NumRows(); ++r) {
    if (med_codes[static_cast<size_t>(r)] == med_code &&
        diagnosed.contains(med_pids[static_cast<size_t>(r)])) {
      qualifying.insert(med_pids[static_cast<size_t>(r)]);
    }
  }
  return qualifying;
}

Relation SingleCount(const std::string& column, int64_t value) {
  Relation out{Schema::Of({column})};
  out.AppendRow({value});
  return out;
}

// Index of row numbers by key value, so per-slice extraction is O(slice) not O(n).
HashIndex RowsByKey(const Relation& relation, int key_col) {
  const int key_columns[] = {key_col};
  return HashIndex(relation, key_columns);
}

// The rows of `relation` whose indexed key is `key`, ascending.
Relation GatherRows(const Relation& relation, const HashIndex& index, int64_t key) {
  const int64_t* const probe[] = {&key};
  const int64_t group = index.Find(probe, 0);
  if (group < 0) {
    return Relation{relation.schema()};
  }
  return ops::GatherRows(relation, index.Rows(group));
}

}  // namespace

SliceResult SliceByKey(const Relation& party0, const Relation& party1, int key_col) {
  const auto keys0 = KeySet(party0, key_col);
  const auto keys1 = KeySet(party1, key_col);
  std::unordered_set<int64_t> shared;
  for (int64_t key : keys0) {
    if (keys1.contains(key)) {
      shared.insert(key);
    }
  }
  SliceResult result;
  result.solo0 = FilterByKeyMembership(party0, key_col, shared, false);
  result.solo1 = FilterByKeyMembership(party1, key_col, shared, false);
  result.shared0 = FilterByKeyMembership(party0, key_col, shared, true);
  result.shared1 = FilterByKeyMembership(party1, key_col, shared, true);
  result.num_shared_keys = static_cast<int64_t>(shared.size());
  return result;
}

StatusOr<RunResult> SmcqlAspirinCount(const Relation& diag0, const Relation& med0,
                                      const Relation& diag1, const Relation& med1,
                                      int64_t diag_code, int64_t med_code,
                                      const RunConfig& config) {
  SimNetwork net(config.cost_model);
  gc::GcEngine engine(&net, /*oblivm_mode=*/true);

  // Patient presence per party spans both tables.
  auto pids0 = KeySet(diag0, 0);
  for (int64_t pid : KeySet(med0, 0)) {
    pids0.insert(pid);
  }
  auto pids1 = KeySet(diag1, 0);
  for (int64_t pid : KeySet(med1, 0)) {
    pids1.insert(pid);
  }
  std::unordered_set<int64_t> shared;
  for (int64_t pid : pids0) {
    if (pids1.contains(pid)) {
      shared.insert(pid);
    }
  }

  // Solo slices: each hospital evaluates its own patients in the clear.
  const auto solo0 = LocalQualifiers(diag0, med0, diag_code, med_code);
  const auto solo1 = LocalQualifiers(diag1, med1, diag_code, med_code);
  int64_t count = 0;
  for (int64_t pid : solo0) {
    if (!shared.contains(pid)) {
      ++count;
    }
  }
  for (int64_t pid : solo1) {
    if (!shared.contains(pid)) {
      ++count;
    }
  }
  net.CpuSeconds(config.cost_model.PythonSeconds(
      static_cast<uint64_t>(diag0.NumRows() + med0.NumRows() + diag1.NumRows() +
                            med1.NumRows())));

  // Shared slices: one small ObliVM MPC per shared patient ID.
  RunResult result;
  result.mpc_slices = static_cast<int64_t>(shared.size());
  const auto diag0_index = RowsByKey(diag0, 0);
  const auto diag1_index = RowsByKey(diag1, 0);
  const auto med0_index = RowsByKey(med0, 0);
  const auto med1_index = RowsByKey(med1, 0);
  for (int64_t pid : shared) {
    Relation d_slice =
        ops::Concat(std::vector<Relation>{GatherRows(diag0, diag0_index, pid),
                                          GatherRows(diag1, diag1_index, pid)});
    Relation m_slice =
        ops::Concat(std::vector<Relation>{GatherRows(med0, med0_index, pid),
                                          GatherRows(med1, med1_index, pid)});
    result.mpc_input_rows += d_slice.NumRows() + m_slice.NumRows();
    net.CpuSeconds(config.per_slice_setup_seconds);
    CONCLAVE_RETURN_IF_ERROR(engine.ChargeInput(d_slice));
    CONCLAVE_RETURN_IF_ERROR(engine.ChargeInput(m_slice));
    const int d_keys[] = {0};
    const int m_keys[] = {0};
    CONCLAVE_ASSIGN_OR_RETURN(Relation joined,
                              engine.Join(d_slice, m_slice, d_keys, m_keys));
    CONCLAVE_ASSIGN_OR_RETURN(
        Relation diag_match,
        engine.Filter(joined, FilterPredicate::ColumnVsLiteral(1, CompareOp::kEq,
                                                               diag_code)));
    CONCLAVE_ASSIGN_OR_RETURN(
        Relation both_match,
        engine.Filter(diag_match, FilterPredicate::ColumnVsLiteral(2, CompareOp::kEq,
                                                                   med_code)));
    if (both_match.NumRows() > 0) {
      ++count;
    }
  }

  result.output = SingleCount("aspirin_count", count);
  result.virtual_seconds = net.ElapsedSeconds();
  return result;
}

StatusOr<RunResult> ConclaveAspirinCount(const Relation& diag0, const Relation& med0,
                                         const Relation& diag1, const Relation& med1,
                                         int64_t diag_code, int64_t med_code,
                                         const RunConfig& config) {
  SimNetwork net(config.cost_model);
  SecretShareEngine engine(&net, config.seed);

  // Slice on the public patient IDs (presence across both tables).
  auto pids0 = KeySet(diag0, 0);
  for (int64_t pid : KeySet(med0, 0)) {
    pids0.insert(pid);
  }
  auto pids1 = KeySet(diag1, 0);
  for (int64_t pid : KeySet(med1, 0)) {
    pids1.insert(pid);
  }
  std::unordered_set<int64_t> shared;
  for (int64_t pid : pids0) {
    if (pids1.contains(pid)) {
      shared.insert(pid);
    }
  }

  // Solo slices run as parallel per-party Spark jobs; the simulated time is the
  // slower of the two parties, not their sum.
  const auto solo0 = LocalQualifiers(diag0, med0, diag_code, med_code);
  const auto solo1 = LocalQualifiers(diag1, med1, diag_code, med_code);
  int64_t count = 0;
  for (int64_t pid : solo0) {
    if (!shared.contains(pid)) {
      ++count;
    }
  }
  for (int64_t pid : solo1) {
    if (!shared.contains(pid)) {
      ++count;
    }
  }
  const double local0 = config.cost_model.SparkSeconds(
      static_cast<uint64_t>(diag0.NumRows() + med0.NumRows()),
      config.cost_model.spark_workers_per_party);
  const double local1 = config.cost_model.SparkSeconds(
      static_cast<uint64_t>(diag1.NumRows() + med1.NumRows()),
      config.cost_model.spark_workers_per_party);
  net.CpuSeconds(std::max(local0, local1));

  // Shared rows flow through Conclave's pipeline: public join (keys public, output
  // key-sorted), order-preserving MPC filters, and the sort-elimination-enabled
  // linear distinct count.
  RunResult result;
  Relation d_sh0 = FilterByKeyMembership(diag0, 0, shared, true);
  Relation d_sh1 = FilterByKeyMembership(diag1, 0, shared, true);
  Relation m_sh0 = FilterByKeyMembership(med0, 0, shared, true);
  Relation m_sh1 = FilterByKeyMembership(med1, 0, shared, true);
  result.mpc_input_rows =
      d_sh0.NumRows() + d_sh1.NumRows() + m_sh0.NumRows() + m_sh1.NumRows();

  int64_t shared_count = 0;
  if (result.mpc_input_rows > 0) {
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation d0s, mpc::InputRelation(engine, d_sh0));
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation d1s, mpc::InputRelation(engine, d_sh1));
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation m0s, mpc::InputRelation(engine, m_sh0));
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation m1s, mpc::InputRelation(engine, m_sh1));
    const SharedRelation* const diags[] = {&d0s, &d1s};
    const SharedRelation* const meds[] = {&m0s, &m1s};
    SharedRelation diag_all = mpc::Concat(diags);
    SharedRelation med_all = mpc::Concat(meds);
    const int keys[] = {0};
    CONCLAVE_ASSIGN_OR_RETURN(
        SharedRelation joined,
        hybrid::PublicJoinShared(engine, diag_all, med_all, keys, keys,
                                 /*joiner=*/0, /*num_parties=*/3));
    // joined: (pid, diag, med), sorted by pid.
    SharedColumn diag_flags = mpc::FilterFlags(
        engine, joined, FilterPredicate::ColumnVsLiteral(1, CompareOp::kEq, diag_code));
    SharedColumn med_flags = mpc::FilterFlags(
        engine, joined, FilterPredicate::ColumnVsLiteral(2, CompareOp::kEq, med_code));
    SharedColumn keep = engine.Mul(diag_flags, med_flags);
    CONCLAVE_ASSIGN_OR_RETURN(
        SharedRelation count_rel,
        mpc::CountDistinctSorted(engine, joined, /*key_column=*/0, keep,
                                 "aspirin_count"));
    Relation revealed = mpc::RevealRelation(engine, count_rel);
    shared_count = revealed.At(0, 0);
  }

  result.output = SingleCount("aspirin_count", count + shared_count);
  result.virtual_seconds = net.ElapsedSeconds();
  return result;
}

StatusOr<RunResult> SmcqlComorbidity(const Relation& diag0, const Relation& diag1,
                                     int64_t limit, const RunConfig& config) {
  SimNetwork net(config.cost_model);
  gc::GcEngine engine(&net, /*oblivm_mode=*/true);

  // Local pre-aggregation per party (both SMCQL and Conclave split this way, §7.4).
  const int group_cols[] = {1};  // diag
  Relation partial0 = ops::Aggregate(diag0, group_cols, AggKind::kCount, 0, "cnt");
  Relation partial1 = ops::Aggregate(diag1, group_cols, AggKind::kCount, 0, "cnt");
  net.CpuSeconds(config.cost_model.PythonSeconds(
      static_cast<uint64_t>(diag0.NumRows() + diag1.NumRows())));

  RunResult result;
  result.mpc_input_rows = partial0.NumRows() + partial1.NumRows();
  result.mpc_slices = 1;

  // ObliVM MPC: combine partials, re-aggregate, order by count desc, take the top k.
  CONCLAVE_RETURN_IF_ERROR(engine.ChargeInput(partial0));
  CONCLAVE_RETURN_IF_ERROR(engine.ChargeInput(partial1));
  const Relation* const partials[] = {&partial0, &partial1};
  CONCLAVE_ASSIGN_OR_RETURN(Relation combined, engine.Concat(partials));
  const int diag_col[] = {0};
  CONCLAVE_ASSIGN_OR_RETURN(Relation totals,
                            engine.Aggregate(combined, diag_col, AggKind::kSum,
                                             /*agg_column=*/1, "cnt"));
  const int cnt_col[] = {1};
  CONCLAVE_ASSIGN_OR_RETURN(Relation sorted,
                            engine.Sort(totals, cnt_col, /*ascending=*/false));
  CONCLAVE_ASSIGN_OR_RETURN(result.output, engine.Limit(sorted, limit));
  result.virtual_seconds = net.ElapsedSeconds();
  return result;
}

namespace {

// Patients in `rel` (pid, time, diag) with a second c.diff diagnosis inside the
// recurrence window — the cleartext evaluation used for solo slices.
std::unordered_set<int64_t> LocalRecurrent(const Relation& rel) {
  Relation cdiff = ops::Filter(
      rel, FilterPredicate::ColumnVsLiteral(2, CompareOp::kEq, data::kCdiffCode));
  WindowSpec spec;
  spec.partition_columns = {0};
  spec.order_column = 1;
  spec.fn = WindowFn::kLag;
  spec.value_column = 1;
  spec.output_name = "prev_t";
  Relation lagged = ops::Window(cdiff, spec);
  std::unordered_set<int64_t> recurrent;
  for (int64_t r = 0; r < lagged.NumRows(); ++r) {
    const int64_t prev = lagged.At(r, 3);
    const int64_t gap = lagged.At(r, 1) - prev;
    if (prev > 0 && gap >= data::kRecurrenceGapMinDays &&
        gap <= data::kRecurrenceGapMaxDays) {
      recurrent.insert(lagged.At(r, 0));
    }
  }
  return recurrent;
}

}  // namespace

StatusOr<RunResult> SmcqlRecurrentCdiff(const Relation& diag0, const Relation& diag1,
                                        const RunConfig& config) {
  SimNetwork net(config.cost_model);
  gc::GcEngine engine(&net, /*oblivm_mode=*/true);

  const auto keys0 = KeySet(diag0, 0);
  const auto keys1 = KeySet(diag1, 0);
  std::unordered_set<int64_t> shared;
  for (int64_t pid : keys0) {
    if (keys1.contains(pid)) {
      shared.insert(pid);
    }
  }

  // Solo patients evaluate in the clear at their own hospital.
  int64_t count = 0;
  for (const Relation* rel : {&diag0, &diag1}) {
    for (int64_t pid : LocalRecurrent(*rel)) {
      if (!shared.contains(pid)) {
        ++count;
      }
    }
  }
  net.CpuSeconds(config.cost_model.PythonSeconds(
      static_cast<uint64_t>(diag0.NumRows() + diag1.NumRows())));

  // Shared patients: per-slice ObliVM MPC running SMCQL's plan — window row-number,
  // self-join on pid, adjacency + gap filters.
  RunResult result;
  result.mpc_slices = static_cast<int64_t>(shared.size());
  const auto index0 = RowsByKey(diag0, 0);
  const auto index1 = RowsByKey(diag1, 0);
  for (int64_t pid : shared) {
    Relation slice =
        ops::Concat(std::vector<Relation>{GatherRows(diag0, index0, pid),
                                          GatherRows(diag1, index1, pid)});
    result.mpc_input_rows += slice.NumRows();
    net.CpuSeconds(config.per_slice_setup_seconds);
    CONCLAVE_RETURN_IF_ERROR(engine.ChargeInput(slice));
    CONCLAVE_ASSIGN_OR_RETURN(
        Relation cdiff,
        engine.Filter(slice, FilterPredicate::ColumnVsLiteral(
                                 2, CompareOp::kEq, data::kCdiffCode)));
    WindowSpec spec;
    spec.partition_columns = {0};
    spec.order_column = 1;
    spec.fn = WindowFn::kRowNumber;
    spec.output_name = "rn";
    CONCLAVE_ASSIGN_OR_RETURN(Relation numbered, engine.Window(cdiff, spec));
    // Self-join on pid; rows pair every visit with every other visit.
    const int pid_key[] = {0};
    CONCLAVE_ASSIGN_OR_RETURN(Relation pairs,
                              engine.Join(numbered, numbered, pid_key, pid_key));
    // pairs: (pid, time, diag, rn, time', diag', rn'). Keep adjacent pairs with the
    // gap inside the window. Column arithmetic first: gap and adjacency.
    ArithSpec gap;
    gap.kind = ArithKind::kSub;
    gap.lhs_column = 4;  // time'
    gap.rhs_is_column = true;
    gap.rhs_column = 1;  // time
    gap.result_name = "gap";
    CONCLAVE_ASSIGN_OR_RETURN(Relation with_gap, engine.Arithmetic(pairs, gap));
    ArithSpec next_rn;
    next_rn.kind = ArithKind::kAdd;
    next_rn.lhs_column = 3;  // rn
    next_rn.rhs_is_column = false;
    next_rn.rhs_literal = 1;
    next_rn.result_name = "rn_next";
    CONCLAVE_ASSIGN_OR_RETURN(Relation with_next, engine.Arithmetic(with_gap, next_rn));
    CONCLAVE_ASSIGN_OR_RETURN(
        Relation adjacent,
        engine.Filter(with_next,
                      FilterPredicate::ColumnVsColumn(6, CompareOp::kEq, 8)));
    CONCLAVE_ASSIGN_OR_RETURN(
        Relation lower,
        engine.Filter(adjacent,
                      FilterPredicate::ColumnVsLiteral(
                          7, CompareOp::kGe, data::kRecurrenceGapMinDays)));
    CONCLAVE_ASSIGN_OR_RETURN(
        Relation qualified,
        engine.Filter(lower, FilterPredicate::ColumnVsLiteral(
                                 7, CompareOp::kLe, data::kRecurrenceGapMaxDays)));
    if (qualified.NumRows() > 0) {
      ++count;
    }
  }

  result.output = SingleCount("rcdiff_count", count);
  result.virtual_seconds = net.ElapsedSeconds();
  return result;
}

StatusOr<RunResult> ConclaveRecurrentCdiff(const Relation& diag0,
                                           const Relation& diag1,
                                           const RunConfig& config) {
  SimNetwork net(config.cost_model);
  SecretShareEngine engine(&net, config.seed);

  const auto keys0 = KeySet(diag0, 0);
  const auto keys1 = KeySet(diag1, 0);
  std::unordered_set<int64_t> shared;
  for (int64_t pid : keys0) {
    if (keys1.contains(pid)) {
      shared.insert(pid);
    }
  }

  // Solo patients run as parallel per-party Spark jobs.
  int64_t count = 0;
  for (const Relation* rel : {&diag0, &diag1}) {
    for (int64_t pid : LocalRecurrent(*rel)) {
      if (!shared.contains(pid)) {
        ++count;
      }
    }
  }
  const double local0 = config.cost_model.SparkSeconds(
      static_cast<uint64_t>(diag0.NumRows()),
      config.cost_model.spark_workers_per_party);
  const double local1 = config.cost_model.SparkSeconds(
      static_cast<uint64_t>(diag1.NumRows()),
      config.cost_model.spark_workers_per_party);
  net.CpuSeconds(std::max(local0, local1));

  // Shared rows flow through one MPC: size-revealing filter to the c.diff rows, the
  // oblivious lag window (subsuming SMCQL's self-join), flag-gated qualification, and
  // the linear distinct count over the already-sorted pid column.
  RunResult result;
  Relation sh0 = FilterByKeyMembership(diag0, 0, shared, true);
  Relation sh1 = FilterByKeyMembership(diag1, 0, shared, true);
  result.mpc_input_rows = sh0.NumRows() + sh1.NumRows();

  int64_t shared_count = 0;
  if (result.mpc_input_rows > 0) {
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation s0, mpc::InputRelation(engine, sh0));
    CONCLAVE_ASSIGN_OR_RETURN(SharedRelation s1, mpc::InputRelation(engine, sh1));
    const SharedRelation* const parts[] = {&s0, &s1};
    SharedRelation all = mpc::Concat(parts);
    CONCLAVE_ASSIGN_OR_RETURN(
        SharedRelation cdiff,
        mpc::Filter(engine, all,
                    FilterPredicate::ColumnVsLiteral(2, CompareOp::kEq,
                                                     data::kCdiffCode)));
    const int partition[] = {0};
    CONCLAVE_ASSIGN_OR_RETURN(
        SharedRelation lagged,
        mpc::Window(engine, cdiff, partition, /*order_column=*/1, WindowFn::kLag,
                    /*value_column=*/1, "prev_t"));
    ArithSpec gap;
    gap.kind = ArithKind::kSub;
    gap.lhs_column = 1;  // time
    gap.rhs_is_column = true;
    gap.rhs_column = 3;  // prev_t
    gap.result_name = "gap";
    SharedRelation with_gap = mpc::Arithmetic(engine, lagged, gap);
    // Qualify: prev_t > 0 and gap in the recurrence window. Order-preserving flags
    // keep the pid sort for the distinct count.
    SharedColumn has_prev = mpc::FilterFlags(
        engine, with_gap, FilterPredicate::ColumnVsLiteral(3, CompareOp::kGt, 0));
    SharedColumn lower = mpc::FilterFlags(
        engine, with_gap,
        FilterPredicate::ColumnVsLiteral(4, CompareOp::kGe,
                                         data::kRecurrenceGapMinDays));
    SharedColumn upper = mpc::FilterFlags(
        engine, with_gap,
        FilterPredicate::ColumnVsLiteral(4, CompareOp::kLe,
                                         data::kRecurrenceGapMaxDays));
    SharedColumn keep = engine.Mul(engine.Mul(has_prev, lower), upper);
    CONCLAVE_ASSIGN_OR_RETURN(
        SharedRelation count_rel,
        mpc::CountDistinctSorted(engine, with_gap, /*key_column=*/0, keep,
                                 "rcdiff_count"));
    Relation revealed = mpc::RevealRelation(engine, count_rel);
    shared_count = revealed.At(0, 0);
  }

  result.output = SingleCount("rcdiff_count", count + shared_count);
  result.virtual_seconds = net.ElapsedSeconds();
  return result;
}

}  // namespace smcql
}  // namespace conclave
