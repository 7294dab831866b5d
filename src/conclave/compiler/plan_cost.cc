#include "conclave/compiler/plan_cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "conclave/common/strings.h"
#include "conclave/hybrid/hybrid_agg.h"
#include "conclave/hybrid/hybrid_join.h"
#include "conclave/hybrid/hybrid_window.h"
#include "conclave/hybrid/public_join.h"
#include "conclave/mpc/garbled/gc_engine.h"
#include "conclave/mpc/protocols.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace compiler {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// Clamp before llround: above 2^62 the conversion is UB, and the structural
// loops (Batcher layers, scans) only need "absurdly large", not exact.
constexpr int64_t kMaxRows = int64_t{1} << 62;

int64_t ToRows(double estimate) {
  return estimate <= 0
             ? 0
             : std::llround(std::min(estimate, static_cast<double>(kMaxRows)));
}

// Rows fed to the analytic garbled-circuit gate formulas are capped here (2M rows).
constexpr int64_t kMaxGcRows = int64_t{1} << 21;

// One node's price on one backend: the meter of the scratch network its charges
// went to, or infeasible with the failing check's message.
BackendOpCost Price(SimNetwork& network, const Status& status) {
  BackendOpCost cost;
  cost.feasible = status.ok();
  cost.seconds = status.ok() ? network.TakeMeterSeconds() : kInfeasible;
  cost.infeasible_reason = status.message();
  return cost;
}

// One (rows, columns) entry per cleartext input relation first entering the MPC at
// this node; each is secret-shared / garbled as its own batch, like EnsureSecure.
using IngestList = std::vector<std::pair<uint64_t, uint64_t>>;

// A node's shape: the rows and columns of its first (n) and second (m) input and
// of its output; an absent input reads as empty.
struct NodeShape {
  uint64_t n = 0;
  uint64_t m = 0;
  uint64_t out = 0;
  uint64_t n_cols = 0;
  uint64_t m_cols = 0;
  uint64_t out_cols = 0;
};

NodeShape ShapeOf(const ir::OpNode& node, const std::unordered_map<int, double>& rows) {
  const auto rows_of = [&](const ir::OpNode& value) {
    return static_cast<uint64_t>(ToRows(rows.at(value.id)));
  };
  NodeShape s;
  s.out = rows_of(node);
  s.out_cols = static_cast<uint64_t>(node.schema.NumColumns());
  if (!node.inputs.empty()) {
    s.n = rows_of(*node.inputs[0]);
    s.n_cols = static_cast<uint64_t>(node.inputs[0]->schema.NumColumns());
  }
  if (node.inputs.size() > 1) {
    s.m = rows_of(*node.inputs[1]);
    s.m_cols = static_cast<uint64_t>(node.inputs[1]->schema.NumColumns());
  }
  return s;
}

// Applies the node's ingests and then its protocol composite (mpc/protocols.h,
// hybrid/*.h) to `network`.
Status SsCharges(SimNetwork& network, const ir::OpNode& node,
                 const std::unordered_map<int, double>& rows, const IngestList& ingests,
                 int parties) {
  for (const auto& [ingest_rows, ingest_cols] : ingests) {
    CONCLAVE_RETURN_IF_ERROR(mpc::ChargeInput(network, ingest_rows, ingest_cols));
  }
  const NodeShape s = ShapeOf(node, rows);
  switch (node.kind) {
    case ir::OpKind::kFilter:
      return mpc::FilterCharges(network, s.n, s.n_cols,
                                node.Params<ir::FilterParams>().op);
    case ir::OpKind::kJoin: {
      const uint64_t keys = node.Params<ir::JoinParams>().left_keys.size();
      switch (node.hybrid) {
        case ir::HybridKind::kHybridJoin:
          return hybrid::HybridJoinCharges(network, s.n, s.m, s.n_cols, s.m_cols, keys,
                                           s.out, node.stp, parties);
        case ir::HybridKind::kPublicJoin:
          return hybrid::PublicJoinCharges(network, s.n, s.m, s.n_cols, s.m_cols, keys,
                                           s.out, node.stp, parties);
        default:
          return mpc::JoinCharges(network, s.n, s.m, s.n_cols, s.m_cols, keys, s.out);
      }
    }
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      const uint64_t keys = params.group_columns.size();
      return node.hybrid == ir::HybridKind::kHybridAggregate
                 ? hybrid::HybridAggregateCharges(network, s.n, s.n_cols, keys,
                                                  params.kind, node.stp, parties)
                 : mpc::AggregateCharges(network, s.n, s.n_cols, keys, params.kind,
                                         node.assume_sorted);
    }
    case ir::OpKind::kWindow: {
      const auto& params = node.Params<ir::WindowParams>();
      const uint64_t partitions = params.partition_columns.size();
      return node.hybrid == ir::HybridKind::kHybridWindow
                 ? hybrid::HybridWindowCharges(network, s.n, s.n_cols, partitions,
                                               params.fn, node.stp, parties)
                 : mpc::WindowCharges(network, s.n, s.n_cols, partitions, params.fn,
                                      node.assume_sorted);
    }
    case ir::OpKind::kSortBy: {
      const auto& params = node.Params<ir::SortByParams>();
      return mpc::SortCharges(network, s.n, s.n_cols, params.columns.size(),
                              params.ascending, node.assume_sorted);
    }
    case ir::OpKind::kDistinct:
      return mpc::DistinctCharges(network, s.n, s.n_cols,
                                  node.Params<ir::DistinctParams>().columns.size(),
                                  node.assume_sorted);
    case ir::OpKind::kArithmetic: {
      const auto& params = node.Params<ir::ArithmeticParams>();
      mpc::ArithmeticCharges(network, s.n, params.kind, params.rhs_is_column);
      return Status::Ok();
    }
    case ir::OpKind::kConcat: {
      const size_t keys = node.Params<ir::ConcatParams>().merge_columns.size();
      if (keys == 0) {
        return Status::Ok();
      }
      // Each branch is clamped so the running total stays within ToRows' range.
      std::vector<int64_t> branches;
      int64_t total = 0;
      for (const ir::OpNode* input : node.inputs) {
        branches.push_back(std::min(ToRows(rows.at(input->id)), kMaxRows - total));
        total += branches.back();
      }
      mpc::MergeConcatCharges(network, branches, s.out_cols, keys);
      return Status::Ok();
    }
    default:
      return Status::Ok();  // Project/limit/pad are share-local.
  }
}

// Applies the node's ingests and then its circuit charges (mpc/garbled/gc_cost.h)
// to `network`.
Status GcCharges(SimNetwork& network, const ir::OpNode& node,
                 const std::unordered_map<int, double>& rows, const IngestList& ingests,
                 int parties) {
  if (parties > 2) {
    // Obliv-C is a two-party protocol (the paper runs it with two parties only).
    return UnimplementedError(StrFormat("%d parties (2-party protocol)", parties));
  }
  if (node.hybrid != ir::HybridKind::kNone) {
    return UnimplementedError("hybrid protocols run on the secret-sharing backend");
  }
  for (const auto& [ingest_rows, ingest_cols] : ingests) {
    CONCLAVE_RETURN_IF_ERROR(gc::ChargeInputLabels(network, ingest_rows, ingest_cols));
  }
  // Cap rows before the analytic gate formulas: every GC operator is memory-
  // infeasible far below this cap (live labels alone at 2M rows x 1 column are
  // ~25x the 4 GB VM), so capping cannot flip a feasibility verdict — while it
  // keeps the uint64 pair/gate arithmetic from overflowing on absurd cardinality
  // estimates.
  NodeShape s = ShapeOf(node, rows);
  for (uint64_t* count : {&s.n, &s.m, &s.out}) {
    *count = std::min(*count, static_cast<uint64_t>(kMaxGcRows));
  }
  const CostModel& model = network.model();
  gc::GcOpCost cost;
  const char* what = ir::OpKindName(node.kind);
  switch (node.kind) {
    case ir::OpKind::kFilter:
      cost = gc::FilterCost(model, s.n, s.n_cols, node.Params<ir::FilterParams>().op);
      break;
    case ir::OpKind::kJoin:
      cost = gc::JoinCost(model, s.n, s.m, s.n_cols, s.m_cols,
                          node.Params<ir::JoinParams>().left_keys.size());
      break;
    case ir::OpKind::kAggregate:
      cost = gc::AggregateCost(model, s.n, s.n_cols,
                               node.Params<ir::AggregateParams>().group_columns.size(),
                               node.assume_sorted);
      break;
    case ir::OpKind::kWindow:
      cost = gc::WindowCost(model, s.n, s.n_cols,
                            node.Params<ir::WindowParams>().partition_columns.size(),
                            node.assume_sorted);
      break;
    case ir::OpKind::kSortBy:
      if (node.assume_sorted) {
        return Status::Ok();
      }
      cost = gc::SortCost(model, s.n, s.n_cols,
                          node.Params<ir::SortByParams>().columns.size());
      what = "sort";  // GcEngine::Sort's label.
      break;
    case ir::OpKind::kDistinct:
      cost = gc::DistinctCost(model, s.n,
                              node.Params<ir::DistinctParams>().columns.size(),
                              node.assume_sorted);
      break;
    case ir::OpKind::kConcat: {
      cost = gc::LinearPassCost(model, s.out, s.out_cols, s.out_cols, 0);
      const size_t keys = node.Params<ir::ConcatParams>().merge_columns.size();
      if (keys == 0) {
        break;
      }
      // The GC backend sorts the concatenated relation (no merge network).
      CONCLAVE_RETURN_IF_ERROR(gc::ChargeCircuit(network, cost, what, 1.0));
      cost = gc::SortCost(model, s.out, s.out_cols, keys);
      what = "sort";
      break;
    }
    case ir::OpKind::kArithmetic:
      cost = gc::ArithmeticCost(model, s.n, s.n_cols,
                                node.Params<ir::ArithmeticParams>().kind);
      break;
    case ir::OpKind::kProject:
      cost = gc::LinearPassCost(model, s.n, s.n_cols, s.out_cols, 0);
      break;
    case ir::OpKind::kLimit:
      cost = gc::LimitCost(model, s.n, s.n_cols, node.Params<ir::LimitParams>().count);
      break;
    default:
      return Status::Ok();
  }
  return gc::ChargeCircuit(network, cost, what, /*slowdown=*/1.0);
}

std::string NodeLabel(const ir::OpNode& node) {
  if (node.hybrid != ir::HybridKind::kNone) {
    return StrFormat("%s[%s]", ir::OpKindName(node.kind),
                     ir::HybridKindName(node.hybrid));
  }
  return StrFormat("%s[%s]", ir::OpKindName(node.kind),
                   ir::ExecModeName(node.exec_mode));
}

std::string FormatSeconds(const BackendOpCost& cost) {
  if (!cost.feasible) {
    return StrFormat("infeasible: %s", cost.infeasible_reason.c_str());
  }
  return StrFormat("%.6fs", cost.seconds);
}

}  // namespace

std::string FormatPlanSeconds(double seconds, int decimals) {
  if (std::isinf(seconds)) {
    return "infeasible";
  }
  return StrFormat("%.*fs", decimals, seconds);
}

std::string PlanCostReport::ToString() const {
  std::string out = StrFormat("plan-cost: sharemind %s vs obliv-c %s -> %s\n",
                              FormatPlanSeconds(sharemind_seconds).c_str(),
                              FormatPlanSeconds(oblivc_seconds).c_str(),
                              MpcBackendName(cheapest));
  for (const NodeCost& node : nodes) {
    out += StrFormat("  #%d %s rows=%.0f", node.node_id, node.label.c_str(),
                     node.in_rows);
    if (node.right_rows > 0) {
      out += StrFormat("x%.0f", node.right_rows);
    }
    out += StrFormat(" out=%.0f", node.out_rows);
    if (node.ingest_rows > 0) {
      out += StrFormat(" ingest=%.0f", node.ingest_rows);
    }
    out += StrFormat(": sharemind %s, obliv-c %s\n",
                     FormatSeconds(node.sharemind).c_str(),
                     FormatSeconds(node.oblivc).c_str());
  }
  out += StrFormat(
      "pipeline-advice: %d fused chain(s) over %d node(s), longest %d "
      "(batch %lld rows; resident rows per chain <= 2 x batch + an "
      "aggregate tail's groups)\n",
      fused_pipeline_chains, fused_pipeline_nodes, longest_pipeline_chain,
      static_cast<long long>(pipeline_batch_rows));
  out += StrFormat(
      "reveal-advice: %d chain(s) stream their reveal boundary "
      "(batch-at-a-time reconstruction; boundary charge unchanged)\n",
      streamed_reveal_chains);
  if (fault_mode) {
    out += StrFormat(
        "fault-advice: injection armed (%s); <=%d retransmissions/send "
        "(backoff envelope %s), %d restart(s)/job; recoverable plans add "
        "exactly their priced recovery time\n",
        fault_plan_summary.c_str(), fault_max_send_retries,
        FormatPlanSeconds(fault_retry_envelope_seconds).c_str(),
        fault_job_retries);
  } else {
    out += "fault-advice: injection off (set CONCLAVE_FAULT_PLAN to arm)\n";
  }
  if (spill_mem_budget_rows > 0) {
    out += StrFormat(
        "spill-advice: budget %lld resident rows/operator; %d spilling "
        "node(s), %lld priced pass(es), spill I/O %s (the meter charges this "
        "exact formula)\n",
        static_cast<long long>(spill_mem_budget_rows), spilling_nodes,
        static_cast<long long>(spill_total_passes),
        FormatPlanSeconds(spill_seconds).c_str());
  } else {
    out +=
        "spill-advice: unbounded (set CONCLAVE_MEM_BUDGET to cap resident "
        "rows)\n";
  }
  return out;
}

bool PipelineFusibleOp(const ir::OpNode& node) {
  if (node.exec_mode != ir::ExecMode::kLocal || node.inputs.size() != 1) {
    return false;
  }
  switch (node.kind) {
    case ir::OpKind::kFilter:
    case ir::OpKind::kProject:
    case ir::OpKind::kArithmetic:
    case ir::OpKind::kLimit:
      return true;
    case ir::OpKind::kDistinct: {
      // Streaming adjacent-run dedup needs the input sorted ascending by a
      // column list the distinct columns prefix. Walk upstream through the
      // order-preserving single-input ops — filter and limit drop rows but
      // never reorder, project and arithmetic never touch existing cells
      // (columns are referenced by name, so surviving names keep their values)
      // — to an ascending kSortBy whose column list the distinct columns
      // prefix. An arithmetic output_name shadowing a distinct column kills
      // the proof: that column's values postdate the sort.
      const auto& distinct = node.Params<ir::DistinctParams>();
      const ir::OpNode* in = node.inputs[0];
      for (;;) {
        switch (in->kind) {
          case ir::OpKind::kSortBy: {
            const auto& sort = in->Params<ir::SortByParams>();
            if (!sort.ascending ||
                distinct.columns.size() > sort.columns.size()) {
              return false;
            }
            return std::equal(distinct.columns.begin(), distinct.columns.end(),
                              sort.columns.begin());
          }
          case ir::OpKind::kFilter:
          case ir::OpKind::kLimit:
          case ir::OpKind::kProject:
            break;
          case ir::OpKind::kArithmetic: {
            const auto& arith = in->Params<ir::ArithmeticParams>();
            if (std::find(distinct.columns.begin(), distinct.columns.end(),
                          arith.output_name) != distinct.columns.end()) {
              return false;
            }
            break;
          }
          default:
            return false;
        }
        if (in->inputs.size() != 1) {
          return false;
        }
        in = in->inputs[0];
      }
    }
    default:
      return false;
  }
}

std::vector<PipelineChain> PipelineChains(std::span<const ir::OpNode* const> topo,
                                          MpcBackendKind backend) {
  // Consuming-edge counts and the unique consumer, within `topo` only (detached
  // consumers never execute, so they do not pin a value as materialized).
  std::unordered_map<int, int> uses;
  std::unordered_map<int, const ir::OpNode*> sole_consumer;
  for (const ir::OpNode* node : topo) {
    for (const ir::OpNode* in : node->inputs) {
      if (++uses[in->id] == 1) {
        sole_consumer[in->id] = node;
      } else {
        sole_consumer.erase(in->id);
      }
    }
  }
  std::vector<PipelineChain> chains;
  std::unordered_set<int> claimed;
  for (const ir::OpNode* node : topo) {
    if (claimed.count(node->id) != 0 || !PipelineFusibleOp(*node)) {
      continue;
    }
    PipelineChain chain{{node}};
    const ir::OpNode* tail = node;
    for (;;) {
      const auto it = sole_consumer.find(tail->id);
      if (it == sole_consumer.end()) {
        break;  // Zero or several consuming edges: the value must materialize.
      }
      const ir::OpNode* next = it->second;
      if (next->exec_party != tail->exec_party) {
        break;
      }
      if (next->kind == ir::OpKind::kAggregate &&
          next->exec_mode == ir::ExecMode::kLocal && next->inputs.size() == 1) {
        chain.nodes.push_back(next);  // A hash aggregate ends the chain.
        break;
      }
      if (!PipelineFusibleOp(*next)) {
        break;
      }
      chain.nodes.push_back(next);
      tail = next;
    }
    if (chain.nodes.size() < 2) {
      continue;  // A lone streaming op materializes its output anyway.
    }
    for (const ir::OpNode* member : chain.nodes) {
      claimed.insert(member->id);
    }
    // Fusible nodes have exactly one input.
    const ir::OpNode* producer = node->inputs[0];
    if (uses[producer->id] == 1) {
      if (producer->kind == ir::OpKind::kCreate) {
        const auto& create = producer->Params<ir::CreateParams>();
        chain.streams_input =
            !create.csv_path.empty() && create.party == node->exec_party;
      } else {
        chain.streams_input = producer->exec_mode != ir::ExecMode::kLocal &&
                              backend == MpcBackendKind::kSharemind;
      }
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

void AnnotatePipelineAdvice(PlanCostReport& report, const ir::Dag& dag,
                            int64_t batch_rows, MpcBackendKind backend) {
  report.pipeline_batch_rows = batch_rows;
  report.fused_pipeline_chains = 0;
  report.fused_pipeline_nodes = 0;
  report.longest_pipeline_chain = 0;
  report.streamed_reveal_chains = 0;
  const std::vector<ir::OpNode*> order = dag.TopoOrder();
  const std::vector<const ir::OpNode*> topo(order.begin(), order.end());
  for (const PipelineChain& pipeline : PipelineChains(topo, backend)) {
    const std::vector<const ir::OpNode*>& chain = pipeline.nodes;
    ++report.fused_pipeline_chains;
    report.fused_pipeline_nodes += static_cast<int>(chain.size());
    report.longest_pipeline_chain =
        std::max(report.longest_pipeline_chain, static_cast<int>(chain.size()));
    if (pipeline.streams_input &&
        chain.front()->inputs[0]->kind != ir::OpKind::kCreate) {
      ++report.streamed_reveal_chains;
    }
  }
}

double NodeSpillSeconds(const ir::OpNode& node, double in_rows, double right_rows,
                        const CostModel& model, int64_t mem_budget_rows) {
  if (mem_budget_rows <= 0 || node.exec_mode != ir::ExecMode::kLocal) {
    return 0;
  }
  const int64_t budget = mem_budget_rows;
  switch (node.kind) {
    // One priced pass = one generation of run files written then read back
    // (spill::SpillMergePasses counts exactly the generations the kernels
    // produce: run formation feeds the first merge level, each deeper level
    // rewrites every row once). Distinct and aggregate runs shrink as they
    // dedup/combine, but the price deliberately keeps the full input rows per
    // pass — the meter charges the same closed form, and only the
    // estimate==meter identity matters, not physical byte exactness.
    case ir::OpKind::kSortBy:
    case ir::OpKind::kDistinct: {
      // Runs carry the output schema (a distinct's: its distinct columns only).
      const int64_t rows = ToRows(in_rows);
      const int64_t passes = spill::SpillMergePasses(rows, budget);
      const double cells =
          static_cast<double>(rows) * node.schema.NumColumns();
      return model.SpillPassSeconds(static_cast<double>(passes) * cells * 8.0);
    }
    case ir::OpKind::kAggregate: {
      // Partial-aggregate runs: group keys plus one accumulator column (two
      // for mean: running sum and count, finalized only at the last level).
      const auto& params = node.Params<ir::AggregateParams>();
      const int64_t rows = ToRows(in_rows);
      const int64_t passes = spill::SpillMergePasses(rows, budget);
      const double cols = static_cast<double>(params.group_columns.size()) +
                          (params.kind == AggKind::kMean ? 2.0 : 1.0);
      return model.SpillPassSeconds(static_cast<double>(passes) *
                                    static_cast<double>(rows) * cols * 8.0);
    }
    case ir::OpKind::kJoin: {
      // Grace hash join spills when the build (right) side exceeds the budget:
      // both sides stream through (key, gid) partition files — K key columns
      // plus the provenance gid — once per recursion level.
      const int64_t build = ToRows(right_rows);
      const int64_t levels = spill::SpillMergePasses(build, budget);
      if (levels == 0) {
        return 0;
      }
      const double key_cols =
          static_cast<double>(node.Params<ir::JoinParams>().left_keys.size()) +
          1.0;
      const double cells = (ToRows(in_rows) + build) * key_cols;
      return model.SpillPassSeconds(static_cast<double>(levels) * cells * 8.0);
    }
    default:
      return 0;
  }
}

void AnnotateSpillAdvice(PlanCostReport& report, const ir::Dag& dag,
                         const CostModel& model, int64_t mem_budget_rows,
                         const CardinalityOptions& cardinality) {
  report.spill_mem_budget_rows = mem_budget_rows > 0 ? mem_budget_rows : 0;
  report.spilling_nodes = 0;
  report.spill_total_passes = 0;
  report.spill_seconds = 0;
  if (mem_budget_rows <= 0) {
    return;
  }
  const auto rows = EstimateCardinalities(dag, cardinality);
  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->exec_mode != ir::ExecMode::kLocal || node->inputs.empty()) {
      continue;
    }
    const double in_rows = rows.at(node->inputs[0]->id);
    const double right_rows =
        node->inputs.size() > 1 ? rows.at(node->inputs[1]->id) : 0;
    const double seconds =
        NodeSpillSeconds(*node, in_rows, right_rows, model, mem_budget_rows);
    if (seconds <= 0) {
      continue;
    }
    ++report.spilling_nodes;
    const int64_t spilled_input = node->kind == ir::OpKind::kJoin
                                      ? ToRows(right_rows)
                                      : ToRows(in_rows);
    report.spill_total_passes +=
        spill::SpillMergePasses(spilled_input, mem_budget_rows);
    report.spill_seconds += seconds;
  }
}

void AnnotateFaultAdvice(PlanCostReport& report, const FaultPlan& plan,
                         const CostModel& model) {
  report.fault_mode = plan.enabled;
  report.fault_plan_summary = plan.ToString();
  report.fault_max_send_retries = model.max_send_retries;
  report.fault_job_retries = plan.job_retries;
  // Worst case one send can absorb before escalating: the full backed-off
  // timeout schedule (payload retransmission time is size-dependent and priced
  // at run time).
  report.fault_retry_envelope_seconds = 0;
  for (int k = 0; k < model.max_send_retries; ++k) {
    report.fault_retry_envelope_seconds += model.RetrySeconds(k, /*bytes=*/0);
  }
}

PlanCostReport EstimatePlanCost(const ir::Dag& dag, const CostModel& model,
                                int num_parties,
                                const CardinalityOptions& cardinality) {
  const auto rows = EstimateCardinalities(dag, cardinality);
  PlanCostReport report;
  // Ingest (inputToMPC) happens once per materialized value, when its first MPC
  // consumer acquires it — exactly how the dispatcher's EnsureSecure meters it.
  std::unordered_set<int> ingested;

  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->exec_mode == ir::ExecMode::kLocal ||
        node->kind == ir::OpKind::kCreate || node->kind == ir::OpKind::kCollect) {
      continue;
    }
    NodeCost cost;
    cost.node_id = node->id;
    cost.label = NodeLabel(*node);
    cost.in_rows = node->inputs.empty() ? 0 : rows.at(node->inputs[0]->id);
    cost.right_rows =
        node->inputs.size() > 1 ? rows.at(node->inputs[1]->id) : 0;
    cost.out_rows = rows.at(node->id);
    IngestList ingests;
    for (const ir::OpNode* input : node->inputs) {
      if (input->exec_mode == ir::ExecMode::kLocal &&
          ingested.insert(input->id).second) {
        const double in_rows = rows.at(input->id);
        cost.ingest_rows += in_rows;
        ingests.emplace_back(static_cast<uint64_t>(ToRows(in_rows)),
                             static_cast<uint64_t>(input->schema.NumColumns()));
      }
    }
    SimNetwork ss_network(model);
    cost.sharemind =
        Price(ss_network, SsCharges(ss_network, *node, rows, ingests, num_parties));
    SimNetwork gc_network(model);
    cost.oblivc =
        Price(gc_network, GcCharges(gc_network, *node, rows, ingests, num_parties));
    report.sharemind_seconds += cost.sharemind.seconds;
    report.oblivc_seconds += cost.oblivc.seconds;
    report.nodes.push_back(std::move(cost));
  }

  report.cheapest = report.oblivc_seconds < report.sharemind_seconds
                        ? MpcBackendKind::kOblivC
                        : MpcBackendKind::kSharemind;
  return report;
}

}  // namespace compiler
}  // namespace conclave
