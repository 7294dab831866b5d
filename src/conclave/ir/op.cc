#include "conclave/ir/op.h"

#include "conclave/common/strings.h"

namespace conclave {
namespace ir {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
      return "create";
    case OpKind::kConcat:
      return "concat";
    case OpKind::kProject:
      return "project";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kJoin:
      return "join";
    case OpKind::kAggregate:
      return "aggregate";
    case OpKind::kArithmetic:
      return "arithmetic";
    case OpKind::kWindow:
      return "window";
    case OpKind::kPad:
      return "pad";
    case OpKind::kSortBy:
      return "sort_by";
    case OpKind::kDistinct:
      return "distinct";
    case OpKind::kLimit:
      return "limit";
    case OpKind::kCollect:
      return "collect";
  }
  return "?";
}

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kLocal:
      return "local";
    case ExecMode::kMpc:
      return "mpc";
    case ExecMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

const char* HybridKindName(HybridKind kind) {
  switch (kind) {
    case HybridKind::kNone:
      return "none";
    case HybridKind::kHybridJoin:
      return "hybrid-join";
    case HybridKind::kPublicJoin:
      return "public-join";
    case HybridKind::kHybridAggregate:
      return "hybrid-agg";
    case HybridKind::kHybridWindow:
      return "hybrid-window";
  }
  return "?";
}

std::string OpNode::ToString() const {
  std::string out = StrFormat("#%d %s[%s", id, OpKindName(kind),
                              ExecModeName(exec_mode));
  if (exec_mode == ExecMode::kLocal && exec_party != kNoParty) {
    out += StrFormat("@%d", exec_party);
  }
  if (hybrid != HybridKind::kNone) {
    out += StrFormat(",%s,stp=%d", HybridKindName(hybrid), stp);
  }
  if (assume_sorted) {
    out += ",sorted";
  }
  out += "]";
  switch (kind) {
    case OpKind::kCreate: {
      const auto& p = Params<CreateParams>();
      out += StrFormat(" %s@%d", p.name.c_str(), p.party);
      break;
    }
    case OpKind::kJoin: {
      const auto& p = Params<JoinParams>();
      out += StrFormat(" keys=(%s|%s)", StrJoin(p.left_keys, ",").c_str(),
                       StrJoin(p.right_keys, ",").c_str());
      break;
    }
    case OpKind::kAggregate: {
      const auto& p = Params<AggregateParams>();
      out += StrFormat(" %s(%s) by (%s)", AggKindName(p.kind), p.agg_column.c_str(),
                       StrJoin(p.group_columns, ",").c_str());
      break;
    }
    case OpKind::kWindow: {
      const auto& p = Params<WindowParams>();
      out += StrFormat(" %s(%s) over (partition %s order %s)", WindowFnName(p.fn),
                       p.value_column.c_str(),
                       StrJoin(p.partition_columns, ",").c_str(),
                       p.order_column.c_str());
      break;
    }
    case OpKind::kCollect: {
      const auto& p = Params<CollectParams>();
      out += StrFormat(" %s -> %s", p.name.c_str(), p.recipients.ToString().c_str());
      break;
    }
    default:
      break;
  }
  out += " :: " + schema.ToString();
  if (owner != kNoParty) {
    out += StrFormat(" owner=%d", owner);
  }
  return out;
}

StatusOr<ResolvedOp> ResolveOp(const OpNode& node,
                               const std::vector<const Schema*>& inputs) {
  ResolvedOp op;
  switch (node.kind) {
    case OpKind::kConcat: {
      CONCLAVE_ASSIGN_OR_RETURN(
          op.columns, inputs[0]->IndicesOf(node.Params<ConcatParams>().merge_columns));
      break;
    }
    case OpKind::kProject: {
      CONCLAVE_ASSIGN_OR_RETURN(
          op.columns, inputs[0]->IndicesOf(node.Params<ProjectParams>().columns));
      break;
    }
    case OpKind::kFilter: {
      const auto& params = node.Params<FilterParams>();
      CONCLAVE_ASSIGN_OR_RETURN(op.filter.column, inputs[0]->IndexOf(params.column));
      op.filter.op = params.op;
      op.filter.rhs_is_column = params.rhs_is_column;
      if (params.rhs_is_column) {
        CONCLAVE_ASSIGN_OR_RETURN(op.filter.rhs_column,
                                  inputs[0]->IndexOf(params.rhs_column));
      } else {
        op.filter.rhs_literal = params.literal;
      }
      break;
    }
    case OpKind::kJoin: {
      const auto& params = node.Params<JoinParams>();
      CONCLAVE_ASSIGN_OR_RETURN(op.columns, inputs[0]->IndicesOf(params.left_keys));
      CONCLAVE_ASSIGN_OR_RETURN(op.right_keys, inputs[1]->IndicesOf(params.right_keys));
      break;
    }
    case OpKind::kAggregate: {
      const auto& params = node.Params<AggregateParams>();
      CONCLAVE_ASSIGN_OR_RETURN(op.columns, inputs[0]->IndicesOf(params.group_columns));
      if (params.kind != AggKind::kCount) {
        CONCLAVE_ASSIGN_OR_RETURN(op.agg_column, inputs[0]->IndexOf(params.agg_column));
      }
      break;
    }
    case OpKind::kArithmetic: {
      const auto& params = node.Params<ArithmeticParams>();
      op.arith.kind = params.kind;
      CONCLAVE_ASSIGN_OR_RETURN(op.arith.lhs_column,
                                inputs[0]->IndexOf(params.lhs_column));
      op.arith.rhs_is_column = params.rhs_is_column;
      if (params.rhs_is_column) {
        CONCLAVE_ASSIGN_OR_RETURN(op.arith.rhs_column,
                                  inputs[0]->IndexOf(params.rhs_column));
      } else {
        op.arith.rhs_literal = params.literal;
      }
      op.arith.result_name = params.output_name;
      op.arith.scale = params.scale;
      break;
    }
    case OpKind::kWindow: {
      const auto& params = node.Params<WindowParams>();
      CONCLAVE_ASSIGN_OR_RETURN(op.window.partition_columns,
                                inputs[0]->IndicesOf(params.partition_columns));
      CONCLAVE_ASSIGN_OR_RETURN(op.window.order_column,
                                inputs[0]->IndexOf(params.order_column));
      op.window.fn = params.fn;
      if (params.fn != WindowFn::kRowNumber) {
        CONCLAVE_ASSIGN_OR_RETURN(op.window.value_column,
                                  inputs[0]->IndexOf(params.value_column));
      }
      op.window.output_name = params.output_name;
      break;
    }
    case OpKind::kSortBy: {
      CONCLAVE_ASSIGN_OR_RETURN(
          op.columns, inputs[0]->IndicesOf(node.Params<SortByParams>().columns));
      break;
    }
    case OpKind::kDistinct: {
      CONCLAVE_ASSIGN_OR_RETURN(
          op.columns, inputs[0]->IndicesOf(node.Params<DistinctParams>().columns));
      break;
    }
    case OpKind::kCreate:
    case OpKind::kPad:
    case OpKind::kLimit:
    case OpKind::kCollect:
      break;  // No column references.
  }
  return op;
}

}  // namespace ir
}  // namespace conclave
