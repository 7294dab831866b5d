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

StatusOr<FilterPredicate> ResolveFilter(const Schema& schema,
                                        const FilterParams& params) {
  FilterPredicate predicate;
  CONCLAVE_ASSIGN_OR_RETURN(predicate.column, schema.IndexOf(params.column));
  predicate.op = params.op;
  predicate.rhs_is_column = params.rhs_is_column;
  if (params.rhs_is_column) {
    CONCLAVE_ASSIGN_OR_RETURN(predicate.rhs_column, schema.IndexOf(params.rhs_column));
  } else {
    predicate.rhs_literal = params.literal;
  }
  return predicate;
}

StatusOr<ArithSpec> ResolveArith(const Schema& schema,
                                 const ArithmeticParams& params) {
  ArithSpec spec;
  spec.kind = params.kind;
  CONCLAVE_ASSIGN_OR_RETURN(spec.lhs_column, schema.IndexOf(params.lhs_column));
  spec.rhs_is_column = params.rhs_is_column;
  if (params.rhs_is_column) {
    CONCLAVE_ASSIGN_OR_RETURN(spec.rhs_column, schema.IndexOf(params.rhs_column));
  } else {
    spec.rhs_literal = params.literal;
  }
  spec.result_name = params.output_name;
  spec.scale = params.scale;
  return spec;
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

}  // namespace ir
}  // namespace conclave
