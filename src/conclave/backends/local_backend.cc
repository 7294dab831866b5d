#include "conclave/backends/local_backend.h"

#include "conclave/common/strings.h"
#include "conclave/relational/ops.h"

namespace conclave {
namespace backends {

StatusOr<Relation> ExecuteLocal(const ir::OpNode& node,
                                const std::vector<const Relation*>& inputs,
                                const LocalExecOptions& options) {
  CONCLAVE_ASSIGN_OR_RETURN(const ir::ResolvedOp op,
                            ir::ResolveOp(node, ir::SchemasOf(inputs)));
  switch (node.kind) {
    case ir::OpKind::kCreate:
      return InternalError("create nodes materialize from provided inputs");
    case ir::OpKind::kConcat: {
      Relation merged = ops::Concat(inputs);
      if (!op.columns.empty()) {
        merged = ops::SortBy(merged, op.columns);
      }
      return merged;
    }
    case ir::OpKind::kProject:
      return ops::Project(*inputs[0], op.columns);
    case ir::OpKind::kFilter:
      return ops::Filter(*inputs[0], op.filter);
    case ir::OpKind::kJoin:
      return spill::Join(*inputs[0], *inputs[1], op.columns, op.right_keys,
                         options.mem_budget_rows, options.spill_stats);
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      return spill::Aggregate(*inputs[0], op.columns, params.kind, op.agg_column,
                              params.output_name, options.mem_budget_rows,
                              options.spill_stats);
    }
    case ir::OpKind::kArithmetic:
      return ops::Arithmetic(*inputs[0], op.arith);
    case ir::OpKind::kWindow:
      return ops::Window(*inputs[0], op.window);
    case ir::OpKind::kSortBy:
      return spill::SortBy(*inputs[0], op.columns,
                           node.Params<ir::SortByParams>().ascending,
                           options.mem_budget_rows, options.spill_stats);
    case ir::OpKind::kDistinct:
      return spill::Distinct(*inputs[0], op.columns, options.mem_budget_rows,
                             options.spill_stats);
    case ir::OpKind::kPad:
      return ops::PadToPowerOfTwo(*inputs[0],
                                  node.Params<ir::PadParams>().sentinel_stream);
    case ir::OpKind::kLimit:
      return ops::Limit(*inputs[0], node.Params<ir::LimitParams>().count);
    case ir::OpKind::kCollect:
      return *inputs[0];
  }
  return InternalError("unhandled op kind in local execution");
}

StatusOr<PipelineOp> ResolvePipelineOp(const Schema& input_schema,
                                       const ir::OpNode& node) {
  CONCLAVE_ASSIGN_OR_RETURN(ir::ResolvedOp op, ir::ResolveOp(node, {&input_schema}));
  switch (node.kind) {
    case ir::OpKind::kFilter:
      return PipelineOp::Filter(op.filter);
    case ir::OpKind::kProject:
      return PipelineOp::Project(std::move(op.columns));
    case ir::OpKind::kArithmetic:
      return PipelineOp::Arithmetic(op.arith);
    case ir::OpKind::kLimit:
      return PipelineOp::Limit(node.Params<ir::LimitParams>().count);
    case ir::OpKind::kDistinct:
      return PipelineOp::DistinctOnSorted(std::move(op.columns));
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      return PipelineOp::Aggregate(std::move(op.columns), params.kind, op.agg_column,
                                   params.output_name);
    }
    default:
      return InternalError(
          StrFormat("op kind %s is not pipeline-fusible", ir::OpKindName(node.kind)));
  }
}

}  // namespace backends
}  // namespace conclave
