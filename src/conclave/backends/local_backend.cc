#include "conclave/backends/local_backend.h"

#include "conclave/common/strings.h"
#include "conclave/relational/ops.h"

namespace conclave {
namespace backends {

StatusOr<Relation> ExecuteLocal(const ir::OpNode& node,
                                const std::vector<const Relation*>& inputs,
                                const LocalExecOptions& options) {
  switch (node.kind) {
    case ir::OpKind::kCreate:
      return InternalError("create nodes materialize from provided inputs");
    case ir::OpKind::kConcat: {
      Relation merged = ops::Concat(inputs);
      const auto& params = node.Params<ir::ConcatParams>();
      if (!params.merge_columns.empty()) {
        CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                  merged.schema().IndicesOf(params.merge_columns));
        merged = ops::SortBy(merged, columns);
      }
      return merged;
    }
    case ir::OpKind::kProject: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::ProjectParams>().columns));
      return ops::Project(*inputs[0], columns);
    }
    case ir::OpKind::kFilter: {
      CONCLAVE_ASSIGN_OR_RETURN(
          FilterPredicate predicate,
          ir::ResolveFilter(inputs[0]->schema(), node.Params<ir::FilterParams>()));
      return ops::Filter(*inputs[0], predicate);
    }
    case ir::OpKind::kJoin: {
      const auto& params = node.Params<ir::JoinParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> lk,
                                inputs[0]->schema().IndicesOf(params.left_keys));
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> rk,
                                inputs[1]->schema().IndicesOf(params.right_keys));
      return spill::Join(*inputs[0], *inputs[1], lk, rk, options.mem_budget_rows,
                         options.spill_stats);
    }
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> group,
                                inputs[0]->schema().IndicesOf(params.group_columns));
      int agg_column = 0;
      if (params.kind != AggKind::kCount) {
        CONCLAVE_ASSIGN_OR_RETURN(agg_column,
                                  inputs[0]->schema().IndexOf(params.agg_column));
      }
      return spill::Aggregate(*inputs[0], group, params.kind, agg_column,
                              params.output_name, options.mem_budget_rows,
                              options.spill_stats);
    }
    case ir::OpKind::kArithmetic: {
      CONCLAVE_ASSIGN_OR_RETURN(
          ArithSpec spec,
          ir::ResolveArith(inputs[0]->schema(), node.Params<ir::ArithmeticParams>()));
      return ops::Arithmetic(*inputs[0], spec);
    }
    case ir::OpKind::kWindow: {
      const auto& params = node.Params<ir::WindowParams>();
      WindowSpec spec;
      CONCLAVE_ASSIGN_OR_RETURN(spec.partition_columns,
                                inputs[0]->schema().IndicesOf(params.partition_columns));
      CONCLAVE_ASSIGN_OR_RETURN(spec.order_column,
                                inputs[0]->schema().IndexOf(params.order_column));
      spec.fn = params.fn;
      if (params.fn != WindowFn::kRowNumber) {
        CONCLAVE_ASSIGN_OR_RETURN(spec.value_column,
                                  inputs[0]->schema().IndexOf(params.value_column));
      }
      spec.output_name = params.output_name;
      return ops::Window(*inputs[0], spec);
    }
    case ir::OpKind::kSortBy: {
      const auto& params = node.Params<ir::SortByParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                inputs[0]->schema().IndicesOf(params.columns));
      return spill::SortBy(*inputs[0], columns, params.ascending,
                           options.mem_budget_rows, options.spill_stats);
    }
    case ir::OpKind::kDistinct: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::DistinctParams>().columns));
      return spill::Distinct(*inputs[0], columns, options.mem_budget_rows,
                             options.spill_stats);
    }
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
  switch (node.kind) {
    case ir::OpKind::kFilter: {
      CONCLAVE_ASSIGN_OR_RETURN(
          FilterPredicate predicate,
          ir::ResolveFilter(input_schema, node.Params<ir::FilterParams>()));
      return PipelineOp::Filter(predicate);
    }
    case ir::OpKind::kProject: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          input_schema.IndicesOf(node.Params<ir::ProjectParams>().columns));
      return PipelineOp::Project(std::move(columns));
    }
    case ir::OpKind::kArithmetic: {
      CONCLAVE_ASSIGN_OR_RETURN(
          ArithSpec spec,
          ir::ResolveArith(input_schema, node.Params<ir::ArithmeticParams>()));
      return PipelineOp::Arithmetic(spec);
    }
    case ir::OpKind::kLimit:
      return PipelineOp::Limit(node.Params<ir::LimitParams>().count);
    case ir::OpKind::kDistinct: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          input_schema.IndicesOf(node.Params<ir::DistinctParams>().columns));
      return PipelineOp::DistinctOnSorted(std::move(columns));
    }
    default:
      return InternalError(
          StrFormat("op kind %s is not pipeline-fusible", ir::OpKindName(node.kind)));
  }
}

}  // namespace backends
}  // namespace conclave
