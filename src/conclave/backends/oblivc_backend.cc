#include "conclave/backends/oblivc_backend.h"

namespace conclave {
namespace backends {

StatusOr<Relation> OblivcBackend::Execute(
    const ir::OpNode& node, const std::vector<const Relation*>& inputs) {
  if (node.hybrid != ir::HybridKind::kNone) {
    return UnimplementedError(
        "hybrid protocols run on the secret-sharing backend, not Obliv-C");
  }
  switch (node.kind) {
    case ir::OpKind::kConcat: {
      std::vector<Relation> rels;
      rels.reserve(inputs.size());
      for (const Relation* rel : inputs) {
        rels.push_back(*rel);
      }
      const auto& params = node.Params<ir::ConcatParams>();
      if (!params.merge_columns.empty()) {
        // Sorted-merge concat: costed as concat + sort (no merge network in the GC
        // engine's cost model; conservative).
        CONCLAVE_ASSIGN_OR_RETURN(Relation merged, engine_.Concat(rels));
        CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                  merged.schema().IndicesOf(params.merge_columns));
        return engine_.Sort(merged, columns);
      }
      return engine_.Concat(rels);
    }
    case ir::OpKind::kProject: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::ProjectParams>().columns));
      return engine_.Project(*inputs[0], columns);
    }
    case ir::OpKind::kFilter: {
      CONCLAVE_ASSIGN_OR_RETURN(
          FilterPredicate predicate,
          ir::ResolveFilter(inputs[0]->schema(), node.Params<ir::FilterParams>()));
      return engine_.Filter(*inputs[0], predicate);
    }
    case ir::OpKind::kJoin: {
      const auto& params = node.Params<ir::JoinParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> lk,
                                inputs[0]->schema().IndicesOf(params.left_keys));
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> rk,
                                inputs[1]->schema().IndicesOf(params.right_keys));
      return engine_.Join(*inputs[0], *inputs[1], lk, rk);
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
      return engine_.Aggregate(*inputs[0], group, params.kind, agg_column,
                               params.output_name, node.assume_sorted);
    }
    case ir::OpKind::kArithmetic: {
      CONCLAVE_ASSIGN_OR_RETURN(
          ArithSpec spec,
          ir::ResolveArith(inputs[0]->schema(), node.Params<ir::ArithmeticParams>()));
      return engine_.Arithmetic(*inputs[0], spec);
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
      return engine_.Window(*inputs[0], spec, node.assume_sorted);
    }
    case ir::OpKind::kSortBy: {
      const auto& params = node.Params<ir::SortByParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                inputs[0]->schema().IndicesOf(params.columns));
      return engine_.Sort(*inputs[0], columns, params.ascending, node.assume_sorted);
    }
    case ir::OpKind::kDistinct: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::DistinctParams>().columns));
      return engine_.Distinct(*inputs[0], columns, node.assume_sorted);
    }
    case ir::OpKind::kLimit:
      return engine_.Limit(*inputs[0], node.Params<ir::LimitParams>().count);
    case ir::OpKind::kPad:
      return InternalError("pad is a local pre-MPC step; it never runs under MPC");
    case ir::OpKind::kCreate:
    case ir::OpKind::kCollect:
      return InternalError("create/collect nodes are dispatcher boundaries");
  }
  return InternalError("unhandled op kind in Obliv-C backend");
}

}  // namespace backends
}  // namespace conclave
