#include "conclave/backends/oblivc_backend.h"

namespace conclave {
namespace backends {

StatusOr<Relation> OblivcBackend::Execute(
    const ir::OpNode& node, const std::vector<const Relation*>& inputs) {
  if (node.hybrid != ir::HybridKind::kNone) {
    return UnimplementedError(
        "hybrid protocols run on the secret-sharing backend, not Obliv-C");
  }
  CONCLAVE_ASSIGN_OR_RETURN(const ir::ResolvedOp op,
                            ir::ResolveOp(node, ir::SchemasOf(inputs)));
  switch (node.kind) {
    case ir::OpKind::kConcat: {
      if (!op.columns.empty()) {
        // Sorted-merge concat: costed as concat + sort (no merge network in the GC
        // engine's cost model; conservative).
        CONCLAVE_ASSIGN_OR_RETURN(Relation merged, engine_.Concat(inputs));
        return engine_.Sort(merged, op.columns);
      }
      return engine_.Concat(inputs);
    }
    case ir::OpKind::kProject:
      return engine_.Project(*inputs[0], op.columns);
    case ir::OpKind::kFilter:
      return engine_.Filter(*inputs[0], op.filter);
    case ir::OpKind::kJoin:
      return engine_.Join(*inputs[0], *inputs[1], op.columns, op.right_keys);
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      return engine_.Aggregate(*inputs[0], op.columns, params.kind, op.agg_column,
                               params.output_name, node.assume_sorted);
    }
    case ir::OpKind::kArithmetic:
      return engine_.Arithmetic(*inputs[0], op.arith);
    case ir::OpKind::kWindow:
      return engine_.Window(*inputs[0], op.window, node.assume_sorted);
    case ir::OpKind::kSortBy:
      return engine_.Sort(*inputs[0], op.columns,
                          node.Params<ir::SortByParams>().ascending, node.assume_sorted);
    case ir::OpKind::kDistinct:
      return engine_.Distinct(*inputs[0], op.columns, node.assume_sorted);
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
