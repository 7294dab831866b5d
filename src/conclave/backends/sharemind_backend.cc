#include "conclave/backends/sharemind_backend.h"

#include "conclave/hybrid/hybrid_agg.h"
#include "conclave/hybrid/hybrid_join.h"
#include "conclave/hybrid/hybrid_window.h"
#include "conclave/hybrid/public_join.h"

namespace conclave {
namespace backends {

StatusOr<SharedRelation> SharemindBackend::Execute(
    const ir::OpNode& node, const std::vector<const SharedRelation*>& inputs) {
  CONCLAVE_ASSIGN_OR_RETURN(const ir::ResolvedOp op,
                            ir::ResolveOp(node, ir::SchemasOf(inputs)));
  switch (node.kind) {
    case ir::OpKind::kConcat: {
      if (!op.columns.empty()) {
        return mpc::MergeConcat(engine_, inputs, op.columns);
      }
      return mpc::Concat(inputs);
    }
    case ir::OpKind::kProject:
      return mpc::Project(*inputs[0], op.columns);
    case ir::OpKind::kFilter:
      return mpc::Filter(engine_, *inputs[0], op.filter);
    case ir::OpKind::kJoin:
      switch (node.hybrid) {
        case ir::HybridKind::kHybridJoin:
          return hybrid::HybridJoin(engine_, *inputs[0], *inputs[1], op.columns,
                                    op.right_keys, node.stp, num_parties_);
        case ir::HybridKind::kPublicJoin:
          return hybrid::PublicJoinShared(engine_, *inputs[0], *inputs[1], op.columns,
                                          op.right_keys, node.stp, num_parties_);
        default:
          return mpc::Join(engine_, *inputs[0], *inputs[1], op.columns, op.right_keys);
      }
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      if (node.hybrid == ir::HybridKind::kHybridAggregate) {
        return hybrid::HybridAggregate(engine_, *inputs[0], op.columns, params.kind,
                                       op.agg_column, params.output_name, node.stp,
                                       num_parties_);
      }
      return mpc::Aggregate(engine_, *inputs[0], op.columns, params.kind,
                            op.agg_column, params.output_name, node.assume_sorted);
    }
    case ir::OpKind::kArithmetic:
      return mpc::Arithmetic(engine_, *inputs[0], op.arith);
    case ir::OpKind::kWindow: {
      const WindowSpec& window = op.window;
      if (node.hybrid == ir::HybridKind::kHybridWindow) {
        return hybrid::HybridWindow(engine_, *inputs[0], window.partition_columns,
                                    window.order_column, window.fn,
                                    window.value_column, window.output_name, node.stp,
                                    num_parties_);
      }
      return mpc::Window(engine_, *inputs[0], window.partition_columns,
                         window.order_column, window.fn, window.value_column,
                         window.output_name, node.assume_sorted);
    }
    case ir::OpKind::kSortBy:
      return mpc::Sort(engine_, *inputs[0], op.columns,
                       node.Params<ir::SortByParams>().ascending, node.assume_sorted);
    case ir::OpKind::kDistinct:
      return mpc::Distinct(engine_, *inputs[0], op.columns, node.assume_sorted);
    case ir::OpKind::kLimit:
      return mpc::Limit(*inputs[0], node.Params<ir::LimitParams>().count);
    case ir::OpKind::kPad:
      return InternalError("pad is a local pre-MPC step; it never runs under MPC");
    case ir::OpKind::kCreate:
    case ir::OpKind::kCollect:
      return InternalError("create/collect nodes are dispatcher boundaries");
  }
  return InternalError("unhandled op kind in Sharemind backend");
}

}  // namespace backends
}  // namespace conclave
