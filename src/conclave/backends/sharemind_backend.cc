#include "conclave/backends/sharemind_backend.h"

#include "conclave/hybrid/hybrid_agg.h"
#include "conclave/hybrid/hybrid_join.h"
#include "conclave/hybrid/hybrid_window.h"
#include "conclave/hybrid/public_join.h"

namespace conclave {
namespace backends {

StatusOr<SharedRelation> SharemindBackend::Execute(
    const ir::OpNode& node, const std::vector<const SharedRelation*>& inputs) {
  switch (node.kind) {
    case ir::OpKind::kConcat: {
      const auto& params = node.Params<ir::ConcatParams>();
      if (!params.merge_columns.empty()) {
        // Sorted-merge concat (§5.4): fold the branches through oblivious merges.
        CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                  inputs[0]->schema().IndicesOf(params.merge_columns));
        SharedRelation merged = *inputs[0];
        for (size_t i = 1; i < inputs.size(); ++i) {
          merged = ObliviousMerge(engine_, merged, *inputs[i], columns);
        }
        return merged;
      }
      std::vector<SharedRelation> rels;
      rels.reserve(inputs.size());
      for (const SharedRelation* rel : inputs) {
        rels.push_back(*rel);
      }
      return mpc::Concat(rels);
    }
    case ir::OpKind::kProject: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::ProjectParams>().columns));
      return mpc::Project(*inputs[0], columns);
    }
    case ir::OpKind::kFilter: {
      CONCLAVE_ASSIGN_OR_RETURN(
          FilterPredicate predicate,
          ir::ResolveFilter(inputs[0]->schema(), node.Params<ir::FilterParams>()));
      return mpc::Filter(engine_, *inputs[0], predicate);
    }
    case ir::OpKind::kJoin: {
      const auto& params = node.Params<ir::JoinParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> lk,
                                inputs[0]->schema().IndicesOf(params.left_keys));
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> rk,
                                inputs[1]->schema().IndicesOf(params.right_keys));
      switch (node.hybrid) {
        case ir::HybridKind::kHybridJoin:
          return hybrid::HybridJoin(engine_, *inputs[0], *inputs[1], lk, rk, node.stp,
                                    num_parties_);
        case ir::HybridKind::kPublicJoin:
          return hybrid::PublicJoinShared(engine_, *inputs[0], *inputs[1], lk, rk,
                                          node.stp, num_parties_);
        default:
          return mpc::Join(engine_, *inputs[0], *inputs[1], lk, rk);
      }
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
      if (node.hybrid == ir::HybridKind::kHybridAggregate) {
        return hybrid::HybridAggregate(engine_, *inputs[0], group, params.kind,
                                       agg_column, params.output_name, node.stp,
                                       num_parties_);
      }
      return mpc::Aggregate(engine_, *inputs[0], group, params.kind, agg_column,
                            params.output_name, node.assume_sorted);
    }
    case ir::OpKind::kArithmetic: {
      CONCLAVE_ASSIGN_OR_RETURN(
          ArithSpec spec,
          ir::ResolveArith(inputs[0]->schema(), node.Params<ir::ArithmeticParams>()));
      return mpc::Arithmetic(engine_, *inputs[0], spec);
    }
    case ir::OpKind::kWindow: {
      const auto& params = node.Params<ir::WindowParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> partition,
                                inputs[0]->schema().IndicesOf(params.partition_columns));
      CONCLAVE_ASSIGN_OR_RETURN(int order_column,
                                inputs[0]->schema().IndexOf(params.order_column));
      int value_column = 0;
      if (params.fn != WindowFn::kRowNumber) {
        CONCLAVE_ASSIGN_OR_RETURN(value_column,
                                  inputs[0]->schema().IndexOf(params.value_column));
      }
      if (node.hybrid == ir::HybridKind::kHybridWindow) {
        return hybrid::HybridWindow(engine_, *inputs[0], partition, order_column,
                                    params.fn, value_column, params.output_name,
                                    node.stp, num_parties_);
      }
      return mpc::Window(engine_, *inputs[0], partition, order_column, params.fn,
                         value_column, params.output_name, node.assume_sorted);
    }
    case ir::OpKind::kSortBy: {
      const auto& params = node.Params<ir::SortByParams>();
      CONCLAVE_ASSIGN_OR_RETURN(std::vector<int> columns,
                                inputs[0]->schema().IndicesOf(params.columns));
      return mpc::Sort(engine_, *inputs[0], columns, params.ascending,
                       node.assume_sorted);
    }
    case ir::OpKind::kDistinct: {
      CONCLAVE_ASSIGN_OR_RETURN(
          std::vector<int> columns,
          inputs[0]->schema().IndicesOf(node.Params<ir::DistinctParams>().columns));
      return mpc::Distinct(engine_, *inputs[0], columns, node.assume_sorted);
    }
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
