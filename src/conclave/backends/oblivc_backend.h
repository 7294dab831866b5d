// Obliv-C-style garbled-circuit MPC backend (§6).
//
// Two-party: one garbler, one evaluator. Wraps the GcEngine (analytic circuit costing
// + ideal-model evaluation, see mpc/garbled/gc_engine.h) and dispatches DAG nodes.
// Hybrid operators are not supported here — the paper implements its hybrid protocols
// on the secret-sharing backend — so hybrid-marked nodes are rejected.
#ifndef CONCLAVE_BACKENDS_OBLIVC_BACKEND_H_
#define CONCLAVE_BACKENDS_OBLIVC_BACKEND_H_

#include <vector>

#include "conclave/common/status.h"
#include "conclave/ir/op.h"
#include "conclave/mpc/garbled/gc_engine.h"

namespace conclave {
namespace backends {

class OblivcBackend {
 public:
  explicit OblivcBackend(SimNetwork* network) : engine_(network) {}

  Status Input(const Relation& relation) { return engine_.ChargeInput(relation); }

  StatusOr<Relation> Execute(const ir::OpNode& node,
                             const std::vector<const Relation*>& inputs);

 private:
  gc::GcEngine engine_;
};

}  // namespace backends
}  // namespace conclave

#endif  // CONCLAVE_BACKENDS_OBLIVC_BACKEND_H_
