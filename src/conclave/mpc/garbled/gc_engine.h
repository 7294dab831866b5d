// Garbled-circuit relational engine (the Obliv-C / ObliVM backend stand-in).
//
// Two-party MPC: one party garbles, the other evaluates. Each relational operator
// (1) computes its circuit size analytically from gc_cost.h (whose per-primitive
// constants are validated against the real circuits in circuit.h), (2) pre-flight
// checks the simulated memory limit — returning RESOURCE_EXHAUSTED exactly where the
// paper reports Obliv-C OOMs (Fig. 1), (3) charges gate/transfer costs to the
// simulated network, and (4) produces the ideal result via the cleartext operator
// library. See DESIGN.md §2 for the simulation contract. Steps (2) and (3) are
// ChargeCircuit below, which the planner also applies to price GC nodes.
//
// ObliVM mode applies CostModel::oblivm_slowdown, modelling SMCQL's slower backend
// (§7.4: "ObliVM ... is slower than Sharemind, particularly on large data").
#ifndef CONCLAVE_MPC_GARBLED_GC_ENGINE_H_
#define CONCLAVE_MPC_GARBLED_GC_ENGINE_H_

#include <span>
#include <string>

#include "conclave/common/status.h"
#include "conclave/mpc/garbled/gc_cost.h"
#include "conclave/net/network.h"
#include "conclave/relational/ops.h"

namespace conclave {
namespace gc {

// One operator's circuit: the memory pre-flight, then gate time (scaled by
// `slowdown`, ObliVM's factor or 1), gate bytes and the constant-round barrier.
// RESOURCE_EXHAUSTED simulates OOM and charges nothing.
Status ChargeCircuit(SimNetwork& network, const GcOpCost& cost, const char* op_name,
                     double slowdown);

// A party's rows x cols input: wire labels via OT, then the live labels must fit.
Status ChargeInputLabels(SimNetwork& network, uint64_t rows, uint64_t cols);

class GcEngine {
 public:
  // `oblivm_mode` selects the slower ObliVM cost profile.
  GcEngine(SimNetwork* network, bool oblivm_mode = false)
      : network_(network), oblivm_mode_(oblivm_mode) {
    CONCLAVE_CHECK(network != nullptr);
  }

  // Transfers a party's input relation into the MPC (wire labels via OT).
  Status ChargeInput(const Relation& input) {
    return ChargeInputLabels(*network_, static_cast<uint64_t>(input.NumRows()),
                             static_cast<uint64_t>(input.NumColumns()));
  }

  StatusOr<Relation> Project(const Relation& input, std::span<const int> columns);
  StatusOr<Relation> Filter(const Relation& input, const FilterPredicate& predicate);
  StatusOr<Relation> Join(const Relation& left, const Relation& right,
                          std::span<const int> left_keys,
                          std::span<const int> right_keys);
  StatusOr<Relation> Aggregate(const Relation& input,
                               std::span<const int> group_columns, AggKind kind,
                               int agg_column, const std::string& output_name,
                               bool assume_sorted = false);
  StatusOr<Relation> Window(const Relation& input, const WindowSpec& spec,
                            bool assume_sorted = false);
  StatusOr<Relation> Sort(const Relation& input, std::span<const int> columns,
                          bool ascending = true, bool assume_sorted = false);
  StatusOr<Relation> Distinct(const Relation& input, std::span<const int> columns,
                              bool assume_sorted = false);
  StatusOr<Relation> Concat(std::span<const Relation* const> inputs);
  StatusOr<Relation> Arithmetic(const Relation& input, const ArithSpec& spec);
  StatusOr<Relation> Limit(const Relation& input, int64_t count);

  bool oblivm_mode() const { return oblivm_mode_; }
  SimNetwork& network() { return *network_; }

 private:
  const CostModel& model() const { return network_->model(); }
  Status Charge(const GcOpCost& cost, const char* op_name) {
    return ChargeCircuit(*network_, cost, op_name,
                         oblivm_mode_ ? model().oblivm_slowdown : 1.0);
  }

  SimNetwork* network_;
  bool oblivm_mode_;
};

}  // namespace gc
}  // namespace conclave

#endif  // CONCLAVE_MPC_GARBLED_GC_ENGINE_H_
