// The query DAG: owns operator nodes, infers schemas at construction, and provides
// the traversal and rewrite primitives (topological order, node insertion/splicing)
// the compiler passes build on.
//
// Construction validates eagerly: every column reference is resolved against the
// inferred input schemas and errors carry the offending schema, so malformed queries
// fail at build time with actionable messages — matching Conclave's goal of freeing
// analysts from MPC-level debugging (§5).
#ifndef CONCLAVE_IR_DAG_H_
#define CONCLAVE_IR_DAG_H_

#include <memory>
#include <string>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/ir/op.h"

namespace conclave {
namespace ir {

class Dag {
 public:
  Dag() = default;
  // Dags own their nodes and hand out stable pointers; no copies.
  Dag(const Dag&) = delete;
  Dag& operator=(const Dag&) = delete;
  Dag(Dag&&) = default;
  Dag& operator=(Dag&&) = default;

  // --- Construction (used by the api frontend and tests) ---------------------------
  StatusOr<OpNode*> AddCreate(const std::string& name, Schema schema, PartyId party,
                              int64_t num_rows_hint = 0,
                              std::string csv_path = {});
  StatusOr<OpNode*> AddConcat(std::vector<OpNode*> inputs);
  StatusOr<OpNode*> AddProject(OpNode* input, std::vector<std::string> columns);
  StatusOr<OpNode*> AddFilter(OpNode* input, FilterParams params);
  StatusOr<OpNode*> AddJoin(OpNode* left, OpNode* right,
                            std::vector<std::string> left_keys,
                            std::vector<std::string> right_keys);
  StatusOr<OpNode*> AddAggregate(OpNode* input, AggregateParams params);
  StatusOr<OpNode*> AddArithmetic(OpNode* input, ArithmeticParams params);
  StatusOr<OpNode*> AddWindow(OpNode* input, WindowParams params);
  StatusOr<OpNode*> AddPad(OpNode* input, PadParams params);
  StatusOr<OpNode*> AddSortBy(OpNode* input, std::vector<std::string> columns,
                              bool ascending = true);
  StatusOr<OpNode*> AddDistinct(OpNode* input, std::vector<std::string> columns);
  StatusOr<OpNode*> AddLimit(OpNode* input, int64_t count);
  StatusOr<OpNode*> AddCollect(OpNode* input, const std::string& name,
                               PartySet recipients, dp::DpSpec dp = {});

  // --- Rewrite support (used by compiler passes) -------------------------------------
  // Re-infers `node`'s schema *names* from its (possibly rewritten) inputs, keeping
  // trust sets empty for the trust pass to refill.
  Status ReinferSchema(OpNode* node);
  // Replaces every use of `old_input` in `node` with `new_input`, updating back-edges.
  void ReplaceInput(OpNode* node, OpNode* old_input, OpNode* new_input);
  // Detaches a node from its inputs (it must have no outputs); keeps ownership (the
  // node stays allocated but unreachable, and is excluded from traversals).
  void Detach(OpNode* node);

  // --- Traversal -----------------------------------------------------------------------
  // Nodes reachable from Create roots, in a topological order (inputs before users).
  std::vector<OpNode*> TopoOrder() const;
  std::vector<OpNode*> Creates() const;
  std::vector<OpNode*> Collects() const;

  // Multi-line rendering of the (reachable) DAG in topological order.
  std::string ToString() const;
  // Graphviz dot output (used by examples to visualize rewrites).
  std::string ToDot() const;

  // Records that the query declares `count` parties (api::Query::AddParty), so a
  // declared party that holds no input and receives no output still takes part.
  void DeclareParties(int count) { declared_parties_ = count; }

  // The declared party count, or the highest party id mentioned in Create/Collect
  // annotations plus one, whichever is larger.
  int NumParties() const;

 private:
  OpNode* NewNode(OpKind kind, OpParams params, std::vector<OpNode*> inputs);

  std::vector<std::unique_ptr<OpNode>> nodes_;
  int next_id_ = 0;
  int declared_parties_ = 0;
};

// Infers output column names for a node from its inputs' schemas (trust sets are left
// empty; the trust pass computes them). Exposed for pass-internal rewrites.
StatusOr<Schema> InferSchemaNames(const OpNode& node);

}  // namespace ir
}  // namespace conclave

#endif  // CONCLAVE_IR_DAG_H_
