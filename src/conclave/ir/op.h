// Query IR: one node per relational operator in the query DAG (§4.2).
//
// A node carries (a) its operator kind and parameters (column references by name —
// resolution against inferred schemas happens at DAG construction), and (b) metadata
// the compiler passes compute: the output schema with *propagated trust sets* (§5.1),
// relation ownership and storage locations (§5.1), MPC placement (§5.2), hybrid
// protocol assignment (§5.3), and sortedness for oblivious-sort elimination (§5.4).
#ifndef CONCLAVE_IR_OP_H_
#define CONCLAVE_IR_OP_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "conclave/common/party.h"
#include "conclave/dp/mechanism.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/schema.h"

namespace conclave {
namespace ir {

enum class OpKind {
  kCreate,      // Input relation stored at a party.
  kConcat,      // Duplicate-preserving union across parties.
  kProject,
  kFilter,
  kJoin,
  kAggregate,
  kArithmetic,  // multiply / divide / add / subtract, appending a result column.
  kWindow,      // Window function over (partition, order), appending a result column.
  kPad,         // Adaptive padding to a power-of-two row count (§9 extension).
  kSortBy,
  kDistinct,
  kLimit,
  kCollect,     // Output relation revealed to recipient parties.
};

const char* OpKindName(OpKind kind);

// Which engine executes a node (decided by the compiler).
enum class ExecMode {
  kLocal,   // Cleartext at exec_party (Python or Spark).
  kMpc,     // Under the MPC backend.
  kHybrid,  // Hybrid MPC-cleartext protocol with an STP (join/aggregate only).
};

const char* ExecModeName(ExecMode mode);

// Hybrid protocol selected for a node (§5.3).
enum class HybridKind {
  kNone,
  kHybridJoin,
  kPublicJoin,
  kHybridAggregate,
  kHybridWindow,
};

const char* HybridKindName(HybridKind kind);

// --- Per-kind parameters -------------------------------------------------------------

struct CreateParams {
  std::string name;        // Input relation name (CSV basename / registry key).
  Schema schema;           // Declared schema with trust annotations (§4.3).
  PartyId party = kNoParty;  // The `at=` owner annotation.
  int64_t num_rows_hint = 0; // Optional cardinality hint for planning diagnostics.
  // Non-empty = the input is a CSV file the owning party's agent reads itself
  // (api::Query::NewCsvTable) instead of a relation passed to Run. When the sole
  // consumer is a fused local chain, the dispatcher streams row ranges from the
  // file batch-at-a-time and the source relation never materializes (§12).
  std::string csv_path;
};

struct ConcatParams {
  // Non-empty = sorted-merge concat: every branch arrives sorted by these columns and
  // the concat merges obliviously instead of interleaving (§5.4's sort push-up).
  std::vector<std::string> merge_columns;
};

struct ProjectParams {
  std::vector<std::string> columns;
};

struct FilterParams {
  std::string column;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_column = false;
  std::string rhs_column;
  int64_t literal = 0;
};

struct JoinParams {
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
};

struct AggregateParams {
  std::vector<std::string> group_columns;  // Empty = global aggregate.
  AggKind kind = AggKind::kSum;
  std::string agg_column;                  // Ignored for kCount.
  std::string output_name;
};

struct ArithmeticParams {
  ArithKind kind = ArithKind::kMul;
  std::string lhs_column;
  bool rhs_is_column = false;
  std::string rhs_column;
  int64_t literal = 0;
  std::string output_name;
  int64_t scale = 1;  // Fixed-point numerator scale for kDiv.
};

struct WindowParams {
  std::vector<std::string> partition_columns;
  std::string order_column;
  WindowFn fn = WindowFn::kRowNumber;
  std::string value_column;  // Ignored for kRowNumber.
  std::string output_name;
};

// Adaptive padding (§9's future-work direction, implemented): a local step that pads
// a party's MPC contribution to the next power of two with sentinel rows, hiding the
// exact (data-dependent) cardinality behind a log2 bucket. Sentinel cells live in
// [ops::kSentinelBase, ...), far above the supported data domain; each pad row's
// cells are globally unique, so pads never join with anything and never collide in
// group-by keys. Recipients strip sentinel rows at the Collect boundary.
struct PadParams {
  // Disambiguates sentinels across pad sites (party/branch index).
  int64_t sentinel_stream = 0;
};

struct SortByParams {
  std::vector<std::string> columns;
  bool ascending = true;
};

struct DistinctParams {
  std::vector<std::string> columns;
};

struct LimitParams {
  int64_t count = 0;
};

struct CollectParams {
  std::string name;      // Output relation name.
  PartySet recipients;   // The `to=` annotation: who learns the cleartext result.
  // Optional differential-privacy request: the recipients receive the listed columns
  // with calibrated discrete-Laplace noise instead of exact values (§8 extension).
  dp::DpSpec dp;
};

using OpParams =
    std::variant<CreateParams, ConcatParams, ProjectParams, FilterParams, JoinParams,
                 AggregateParams, ArithmeticParams, WindowParams, PadParams,
                 SortByParams, DistinctParams, LimitParams, CollectParams>;

// --- The node -------------------------------------------------------------------------

struct OpNode {
  int id = -1;
  OpKind kind = OpKind::kCreate;
  OpParams params;
  std::vector<OpNode*> inputs;   // Upstream nodes (owned by the Dag).
  std::vector<OpNode*> outputs;  // Downstream consumers (maintained by the Dag).

  // Output schema, with column names inferred at construction and trust sets filled
  // by the trust-propagation pass.
  Schema schema;

  // --- Ownership metadata (§5.1) ---
  // Parties holding (partitions of) this relation's cleartext or shares.
  PartySet stored_with;
  // The party able to derive this relation locally, or kNoParty for combined data.
  PartyId owner = kNoParty;

  // --- Placement (§5.2–5.3) ---
  ExecMode exec_mode = ExecMode::kMpc;
  PartyId exec_party = kNoParty;  // For kLocal: where the op runs.
  HybridKind hybrid = HybridKind::kNone;
  PartyId stp = kNoParty;         // For hybrid ops: the selectively-trusted party.

  // --- Sortedness tracking (§5.4) ---
  std::vector<std::string> sorted_by;  // Columns the output is known sorted by.
  bool assume_sorted = false;          // Oblivious sort elided by sort-elimination.

  // Never set by any pass; kept only because bench/e2e/trace.cc still reads it.
  bool retired = false;

  template <typename T>
  const T& Params() const {
    return std::get<T>(params);
  }
  template <typename T>
  T& MutableParams() {
    return std::get<T>(params);
  }

  bool IsLeafOutput() const { return kind == OpKind::kCollect; }
  // One-line rendering: "#4 join[mpc,hybrid-join,stp=0] keys=(ssn|ssn)".
  std::string ToString() const;
};

}  // namespace ir
}  // namespace conclave

#endif  // CONCLAVE_IR_OP_H_
