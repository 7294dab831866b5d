#include "conclave/backends/dispatcher.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "conclave/backends/local_backend.h"
#include "conclave/common/logging.h"
#include "conclave/common/party.h"
#include "conclave/common/strings.h"
#include "conclave/compiler/partition.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/mpc/malicious/commitment.h"
#include "conclave/mpc/reveal_source.h"
#include "conclave/mpc/share.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/row_source.h"

namespace conclave {
namespace backends {
namespace {

// A DAG node's value during a run. Its four kinds mirror where the data lives
// in a real deployment:
//   * kCleartext — a relation held in the clear by one party (local jobs);
//   * kShared    — a secret-shared relation inside the Sharemind-style backend;
//   * kGarbled   — a relation inside the garbled-circuit backend (payload
//                  evaluated in the ideal model, costs and memory fully
//                  accounted; see mpc/garbled/gc_engine.h);
//   * kSource    — the streaming form (DESIGN.md §12, §14): when compiler::
//                  PipelineChains marks a fused chain as streaming its input,
//                  the input's value stays a RowSource — a CSV-backed Create
//                  keeps only its indexed text, a shared value keeps its shares
//                  — and the chain's pipeline pulls row ranges batch-at-a-time,
//                  so the relation never exists in memory.
struct MaterializedValue {
  enum class Kind { kCleartext, kShared, kGarbled, kSource };

  Kind kind = Kind::kCleartext;
  // kCleartext / kGarbled payload, one immutable handle. inputToMPC, reveals
  // and lane checkpoints read it in place; a pool task holds its own copy of
  // the handle, so a later transition may drop this one while the task still
  // reads. An in-memory Create's handle borrows the caller's relation: it
  // aliases the entry of Dispatcher::Run's `inputs`, which outlive the run and
  // are never written.
  std::shared_ptr<const Relation> clear;
  PartyId location = kNoParty;  // kCleartext / kSource: holder.
  SharedRelation shared;   // kShared.
  std::shared_ptr<const RowSource> source;  // kSource (shared with in-flight tasks).

  int64_t NumRows() const {
    switch (kind) {
      case Kind::kShared:
        return shared.NumRows();
      case Kind::kSource:
        return source->NumRows();
      default:
        return clear->NumRows();
    }
  }
};

// A Create's input must arrive with the column names it declares.
Status CheckInputSchema(const std::string& name, const Schema& schema,
                        const ir::OpNode& create) {
  if (schema.NamesMatch(create.schema)) {
    return Status::Ok();
  }
  return InvalidArgumentError(StrFormat(
      "input '%s' schema %s does not match declared schema %s", name.c_str(),
      schema.ToString().c_str(), create.schema.ToString().c_str()));
}

// How the executor treats a node: pool-executed cleartext work vs. coordinator-run
// steps (Collects mutate shared run state; MPC/hybrid nodes additionally serialize
// on the lane).
enum class NodeClass { kCreate, kLocalCompute, kCollect, kLane };

NodeClass ClassOf(const ir::OpNode& node) {
  if (node.kind == ir::OpKind::kCreate) {
    return NodeClass::kCreate;
  }
  if (node.kind == ir::OpKind::kCollect) {
    return NodeClass::kCollect;
  }
  return node.exec_mode == ir::ExecMode::kLocal ? NodeClass::kLocalCompute
                                                : NodeClass::kLane;
}

// Runs one compiled plan as a parallel job graph, and owns the run's state.
// The coordinator (the thread that calls Run) owns every piece of shared
// mutable simulation state — the SimNetwork, the MPC engines, the fault
// injector, and all value-form transitions — while pure cleartext compute
// (Create ingest, local operator chains) runs as pool tasks, each holding
// handles to the rows it reads. See DESIGN.md §5 for the determinism contract
// this layout enforces.
class JobGraphExecutor {
 public:
  JobGraphExecutor(const CostModel& model, uint64_t seed,
                   const compiler::ExecOptions& exec,
                   const compiler::Compilation& compilation,
                   const std::map<std::string, Relation>& inputs, ThreadPool& pool,
                   std::vector<const ir::OpNode*> topo)
      : compilation_(compilation),
        inputs_(inputs),
        pool_(pool),
        topo_(std::move(topo)),
        net_(model),
        sharemind_(&net_, seed, compilation.num_parties),
        oblivc_(&net_),
        seed_(seed),
        batch_rows_(exec.batch_rows),
        mem_budget_rows_(exec.mem_budget_rows) {
    // Fault injection (DESIGN.md §11), armed by the resolved plan.
    if (exec.fault_plan->enabled) {
      fault_.emplace(*exec.fault_plan, model);
      net_.set_fault_injector(&*fault_);
    }
  }

  StatusOr<ExecutionResult> Run();

 private:
  struct NodeExec {
    const ir::OpNode* node = nullptr;
    NodeClass klass = NodeClass::kLocalCompute;
    bool dispatched = false;
    bool materialized = false;
    // The node's value once materialized. A fused chain's interior members
    // never store one: the chain's pipeline consumes it.
    MaterializedValue value;
    // Consumers (as topo indices, ascending, one entry per use) and how many of
    // those uses have performed their input acquisition. Acquisitions happen in
    // this fixed order so value-form transitions (reveal, transfer, inputToMPC)
    // replay identically regardless of pool size.
    std::vector<int> consumer_uses;
    int acquired_uses = 0;
    // Facts execution records for the accounting pass (PriceNodes), which
    // prices them in topo order, never in completion order.
    double boundary_scaled_seconds = 0;  // Reveal/transfer/ingest/MPC, x MpcScale.
    double dp_epsilon = 0;
    // Rows a local node read from each DAG input: recorded at acquisition for
    // a job's head and from the pipeline's per-op meters for a fused member,
    // so they equal the unfused execution's input cardinalities at every
    // {pool, batch} point. Empty = the node's work never ran.
    std::vector<int64_t> input_rows;
    // Crash restarts of the pool task this node heads (fault mode): decided at
    // dispatch on the coordinator, so the schedule is pool-size-independent,
    // and kept only once the job goes ahead (an escalating job aborts instead).
    int fault_crashes = 0;
    // Physical spill counters this node's kernels reported (observability
    // only; layout-dependent).
    spill::SpillStats spill_stats;
    // The local job this node heads (DESIGN.md §10): topo indices of its
    // members in chain order. A lone local node is a one-member job; a fused
    // chain's members execute as one BatchPipeline and only the tail's output
    // materializes. Empty on interior members and on every non-local node.
    std::vector<int> chain_members;
    // The head's compile-time streaming mark (compiler::PipelineChain): its
    // sole input stays a RowSource the chain pulls batch-at-a-time.
    bool streams_input = false;

    // The cleartext records the node is priced on.
    uint64_t Records() const {
      uint64_t records = 0;
      for (int64_t rows : input_rows) {
        records += static_cast<uint64_t>(rows);
      }
      return records;
    }
  };

  struct Completion {
    int topo_index = 0;
    Status status;
    // The job's output: a relation, or (streaming CSV ingest, DESIGN.md §12)
    // a Create's indexed source. DrainCompletions sets its location.
    MaterializedValue value;
    // Fused-chain completions: rows consumed by each chain member. Equals the
    // unfused execution's per-node input cardinalities at every batch size;
    // DrainCompletions records the interior members' input rows from these.
    std::vector<int64_t> chain_op_rows;
    // Physical spill counters from the task's kernels (zero when nothing
    // spilled).
    spill::SpillStats spill_stats;
  };

  // A fault escalation (net/fault.h): the node whose step exhausted a recovery
  // budget, and why.
  struct FaultEscalation {
    int node_id = -1;
    std::string provenance;
  };

  int TopoIndex(int node_id) const { return topo_index_.at(node_id); }
  NodeExec& ExecOf(const ir::OpNode& node) { return execs_[TopoIndex(node.id)]; }

  // Active-adversary protocols cost a constant factor more (§2.2); applied to
  // the MPC/hybrid portions of the virtual time.
  double MpcScale() const {
    return compilation_.options.malicious_security
               ? net_.model().malicious_overhead_factor
               : 1.0;
  }
  bool Garbled() const {
    return compilation_.options.mpc_backend == compiler::MpcBackendKind::kOblivC;
  }

  // Moves a value into the secure domain (inputToMPC), charging ingest on the
  // engine. Under malicious security, every cleartext relation entering the
  // MPC first runs the Appendix-A.5 commit + ZK-consistency phase; a rejected
  // proof aborts the query. Dropping the cleartext handle frees no rows a pool
  // task still reads: each task holds its own handles.
  Status EnsureSecure(MaterializedValue& value);
  // Opens a shared value for reading in the clear (DESIGN.md §14): charges the
  // reveal's meters once for the whole relation and, under fault injection,
  // schedules its corruptions, which the source detects as pulls reach the
  // corrupted rows. Materializing and streaming consumers both open through
  // here, so clocks, counters and fault reports do not depend on which one a
  // value has.
  std::shared_ptr<const RowSource> OpenReveal(SharedRelation shared);
  // Moves a value into the clear at `party` (reveal / party-to-party transfer).
  void EnsureCleartextAt(MaterializedValue& value, PartyId party);

  // True when every input value may be acquired by `exec` right now: each
  // producer is materialized and this node is the next acquirer of its value.
  bool CanAcquireInputs(const NodeExec& exec) const;
  // Advances the per-value acquisition cursors for `exec`'s input edges. Called
  // alongside the frontier transitions (EnsureCleartextAt / EnsureSecure), which
  // stay at the call sites because the target form differs per node class.
  void AdvanceAcquisition(NodeExec& exec);

  // Submits `body` as a pool task whose completion is posted under
  // `topo_index`. A non-OK Status or an escaping exception (which would
  // otherwise terminate the process from WorkerLoop) becomes the completion's
  // status; `what` names the task in the exception's message.
  void SubmitTask(int topo_index, const char* what,
                  std::function<Status(Completion&)> body);

  void DispatchCreate(NodeExec& exec);
  // Dispatches the local job `exec` heads, lone node or fused chain: acquires
  // its inputs at its party (frontier transitions), records the rows it reads,
  // resolves a chain's operators against the runtime input schema, and
  // submits one pool task, which holds its inputs' handles and runs
  // ExecuteLocal for a lone node and one BatchPipeline for a chain. The
  // completion is posted under the head's topo index and carries the tail's
  // output.
  void DispatchLocalJob(NodeExec& exec);
  Status RunCollect(NodeExec& exec, ExecutionResult& result);
  Status RunLaneNode(NodeExec& exec);
  // One execution attempt of a lane node: secures inputs, runs the engine, and
  // stores the output value — everything RunLaneNode may have to replay after an
  // injected crash. Metering/materialization stay with the caller.
  Status ExecuteLaneOnce(NodeExec& exec);

  // Frontier checkpoint for lane-node crash recovery (DESIGN.md §11): enough
  // coordinator state to re-execute the node bit-identically — the network
  // snapshot, the engine's randomness cursors, the malicious-input nonce, and
  // per input edge the producer's value (EnsureSecure drops cleartext handles;
  // a copy shares the handle, not the rows) and acquisition cursor.
  struct LaneCheckpoint {
    SimNetwork::Snapshot net;
    SecretShareEngine::ReplayCheckpoint engine;
    uint64_t next_nonce = 0;
    // Per input edge: producer topo index, value copy, acquired_uses.
    std::vector<std::tuple<int, MaterializedValue, int>> inputs;
  };
  LaneCheckpoint TakeLaneCheckpoint(const NodeExec& exec);
  void RestoreLaneCheckpoint(const LaneCheckpoint& checkpoint);

  // Fault-mode pool-job dispatch: enters the node's injector scope and records
  // its scheduled crash count. False = the crash budget is exhausted (the
  // escalation is recorded and the caller abandons the dispatch, before any
  // input acquisition).
  bool PrepareJobFaults(NodeExec& exec);
  // Polls the injector after a coordinator step of `exec`: an unrecoverable
  // injection escalates into RecordFailure with its node and provenance, and
  // the step is abandoned, its job taking no restarts. True = escalated.
  bool EscalatePendingFault(NodeExec& exec);
  std::vector<int> TopoNodeIds() const;

  // Records a failure at `topo_index`; `fault` is set for a fault escalation,
  // which ends the run in a structured abort rather than an error. Keeps the
  // earliest failure in topo order (the one a sequential walk meets first);
  // at an equal index a fault escalation wins, since the injected fault is what
  // made the step fail.
  void RecordFailure(int topo_index, Status status,
                     std::optional<FaultEscalation> fault = std::nullopt);
  void DrainCompletions(bool wait);

  // The accounting pass's pricing half: prices, in topo order, the facts
  // execution recorded for each node into node_seconds, the cleartext_records
  // counter, the spill report and the injector's recovery accumulators.
  void PriceNodes(ExecutionResult& result);
  StatusOr<ExecutionResult> FinalizeAccounting(ExecutionResult result);

  const compiler::Compilation& compilation_;
  const std::map<std::string, Relation>& inputs_;
  ThreadPool& pool_;

  std::vector<const ir::OpNode*> topo_;
  std::unordered_map<int, int> topo_index_;  // node id -> topo position
  std::vector<NodeExec> execs_;
  std::vector<int> lane_;  // Topo indices of MPC/hybrid nodes, in topo order.
  size_t lane_next_ = 0;
  int in_flight_ = 0;

  // Coordinator-owned simulation state: the network and engines the lane
  // drives, and the active fault injector (empty = injection off), which
  // perturbs them (net/fault.h, DESIGN.md §11); pool tasks never touch these.
  SimNetwork net_;
  SharemindBackend sharemind_;
  OblivcBackend oblivc_;
  uint64_t seed_;
  uint64_t next_nonce_ = 0;  // Malicious-input proof nonces, in lane order.
  // Batch size of the push-based pipeline executor. Batching changes wall clock
  // and memory only: fused chains are priced per node from row totals that are
  // identical at every batch size (DESIGN.md §10).
  int64_t batch_rows_;
  // Per-operator-instance memory budget of the blocking cleartext kernels
  // (DESIGN.md §12; 0 = unbounded). The physical spill work changes wall clock
  // and disk only; the virtual clock carries the priced closed form
  // (compiler::NodeSpillSeconds over node-total rows), identical at every
  // {pool, batch} point and added once in the final accounting pass.
  int64_t mem_budget_rows_;
  std::optional<FaultInjector> fault_;

  // The run's one failure record (RecordFailure). Nothing at or past
  // failed_topo_ may dispatch.
  int failed_topo_ = -1;
  Status failure_;
  std::optional<FaultEscalation> failure_fault_;

  std::mutex completions_mu_;
  std::condition_variable completions_cv_;
  std::vector<Completion> completions_;
};

Status JobGraphExecutor::EnsureSecure(MaterializedValue& value) {
  if (compilation_.options.malicious_security &&
      value.kind == MaterializedValue::Kind::kCleartext) {
    const PartyId owner = value.location == kNoParty ? 0 : value.location;
    CONCLAVE_RETURN_IF_ERROR(malicious::InputConsistencyPhase(
        net_, *value.clear, owner, compilation_.num_parties,
        seed_ ^ (0x9e3779b97f4a7c15ULL + next_nonce_++)));
  }
  if (Garbled()) {
    if (value.kind == MaterializedValue::Kind::kGarbled) {
      return Status::Ok();
    }
    CONCLAVE_CHECK(value.kind == MaterializedValue::Kind::kCleartext);
    CONCLAVE_RETURN_IF_ERROR(oblivc_.Input(*value.clear));
    value.kind = MaterializedValue::Kind::kGarbled;
    return Status::Ok();
  }
  if (value.kind == MaterializedValue::Kind::kShared) {
    return Status::Ok();
  }
  CONCLAVE_CHECK(value.kind == MaterializedValue::Kind::kCleartext);
  CONCLAVE_ASSIGN_OR_RETURN(value.shared, sharemind_.Input(*value.clear));
  value.clear.reset();
  value.kind = MaterializedValue::Kind::kShared;
  return Status::Ok();
}

std::shared_ptr<const RowSource> JobGraphExecutor::OpenReveal(SharedRelation shared) {
  mpc::ChargeRevealMeters(net_, shared.NumCells());
  uint64_t nonce = 0;
  std::vector<FaultInjector::RevealCorruption> schedule;
  if (fault_) {
    schedule =
        fault_->ScheduleRevealFaults(shared.NumRows(), shared.NumColumns(), &nonce);
  }
  return std::make_shared<mpc::RevealSource>(std::move(shared), nonce,
                                             std::move(schedule));
}

void JobGraphExecutor::EnsureCleartextAt(MaterializedValue& value, PartyId party) {
  switch (value.kind) {
    case MaterializedValue::Kind::kShared: {
      // A materializing reveal: the whole-range pull of the source a
      // streaming chain head would pull batch by batch. Reveals never fail.
      const std::shared_ptr<const RowSource> source =
          OpenReveal(std::move(value.shared));
      value.clear =
          std::make_shared<const Relation>(source->Rows(0, source->NumRows()).value());
      value.shared = SharedRelation{};
      value.kind = MaterializedValue::Kind::kCleartext;
      value.location = party;
      break;
    }
    case MaterializedValue::Kind::kGarbled:
      // Output labels decode at both parties; transfer of decoded rows is cheap.
      net_.CountAggregateBytes(value.clear->ByteSize());
      net_.Rounds(1);
      value.kind = MaterializedValue::Kind::kCleartext;
      value.location = party;
      break;
    case MaterializedValue::Kind::kCleartext:
      if (value.location != party && value.location != kNoParty) {
        net_.Send(value.location, party, value.clear->ByteSize());
        net_.Rounds(1);
        value.location = party;
      }
      break;
    case MaterializedValue::Kind::kSource:
      // Unreachable: a value stays a source only for its sole consumer, a
      // streaming chain head, which reads it without a frontier transition.
      CONCLAVE_CHECK(false);
      break;
  }
}

bool JobGraphExecutor::CanAcquireInputs(const NodeExec& exec) const {
  const int my_topo = TopoIndex(exec.node->id);
  for (const ir::OpNode* in : exec.node->inputs) {
    const NodeExec& producer = execs_[TopoIndex(in->id)];
    if (!producer.materialized) {
      return false;
    }
    if (producer.consumer_uses[static_cast<size_t>(producer.acquired_uses)] !=
        my_topo) {
      return false;  // An earlier consumer has not taken its turn yet.
    }
  }
  return true;
}

void JobGraphExecutor::AdvanceAcquisition(NodeExec& exec) {
  const int my_topo = TopoIndex(exec.node->id);
  for (const ir::OpNode* in : exec.node->inputs) {
    NodeExec& producer = execs_[static_cast<size_t>(TopoIndex(in->id))];
    // A node consuming the same value through several edges holds adjacent entries
    // in the (sorted) use list; each edge advances the cursor once.
    CONCLAVE_CHECK_EQ(
        producer.consumer_uses[static_cast<size_t>(producer.acquired_uses)],
        my_topo);
    ++producer.acquired_uses;
  }
}

void JobGraphExecutor::RecordFailure(int topo_index, Status status,
                                     std::optional<FaultEscalation> fault) {
  const bool fault_wins_tie = topo_index == failed_topo_ && fault.has_value() &&
                              !failure_fault_.has_value();
  if (failed_topo_ < 0 || topo_index < failed_topo_ || fault_wins_tie) {
    failed_topo_ = topo_index;
    failure_ = std::move(status);
    failure_fault_ = std::move(fault);
  }
}

std::vector<int> JobGraphExecutor::TopoNodeIds() const {
  std::vector<int> ids;
  ids.reserve(topo_.size());
  for (const ir::OpNode* node : topo_) {
    ids.push_back(node->id);
  }
  return ids;
}

bool JobGraphExecutor::PrepareJobFaults(NodeExec& exec) {
  if (!fault_) {
    return true;
  }
  fault_->EnterScope(exec.node->id);
  exec.fault_crashes = fault_->JobCrashes(exec.node->id);
  return !EscalatePendingFault(exec);
}

bool JobGraphExecutor::EscalatePendingFault(NodeExec& exec) {
  if (!fault_ || !fault_->has_pending_failure()) {
    return false;
  }
  FaultEscalation fault;
  fault.provenance = fault_->TakePendingFailure(&fault.node_id);
  Status status = ResourceExhaustedError(
      StrFormat("fault recovery budget exhausted at node #%d: %s", fault.node_id,
                fault.provenance.c_str()));
  exec.dispatched = true;
  exec.fault_crashes = 0;
  RecordFailure(TopoIndex(exec.node->id), std::move(status), std::move(fault));
  return true;
}

JobGraphExecutor::LaneCheckpoint JobGraphExecutor::TakeLaneCheckpoint(
    const NodeExec& exec) {
  LaneCheckpoint checkpoint;
  checkpoint.net = net_.TakeSnapshot();
  checkpoint.engine = sharemind_.engine().TakeCheckpoint();
  checkpoint.next_nonce = next_nonce_;
  for (const ir::OpNode* in : exec.node->inputs) {
    const NodeExec& producer = ExecOf(*in);
    checkpoint.inputs.emplace_back(TopoIndex(in->id), producer.value,
                                   producer.acquired_uses);
  }
  return checkpoint;
}

void JobGraphExecutor::RestoreLaneCheckpoint(const LaneCheckpoint& checkpoint) {
  net_.RestoreSnapshot(checkpoint.net);
  sharemind_.engine().Restore(checkpoint.engine);
  next_nonce_ = checkpoint.next_nonce;
  for (const auto& [producer_topo, value, acquired_uses] : checkpoint.inputs) {
    NodeExec& producer = execs_[static_cast<size_t>(producer_topo)];
    producer.value = value;
    producer.acquired_uses = acquired_uses;
  }
}

void JobGraphExecutor::SubmitTask(int topo_index, const char* what,
                                  std::function<Status(Completion&)> body) {
  ++in_flight_;
  const int node_id = execs_[static_cast<size_t>(topo_index)].node->id;
  pool_.Submit([this, topo_index, what, node_id, body = std::move(body)] {
    Completion completion;
    completion.topo_index = topo_index;
    try {
      completion.status = body(completion);
    } catch (const std::exception& e) {
      completion.status = InternalError(
          StrFormat("%s for node #%d threw: %s", what, node_id, e.what()));
    }
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
    completions_cv_.notify_all();
  });
}

void JobGraphExecutor::DispatchCreate(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  if (!PrepareJobFaults(exec)) {
    return;
  }
  exec.dispatched = true;
  // Streaming ingest (DESIGN.md §12): when the sole consumer's chain is marked
  // as streaming its input, the Create completes as its indexed source text
  // and the chain's pipeline parses row ranges itself. Every other CSV create
  // parses eagerly into one relation.
  const bool stream = exec.consumer_uses.size() == 1 &&
                      execs_[static_cast<size_t>(exec.consumer_uses[0])].streams_input;
  CONCLAVE_CHECK(!stream || !node->Params<ir::CreateParams>().csv_path.empty());
  SubmitTask(TopoIndex(node->id), "create task",
             [this, node, stream](Completion& completion) -> Status {
               const auto& params = node->Params<ir::CreateParams>();
               if (params.csv_path.empty()) {
                 const auto it = inputs_.find(params.name);
                 if (it == inputs_.end()) {
                   return InvalidArgumentError(StrFormat(
                       "no input relation provided for '%s'", params.name.c_str()));
                 }
                 CONCLAVE_RETURN_IF_ERROR(
                     CheckInputSchema(params.name, it->second.schema(), *node));
                 // Borrowed, not copied: the caller's inputs outlive the run.
                 completion.value.clear = std::shared_ptr<const Relation>(
                     std::shared_ptr<const Relation>(), &it->second);
                 return Status::Ok();
               }
               CONCLAVE_ASSIGN_OR_RETURN(CsvSource source,
                                         CsvSource::FromFile(params.csv_path));
               CONCLAVE_RETURN_IF_ERROR(
                   CheckInputSchema(params.name, source.schema(), *node));
               if (stream) {
                 completion.value.kind = MaterializedValue::Kind::kSource;
                 completion.value.source =
                     std::make_shared<CsvSource>(std::move(source));
                 return Status::Ok();
               }
               CONCLAVE_ASSIGN_OR_RETURN(Relation rows,
                                         source.Rows(0, source.NumRows()));
               completion.value.clear =
                   std::make_shared<const Relation>(std::move(rows));
               return Status::Ok();
             });
}

void JobGraphExecutor::DispatchLocalJob(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  if (!PrepareJobFaults(exec)) {
    return;
  }
  // The task's own handles: a later consumer's transition may drop the
  // value's handle while the task still reads.
  std::vector<std::shared_ptr<const Relation>> rels;
  std::shared_ptr<const RowSource> source;
  for (const ir::OpNode* in : node->inputs) {
    MaterializedValue& value = ExecOf(*in).value;
    if (exec.streams_input) {
      // A streaming chain head (DESIGN.md §12, §14), marked at compile time.
      // A shared input opens here, on the coordinator at the head's
      // acquisition turn, and keeps its shares: the chain's pipeline
      // reconstructs the row ranges itself. A CSV input completed as a source.
      if (value.kind == MaterializedValue::Kind::kShared) {
        value.source = OpenReveal(std::move(value.shared));
        value.shared = SharedRelation{};
        value.kind = MaterializedValue::Kind::kSource;
        value.location = node->exec_party;
      }
      CONCLAVE_CHECK(value.kind == MaterializedValue::Kind::kSource &&
                     value.location == node->exec_party);
      source = value.source;
    } else {
      EnsureCleartextAt(value, node->exec_party);
      rels.push_back(value.clear);
    }
    exec.input_rows.push_back(value.NumRows());
  }
  AdvanceAcquisition(exec);
  // Reveal/transfer time for this node's frontier inputs.
  exec.boundary_scaled_seconds = net_.TakeMeterSeconds() * MpcScale();
  if (EscalatePendingFault(exec)) {
    return;
  }
  // Every member is spoken for the moment the job dispatches: the acquisition
  // cursors have advanced, so nothing may re-dispatch any member — including on
  // the resolution-failure path below.
  for (int member_topo : exec.chain_members) {
    execs_[static_cast<size_t>(member_topo)].dispatched = true;
  }

  // Resolve a fused chain's members against the runtime schema flowing
  // through it. A resolution failure is attributed to the failing member's
  // topo index — the canonical error a sequential unfused walk would report.
  const bool fused = exec.chain_members.size() > 1;
  PipelineSpec spec;
  spec.mem_budget_rows = mem_budget_rows_;
  if (fused) {
    spec.input_schema = source != nullptr ? source->schema() : rels[0]->schema();
    Schema schema = spec.input_schema;
    for (int member_topo : exec.chain_members) {
      const ir::OpNode& member = *execs_[static_cast<size_t>(member_topo)].node;
      StatusOr<PipelineOp> op = ResolvePipelineOp(schema, member);
      if (!op.ok()) {
        RecordFailure(member_topo, op.status());
        return;
      }
      schema = BatchPipeline::DeriveSchema(schema, *op);
      spec.ops.push_back(std::move(*op));
    }
  }

  SubmitTask(TopoIndex(node->id), fused ? "fused chain task" : "local job",
             [node, batch_rows = batch_rows_, spec = std::move(spec),
              source = std::move(source),
              rels = std::move(rels)](Completion& completion) -> Status {
               if (spec.ops.empty()) {
                 LocalExecOptions options;
                 options.mem_budget_rows = spec.mem_budget_rows;
                 options.spill_stats = &completion.spill_stats;
                 std::vector<const Relation*> inputs;
                 for (const std::shared_ptr<const Relation>& rel : rels) {
                   inputs.push_back(rel.get());
                 }
                 CONCLAVE_ASSIGN_OR_RETURN(Relation output,
                                           ExecuteLocal(*node, inputs, options));
                 completion.value.clear =
                     std::make_shared<const Relation>(std::move(output));
                 return Status::Ok();
               }
               // A streamed input is pulled batch-at-a-time and never
               // materializes (DESIGN.md §12, §14); an in-memory one is read
               // through borrowed slices.
               BatchPipeline pipeline(spec);
               CONCLAVE_ASSIGN_OR_RETURN(
                   Relation output,
                   source != nullptr ? pipeline.Run(*source, batch_rows)
                                     : pipeline.Run(*rels[0], batch_rows));
               completion.value.clear =
                   std::make_shared<const Relation>(std::move(output));
               completion.chain_op_rows = pipeline.stats().op_input_rows;
               completion.spill_stats = pipeline.stats().spill;
               return Status::Ok();
             });
}

Status JobGraphExecutor::RunCollect(NodeExec& exec, ExecutionResult& result) {
  const ir::OpNode* node = exec.node;
  const auto& params = node->Params<ir::CollectParams>();
  exec.dispatched = true;
  if (fault_) {
    // Collect runs on the coordinator with no compute to restart; its reveal and
    // fan-out sends are the faultable operations.
    fault_->EnterScope(node->id);
  }

  MaterializedValue& input = ExecOf(*node->inputs[0]).value;
  EnsureCleartextAt(input, params.recipients.First());
  AdvanceAcquisition(exec);
  // Fan out to the remaining recipients.
  for (PartyId p : params.recipients.ToVector()) {
    if (p != input.location) {
      net_.Send(input.location, p, input.clear->ByteSize());
    }
  }
  // Recipients drop the sentinel rows that adaptive padding introduced.
  Relation output = compilation_.options.pad_mpc_inputs
                        ? ops::StripSentinelRows(*input.clear)
                        : *input.clear;
  if (params.dp.enabled) {
    // Recipients perturb locally; each noisy output consumes its epsilon
    // (sequential composition).
    Rng noise_rng(seed_ ^
                  (0xd1b54a32d192ed03ULL + static_cast<uint64_t>(node->id)));
    CONCLAVE_RETURN_IF_ERROR(dp::PerturbRelation(output, params.dp, noise_rng));
    exec.dp_epsilon = params.dp.epsilon;
  }
  result.outputs[params.name] = std::move(output);
  exec.boundary_scaled_seconds = net_.TakeMeterSeconds() * MpcScale();
  exec.materialized = true;
  // An unrecoverable drop/corruption during the reveal or fan-out escalates;
  // the abort discards this Collect's (already stored) output.
  EscalatePendingFault(exec);
  return Status::Ok();
}

Status JobGraphExecutor::RunLaneNode(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  exec.dispatched = true;
  ++lane_next_;

  int crashes = 0;
  if (fault_) {
    fault_->EnterScope(node->id);
    crashes = fault_->JobCrashes(node->id);
    if (EscalatePendingFault(exec)) {
      return Status::Ok();  // Crash budget exhausted: nothing materializes.
    }
  }

  for (int attempt = 0;; ++attempt) {
    // Injected crashes are decided up front, so whether this attempt needs a
    // frontier checkpoint is known before it runs.
    const bool crash_after = attempt < crashes;
    LaneCheckpoint checkpoint;
    if (crash_after) {
      checkpoint = TakeLaneCheckpoint(exec);
    }
    if (fault_ && attempt > 0) {
      fault_->BeginAttempt(attempt);
    }
    CONCLAVE_RETURN_IF_ERROR(ExecuteLaneOnce(exec));
    if (EscalatePendingFault(exec)) {
      // Unrecoverable send loss inside this attempt. Drain the attempt's meter
      // so no charge leaks into a later step.
      net_.TakeMeterSeconds();
      return Status::Ok();
    }
    if (!crash_after) {
      break;
    }
    // Injected crash: divert the wasted attempt's metered work (x MpcScale,
    // like any lane charge) to the recovery accumulators, roll back to the
    // frontier checkpoint, and replay. The replayed attempt re-claims the same
    // randomness streams, so its bits are identical to the crashed one's.
    const double wasted =
        (net_.TakeMeterSeconds() - checkpoint.net.meter_seconds) * MpcScale();
    fault_->ChargeJobRestart(node->id, wasted);
    RestoreLaneCheckpoint(checkpoint);
  }
  exec.boundary_scaled_seconds = net_.TakeMeterSeconds() * MpcScale();
  exec.materialized = true;
  return Status::Ok();
}

Status JobGraphExecutor::ExecuteLaneOnce(NodeExec& exec) {
  const ir::OpNode* node = exec.node;
  MaterializedValue out;
  if (Garbled()) {
    std::vector<const Relation*> rels;
    rels.reserve(node->inputs.size());
    for (const ir::OpNode* in : node->inputs) {
      MaterializedValue& value = ExecOf(*in).value;
      CONCLAVE_RETURN_IF_ERROR(EnsureSecure(value));
      rels.push_back(value.clear.get());
    }
    AdvanceAcquisition(exec);
    CONCLAVE_ASSIGN_OR_RETURN(Relation rows, oblivc_.Execute(*node, rels));
    out.kind = MaterializedValue::Kind::kGarbled;
    out.clear = std::make_shared<const Relation>(std::move(rows));
  } else {
    std::vector<const SharedRelation*> rels;
    rels.reserve(node->inputs.size());
    for (const ir::OpNode* in : node->inputs) {
      MaterializedValue& value = ExecOf(*in).value;
      CONCLAVE_RETURN_IF_ERROR(EnsureSecure(value));
      rels.push_back(&value.shared);
    }
    AdvanceAcquisition(exec);
    out.kind = MaterializedValue::Kind::kShared;
    CONCLAVE_ASSIGN_OR_RETURN(out.shared, sharemind_.Execute(*node, rels));
  }
  exec.value = std::move(out);
  return Status::Ok();
}

void JobGraphExecutor::DrainCompletions(bool wait) {
  std::vector<Completion> drained;
  {
    std::unique_lock<std::mutex> lock(completions_mu_);
    if (wait) {
      completions_cv_.wait(lock, [this] { return !completions_.empty(); });
    }
    drained.swap(completions_);
  }
  for (Completion& completion : drained) {
    --in_flight_;
    NodeExec& exec = execs_[static_cast<size_t>(completion.topo_index)];
    if (!completion.status.ok()) {
      RecordFailure(completion.topo_index, std::move(completion.status));
      continue;
    }
    // A job stores its tail's output: the node itself for a Create or a lone
    // node.
    NodeExec& tail = exec.chain_members.empty()
                         ? exec
                         : execs_[static_cast<size_t>(exec.chain_members.back())];
    // Only a job's tail spills: a lone blocking node or a chain's aggregate.
    tail.spill_stats = completion.spill_stats;
    tail.value = std::move(completion.value);
    tail.value.location = exec.klass == NodeClass::kCreate
                              ? exec.node->Params<ir::CreateParams>().party
                              : tail.node->exec_party;
    exec.materialized = true;
    // Fused members, in chain order, record the rows the pipeline metered for
    // them (equal to the unfused intermediate cardinalities at every batch
    // size: streaming limits consume their whole input; chain_op_rows[0] is
    // the head's input, recorded at acquisition) and materialize.
    for (size_t k = 1; k < exec.chain_members.size(); ++k) {
      NodeExec& member = execs_[static_cast<size_t>(exec.chain_members[k])];
      member.input_rows = {completion.chain_op_rows[k]};
      // Each member's sole use of its predecessor's (never-stored) value.
      AdvanceAcquisition(member);
      member.materialized = true;
    }
  }
}

StatusOr<ExecutionResult> JobGraphExecutor::Run() {
  // --- Plan-time indexing: topo positions, consumer orders, lane. -----------------
  for (size_t i = 0; i < topo_.size(); ++i) {
    topo_index_[topo_[i]->id] = static_cast<int>(i);
  }
  execs_.resize(topo_.size());
  for (size_t i = 0; i < topo_.size(); ++i) {
    NodeExec& exec = execs_[i];
    exec.node = topo_[i];
    exec.klass = ClassOf(*topo_[i]);
    if (exec.klass == NodeClass::kLane) {
      lane_.push_back(static_cast<int>(i));
    } else if (exec.klass == NodeClass::kLocalCompute) {
      exec.chain_members = {static_cast<int>(i)};  // Until a chain claims it.
    }
  }
  for (size_t i = 0; i < topo_.size(); ++i) {
    for (const ir::OpNode* in : topo_[i]->inputs) {
      execs_[static_cast<size_t>(TopoIndex(in->id))].consumer_uses.push_back(
          static_cast<int>(i));
    }
  }
  for (NodeExec& exec : execs_) {
    std::sort(exec.consumer_uses.begin(), exec.consumer_uses.end());
  }

  // Pipeline fusion (DESIGN.md §10): each fusible local chain is one job on
  // its head, which carries the chain's streaming mark; every other local node
  // stays a one-member job. The chains and marks come from the same procedure
  // the planner's explain advice uses (compiler::PipelineChains), so listing
  // and runtime agree.
  for (const compiler::PipelineChain& chain : compiler::PipelineChains(
           std::span<const ir::OpNode* const>(topo_.data(), topo_.size()),
           compilation_.options.mpc_backend)) {
    std::vector<int> members;
    for (const ir::OpNode* member : chain.nodes) {
      members.push_back(TopoIndex(member->id));
      execs_[static_cast<size_t>(members.back())].chain_members.clear();
    }
    NodeExec& head = execs_[static_cast<size_t>(members.front())];
    head.chain_members = std::move(members);
    head.streams_input = chain.streams_input;
  }

  ExecutionResult result;

  // --- Event loop: dispatch everything ready, then wait for pool completions. ------
  //
  // A node is ready once every producer is materialized and its turn at each
  // input value has come (CanAcquireInputs); a Create is ready at once.
  //
  // On failure, dispatch continues — but only for nodes topo-earlier than the
  // earliest failure seen so far (their dependency chains lie entirely below it, so
  // they can always run to completion). A sequential walk would have executed
  // exactly those nodes before hitting the failure; finishing them lets any
  // earlier failure they hold surface, so the reported error is exactly the one
  // the sequential walk reports, at every pool size.
  for (;;) {
    bool dispatched_any = false;
    for (size_t i = 0; i < execs_.size(); ++i) {
      if (failed_topo_ >= 0 && static_cast<int>(i) >= failed_topo_) {
        break;  // execs_ is topo-ordered; nothing past the failure may dispatch.
      }
      NodeExec& exec = execs_[i];
      if (exec.dispatched) {
        continue;
      }
      switch (exec.klass) {
        case NodeClass::kCreate:
          DispatchCreate(exec);
          dispatched_any = true;
          break;
        case NodeClass::kLocalCompute:
          if (CanAcquireInputs(exec)) {
            DispatchLocalJob(exec);
            dispatched_any = true;
          }
          break;
        case NodeClass::kCollect:
          if (CanAcquireInputs(exec)) {
            const Status status = RunCollect(exec, result);
            if (!status.ok()) {
              RecordFailure(static_cast<int>(i), status);
            }
            dispatched_any = true;
          }
          break;
        case NodeClass::kLane:
          if (lane_[lane_next_] == static_cast<int>(i) && CanAcquireInputs(exec)) {
            const Status status = RunLaneNode(exec);
            if (!status.ok()) {
              RecordFailure(static_cast<int>(i), status);
            }
            dispatched_any = true;
          }
          break;
      }
    }
    if (dispatched_any) {
      DrainCompletions(/*wait=*/false);
      continue;
    }
    if (in_flight_ > 0) {
      DrainCompletions(/*wait=*/true);
      continue;
    }
    break;  // Quiescent: everything runnable (below any failure) has finished.
  }

  // Graceful degradation: a fault escalation that is the run's first failure
  // (an exhausted recovery budget) ends in a structured abort (ok() + aborted
  // + FaultReport), not a bare error. Its report carries the restarts of the
  // work that ran before the abort, priced by the same pass as a completed
  // run's; the pass's other totals are discarded with the run.
  if (failure_fault_.has_value()) {
    PriceNodes(result);
    fault_->RecordFirstFailure(failure_fault_->node_id,
                               std::move(failure_fault_->provenance));
    ExecutionResult aborted;
    aborted.aborted = true;
    aborted.abort_status = std::move(failure_);
    aborted.fault_report = fault_->Report(TopoNodeIds());
    return aborted;
  }
  if (failed_topo_ >= 0) {
    return failure_;
  }
  // No failure: quiescence with unmaterialized nodes would be a plan bug.
  CONCLAVE_CHECK(std::ranges::all_of(execs_, &NodeExec::materialized));
  return FinalizeAccounting(std::move(result));
}

void JobGraphExecutor::PriceNodes(ExecutionResult& result) {
  const CostModel& model = net_.model();
  const bool spark = compilation_.options.use_spark;
  const int64_t budget = mem_budget_rows_;
  result.spill_report.mem_budget_rows = budget;
  for (const NodeExec& exec : execs_) {
    const ir::OpNode& node = *exec.node;
    double compute_seconds = 0;
    if (exec.klass == NodeClass::kLocalCompute && !exec.input_rows.empty()) {
      const uint64_t records = exec.Records();
      compute_seconds = model.CleartextScanSeconds(records, spark);
      net_.mutable_counters().cleartext_records += records;
      // Beyond-RAM spill (DESIGN.md §12): the closed form over the node-total
      // input rows, never physical batch layout, so the charge is
      // grid-invariant; 0 when the budget is unbounded or the inputs fit.
      // It joins the clock once, through spill_seconds — never through
      // node_seconds, so the per-node estimate==meter identities hold.
      const int64_t in_rows = exec.input_rows[0];
      const int64_t right_rows = exec.input_rows.size() > 1 ? exec.input_rows[1] : 0;
      const double spill_seconds = compiler::NodeSpillSeconds(
          node, static_cast<double>(in_rows), static_cast<double>(right_rows), model,
          budget);
      if (spill_seconds > 0) {
        ++result.spill_report.spilling_nodes;
        result.spill_report.spill_passes += spill::SpillMergePasses(
            node.kind == ir::OpKind::kJoin ? right_rows : in_rows, budget);
        result.spill_report.spill_seconds += spill_seconds;
      }
    }
    // Pool-task crash restarts (DESIGN.md §11). A pool task is a pure function
    // of its inputs, so a crashed one re-runs to the same bits: each restart is
    // priced (the wasted compute plus the restart penalty), not re-executed. A
    // Create's ingest charges no compute. Each restart of a fused chain re-ran
    // every member, so the members' compute joins the head's restarts. Lane
    // nodes replay their crashes physically instead (RunLaneNode).
    if (exec.fault_crashes > 0) {
      for (int k = 0; k < exec.fault_crashes; ++k) {
        fault_->ChargeJobRestart(node.id, compute_seconds);
      }
      for (size_t k = 1; k < exec.chain_members.size(); ++k) {
        const NodeExec& member = execs_[static_cast<size_t>(exec.chain_members[k])];
        if (!member.input_rows.empty()) {  // The chain completed.
          fault_->AddRecoverySeconds(
              node.id, static_cast<double>(exec.fault_crashes) *
                           model.CleartextScanSeconds(member.Records(), spark));
        }
      }
    }
    result.node_seconds[node.id] = exec.boundary_scaled_seconds + compute_seconds;
    result.spill_report.stats.Merge(exec.spill_stats);
  }
}

StatusOr<ExecutionResult> JobGraphExecutor::FinalizeAccounting(
    ExecutionResult result) {
  // All floating-point totals are folded here, in topo/job order, from the facts
  // recorded during execution — never in completion order, which is
  // scheduling-dependent. This is what keeps every reported number bit-identical
  // across pool sizes.
  PriceNodes(result);
  std::unordered_map<int, int> node_job;  // node id -> job id
  std::unordered_map<int, const compiler::Job*> job_by_id;
  for (const compiler::Job& job : compilation_.plan.jobs) {
    job_by_id[job.id] = &job;
    for (const ir::OpNode* node : job.nodes) {
      node_job[node->id] = job.id;
    }
  }
  std::unordered_map<int, double> job_duration;
  std::unordered_set<int> jobs_started;  // Spark startup charged once per job.
  for (const NodeExec& exec : execs_) {
    const int job = node_job.at(exec.node->id);
    double seconds = result.node_seconds.at(exec.node->id);
    if (exec.klass == NodeClass::kLocalCompute && compilation_.options.use_spark &&
        jobs_started.insert(job).second) {
      seconds += net_.model().spark_job_startup_seconds;
    }
    job_duration[job] += seconds;
    switch (exec.klass) {
      case NodeClass::kLane:
        if (exec.node->exec_mode == ir::ExecMode::kHybrid) {
          result.hybrid_seconds += exec.boundary_scaled_seconds;
        } else {
          result.mpc_seconds += exec.boundary_scaled_seconds;
        }
        break;
      default:
        // Reveal/transfer time on the frontier accrues to mpc_seconds, as the
        // engines performed that work.
        result.mpc_seconds += exec.boundary_scaled_seconds;
        break;
    }
    result.dp_epsilon_spent += exec.dp_epsilon;
  }

  // Critical-path schedule over the job graph: a job starts when all jobs feeding it
  // finish; independent per-party local jobs overlap. Job ids are NOT guaranteed to
  // be a topological order of the job graph (a job keyed by an early node can
  // contain late nodes whose inputs come from jobs created in between — e.g. a join
  // against a table declared mid-chain), so the fold runs as a worklist over the
  // job dependency edges. The finish times are order-independent given their deps,
  // so this computes exactly what the id-order pass computed on plans where id
  // order happened to be topological.
  std::unordered_map<int, double> finish;
  std::unordered_map<int, std::vector<int>> job_dependents;
  std::unordered_map<int, int> unmet_deps;
  for (const compiler::Job& job : compilation_.plan.jobs) {
    std::unordered_set<int> deps;
    for (const ir::OpNode* node : job.nodes) {
      for (const ir::OpNode* in : node->inputs) {
        const int dep_job = node_job.at(in->id);
        if (dep_job != job.id) {
          deps.insert(dep_job);
        }
      }
    }
    unmet_deps[job.id] = static_cast<int>(deps.size());
    for (int dep : deps) {
      job_dependents[dep].push_back(job.id);
    }
  }
  std::vector<int> ready;
  for (const compiler::Job& job : compilation_.plan.jobs) {
    if (unmet_deps[job.id] == 0) {
      ready.push_back(job.id);
    }
  }
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    const compiler::Job& job = *job_by_id.at(id);
    double start = 0;
    for (const ir::OpNode* node : job.nodes) {
      for (const ir::OpNode* in : node->inputs) {
        const int dep_job = node_job.at(in->id);
        if (dep_job != id) {
          start = std::max(start, finish.at(dep_job));
        }
      }
    }
    finish[id] = start + job_duration[id];
    for (int dependent : job_dependents[id]) {
      if (--unmet_deps[dependent] == 0) {
        ready.push_back(dependent);
      }
    }
  }
  // A cyclic job graph would leave jobs unscheduled; the partitioner never builds
  // one for DAG-shaped queries.
  CONCLAVE_CHECK_EQ(finish.size(), compilation_.plan.jobs.size());
  for (const compiler::Job& job : compilation_.plan.jobs) {
    if (job.kind == compiler::JobKind::kLocal) {
      result.local_seconds += job_duration[job.id];
    }
  }
  for (const compiler::Job& job : compilation_.plan.jobs) {
    result.virtual_seconds = std::max(result.virtual_seconds, finish[job.id]);
  }
  result.counters = net_.counters();
  if (fault_) {
    // Recovery rides the critical path: everything up to here is bit-identical
    // to the fault-free run (fault charges never touch the meter or counters),
    // so the faulted total is exactly the fault-free total plus the priced
    // recovery time — the chaos fuzzer's headline identity.
    result.fault_report = fault_->Report(TopoNodeIds());
    result.virtual_seconds += result.fault_report.recovery_seconds;
  }
  // Beyond-RAM accounting (DESIGN.md §12): the priced spill charge joins the
  // clock once, here — never through node_seconds or the meter — so with a
  // budget the total is exactly the unbounded run's clock plus spill_seconds;
  // with none, the report stays zero and the clock is untouched.
  result.virtual_seconds += result.spill_report.spill_seconds;
  for (const NodeExec& exec : execs_) {
    if (exec.value.kind == MaterializedValue::Kind::kSource) {
      result.source_peak_rows = std::max(result.source_peak_rows,
                                         exec.value.source->MaxMaterializedRows());
    }
  }
  return result;
}

}  // namespace

StatusOr<ExecutionResult> Dispatcher::Run(
    const ir::Dag& dag, const compiler::Compilation& compilation,
    const std::map<std::string, Relation>& inputs) {
  CONCLAVE_ASSIGN_OR_RETURN(const compiler::ExecOptions exec,
                            compiler::ResolveExecOptions(exec_));
  std::vector<ir::OpNode*> order = dag.TopoOrder();
  // Bind the run's pool to this thread: this is what hands the dispatcher's pool to
  // the MPC lane. Lane nodes execute on the coordinator, and every engine kernel's
  // morsel-level ParallelFor routes through ThreadPool::Current(), so intra-op MPC
  // parallelism shares the same thread budget as the job tasks (workers bind
  // themselves in WorkerLoop) and pool_parallelism=1 stays serial all the way down.
  ThreadPool::Scope scope(&pool());
  JobGraphExecutor executor(
      model_, seed_, exec, compilation, inputs, pool(),
      std::vector<const ir::OpNode*>(order.begin(), order.end()));
  return executor.Run();
}

}  // namespace backends
}  // namespace conclave
