// A streaming reveal: the MPC -> cleartext frontier as a batch-range source.
//
// The materializing path opens a shared relation in one shot (RevealRelation)
// and hands the whole cleartext relation to the consumer. A RevealSource
// instead holds the shares and reconstructs row ranges on demand, so a fused
// downstream chain (relational/pipeline.h BatchPipeline::RunFromReveal) pulls
// batch-at-a-time and the revealed relation never exists in memory — the
// reveal-boundary analog of CsvSource (DESIGN.md §12), closing the last
// materialization on the hot path (DESIGN.md §14).
//
// Reconstruction is a pure share sum per cell, so row ranges are independent:
// RevealRows is const and thread-safe, and any row range is bit-identical to
// the same slice of the one-shot reveal. Boundary charges are NOT applied
// here — the dispatcher charges mpc::ChargeRevealMeters once for the whole
// reveal when it converts the value, exactly as the materializing path does,
// so clocks and counters do not depend on which path a reveal takes.
//
// Under fault injection the corruptions that DeliverReveal checks inline
// arrive instead as a schedule (net/fault.h DeliverRevealStreamed); the
// detection moves to the batch that covers each corrupted row: the delivery
// copy is corrupted, its per-batch commitment (malicious::IncrementalCommitter,
// nonce tweaked by the batch's begin row) must mismatch, and the retransmitted
// batch must reconstruct bit-identically. Retry charges were already priced by
// the injector, so the virtual clock matches the materializing fault path.
#ifndef CONCLAVE_MPC_REVEAL_SOURCE_H_
#define CONCLAVE_MPC_REVEAL_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "conclave/mpc/share.h"
#include "conclave/net/fault.h"
#include "conclave/relational/relation.h"

namespace conclave {
namespace mpc {

class RevealSource {
 public:
  explicit RevealSource(SharedRelation shared);

  const Schema& schema() const { return shared_.schema(); }
  int64_t NumRows() const { return shared_.NumRows(); }

  // Reconstructs rows [begin, end) into a cleartext relation, bit-identical to
  // the same rows of ReconstructRelation(shared). Thread-safe; performs the
  // scheduled corruption detection for corruptions landing in the range.
  Relation RevealRows(int64_t begin, int64_t end) const;

  // Arms the fault path for this reveal: `schedule` is DeliverRevealStreamed's
  // corruption schedule and `nonce` its commitment nonce.
  void InstallFaultSchedule(uint64_t nonce,
                            std::vector<FaultInjector::RevealCorruption> schedule);

  // High-water mark of rows materialized by a single RevealRows call — the
  // residency witness (ExecutionResult::reveal_peak_rows) streaming tests
  // assert stays at the batch size, never anywhere near NumRows().
  int64_t MaxMaterializedRows() const {
    return max_materialized_rows_.load(std::memory_order_relaxed);
  }

  // Corruption detections performed so far (>= the schedule size once the
  // stream has covered every corrupted row; crash replays re-detect).
  int64_t VerifiedCorruptions() const {
    return verified_corruptions_.load(std::memory_order_relaxed);
  }

 private:
  Relation ReconstructRange(int64_t begin, int64_t end) const;

  SharedRelation shared_;
  uint64_t nonce_ = 0;
  std::vector<FaultInjector::RevealCorruption> schedule_;
  mutable std::atomic<int64_t> max_materialized_rows_{0};
  mutable std::atomic<int64_t> verified_corruptions_{0};
};

}  // namespace mpc
}  // namespace conclave

#endif  // CONCLAVE_MPC_REVEAL_SOURCE_H_
