// A reveal: the MPC -> cleartext frontier as a RowSource.
//
// A RevealSource holds a shared relation's shares and reconstructs row ranges
// on demand. Every reveal the dispatcher performs goes through one: a
// materializing consumer pulls the whole range, and a fused downstream chain
// (relational/pipeline.h BatchPipeline::Run) pulls batch-at-a-time so the
// revealed relation never exists in memory — the reveal-boundary analog of
// CsvSource (DESIGN.md §12, §14).
//
// Reconstruction is a pure share sum per cell, so row ranges are independent:
// Rows is const and thread-safe, and any row range is bit-identical to the same
// slice of ReconstructRelation(shared). Boundary charges are NOT applied here —
// the dispatcher charges mpc::ChargeRevealMeters once for the whole reveal
// when it opens the source, whichever way the source is then read.
//
// Under fault injection the reveal's corruptions arrive as a schedule
// (net/fault.h ScheduleRevealFaults), and this source is the one place they
// are detected: the pull covering each corrupted row corrupts a delivery
// copy, its commitment (malicious::IncrementalCommitter, nonce tweaked by the
// range's begin row) must mismatch, and the retransmitted range must
// reconstruct bit-identically. Retry charges were already priced by the
// injector, so the virtual clock does not depend on the pull sizes.
#ifndef CONCLAVE_MPC_REVEAL_SOURCE_H_
#define CONCLAVE_MPC_REVEAL_SOURCE_H_

#include <cstdint>
#include <vector>

#include "conclave/mpc/share.h"
#include "conclave/net/fault.h"
#include "conclave/relational/relation.h"
#include "conclave/relational/row_source.h"

namespace conclave {
namespace mpc {

class RevealSource : public RowSource {
 public:
  // `schedule` and `nonce` arm the fault path: ScheduleRevealFaults's
  // corruption schedule for this reveal and its commitment nonce.
  explicit RevealSource(SharedRelation shared, uint64_t nonce = 0,
                        std::vector<FaultInjector::RevealCorruption> schedule = {});

  const Schema& schema() const override { return shared_.schema(); }
  int64_t NumRows() const override { return shared_.NumRows(); }

 private:
  // Reconstructs rows [begin, end) and runs the scheduled corruption
  // detection for corruptions landing in the range. Never fails.
  StatusOr<Relation> ReadRows(int64_t begin, int64_t end) const override;
  Relation ReconstructRange(int64_t begin, int64_t end) const;

  SharedRelation shared_;
  uint64_t nonce_ = 0;
  std::vector<FaultInjector::RevealCorruption> schedule_;
};

}  // namespace mpc
}  // namespace conclave

#endif  // CONCLAVE_MPC_REVEAL_SOURCE_H_
