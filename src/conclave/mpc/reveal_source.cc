#include "conclave/mpc/reveal_source.h"

#include <utility>

#include "conclave/common/cpu.h"
#include "conclave/mpc/malicious/commitment.h"

namespace conclave {
namespace mpc {
namespace {

// Per-batch commitment nonce: the reveal's delivery nonce tweaked by the
// batch's begin row, so every batch of one streamed reveal commits under a
// distinct domain while staying a pure function of (plan seed, node, ordinal,
// begin) — deterministic across pools, batch sizes, and replays.
uint64_t BatchNonce(uint64_t reveal_nonce, int64_t begin) {
  return reveal_nonce ^ (static_cast<uint64_t>(begin) * 0x9e3779b97f4a7c15ULL);
}

malicious::Commitment CommitBatch(const Schema& schema, const Relation& batch,
                                  uint64_t batch_nonce) {
  malicious::IncrementalCommitter committer(schema, batch_nonce);
  committer.AbsorbRows(batch);
  return committer.Finalize();
}

}  // namespace

RevealSource::RevealSource(SharedRelation shared) : shared_(std::move(shared)) {}

void RevealSource::InstallFaultSchedule(
    uint64_t nonce, std::vector<FaultInjector::RevealCorruption> schedule) {
  nonce_ = nonce;
  schedule_ = std::move(schedule);
}

Relation RevealSource::ReconstructRange(int64_t begin, int64_t end) const {
  Relation batch{shared_.schema()};
  batch.Resize(end - begin);
  // Shares and relation cells are both column-major: the ranged reconstruction
  // is one contiguous share-sum pass per column, straight into the column
  // buffer. No morsel parallelism — ranges are batch-sized.
  for (int c = 0; c < shared_.NumColumns(); ++c) {
    const SharedColumn& column = shared_.Column(c);
    cpu::Add3U64(column.shares[0].data() + begin,
                 column.shares[1].data() + begin,
                 column.shares[2].data() + begin,
                 static_cast<size_t>(end - begin),
                 reinterpret_cast<uint64_t*>(batch.ColumnData(c)));
  }
  return batch;
}

Relation RevealSource::RevealRows(int64_t begin, int64_t end) const {
  CONCLAVE_CHECK(begin >= 0 && begin <= end && end <= NumRows());
  Relation batch = ReconstructRange(begin, end);
  if (!schedule_.empty()) {
    // The detection DeliverReveal runs on the whole relation, replayed on the
    // batch covering each corrupted row. The injector already priced the
    // retries; here the structural guarantees are enforced: a flipped bit must
    // break the batch commitment, and the retransmitted batch must be
    // bit-identical to the first reconstruction.
    const uint64_t batch_nonce = BatchNonce(nonce_, begin);
    malicious::Commitment commitment;
    bool committed = false;
    for (const FaultInjector::RevealCorruption& corruption : schedule_) {
      if (corruption.row < begin || corruption.row >= end) {
        continue;
      }
      if (!committed) {
        commitment = CommitBatch(shared_.schema(), batch, batch_nonce);
        committed = true;
      }
      Relation corrupted = batch;  // The corrupted delivery copy.
      corrupted.ColumnData(corruption.col)[corruption.row - begin] ^=
          corruption.bit;
      CONCLAVE_CHECK(
          !(CommitBatch(shared_.schema(), corrupted, batch_nonce) == commitment));
      const Relation retry = ReconstructRange(begin, end);
      CONCLAVE_CHECK(CommitBatch(shared_.schema(), retry, batch_nonce) ==
                     commitment);
      verified_corruptions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Relaxed CAS-max: concurrent reveals race only on this witness value.
  int64_t seen = max_materialized_rows_.load(std::memory_order_relaxed);
  while (end - begin > seen &&
         !max_materialized_rows_.compare_exchange_weak(
             seen, end - begin, std::memory_order_relaxed)) {
  }
  return batch;
}

}  // namespace mpc
}  // namespace conclave
