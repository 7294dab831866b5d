#include "conclave/mpc/reveal_source.h"

#include <utility>

#include "conclave/mpc/malicious/commitment.h"

namespace conclave {
namespace mpc {
namespace {

// Per-range commitment nonce: the reveal's delivery nonce tweaked by the
// range's begin row, so every range of one streamed reveal commits under a
// distinct domain while staying a pure function of (plan seed, node, ordinal,
// begin) — deterministic across pools, batch sizes, and replays.
uint64_t RangeNonce(uint64_t reveal_nonce, int64_t begin) {
  return reveal_nonce ^ (static_cast<uint64_t>(begin) * 0x9e3779b97f4a7c15ULL);
}

malicious::Commitment CommitRange(const Schema& schema, const Relation& range,
                                  uint64_t range_nonce) {
  malicious::IncrementalCommitter committer(schema, range_nonce);
  committer.AbsorbRows(range);
  return committer.Finalize();
}

}  // namespace

RevealSource::RevealSource(SharedRelation shared, uint64_t nonce,
                           std::vector<FaultInjector::RevealCorruption> schedule)
    : shared_(std::move(shared)), nonce_(nonce), schedule_(std::move(schedule)) {}

Relation RevealSource::ReconstructRange(int64_t begin, int64_t end) const {
  Relation range{shared_.schema()};
  range.Resize(end - begin);
  // Shares and relation cells are both column-major: one contiguous
  // morsel-parallel share-sum pass per column, straight into the column buffer.
  for (int c = 0; c < shared_.NumColumns(); ++c) {
    ReconstructInto(shared_.Column(c), begin, end, range.ColumnData(c));
  }
  return range;
}

StatusOr<Relation> RevealSource::ReadRows(int64_t begin, int64_t end) const {
  Relation range = ReconstructRange(begin, end);
  // Replays the commitment opening check on the range covering each scheduled
  // corruption. The injector already priced the retries; here the structural
  // guarantees are enforced: a flipped bit must break the range commitment,
  // and the retransmitted range must be bit-identical to the first
  // reconstruction.
  const uint64_t range_nonce = RangeNonce(nonce_, begin);
  malicious::Commitment commitment;
  bool committed = false;
  for (const FaultInjector::RevealCorruption& corruption : schedule_) {
    if (corruption.row < begin || corruption.row >= end) {
      continue;
    }
    if (!committed) {
      commitment = CommitRange(shared_.schema(), range, range_nonce);
      committed = true;
    }
    Relation corrupted = range;  // The corrupted delivery copy.
    corrupted.ColumnData(corruption.col)[corruption.row - begin] ^= corruption.bit;
    CONCLAVE_CHECK(
        !(CommitRange(shared_.schema(), corrupted, range_nonce) == commitment));
    const Relation retry = ReconstructRange(begin, end);
    CONCLAVE_CHECK(CommitRange(shared_.schema(), retry, range_nonce) == commitment);
  }
  return range;
}

}  // namespace mpc
}  // namespace conclave
