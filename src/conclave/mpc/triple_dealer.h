// Beaver multiplication-triple dealer.
//
// Produces random shared triples (a, b, c) with c = a*b in Z_2^64. The engine consumes
// one triple per secret multiplication (Beaver's protocol [4]). A trusted dealer is the
// standard simulation stand-in for Sharemind's correlated-randomness preprocessing; the
// number of triples dealt is exposed so tests can assert multiplication counts.
//
// Randomness is counter-based (AesCounterRng — batched fixed-key AES counter
// blocks): triple i of a batch draws words [8i, 8i+8) of the batch's stream
// (Unpack, the one definition of the layout), so columns fill in one
// morsel-parallel pass with a pool-size-independent result. DealBatch writes into
// a dealer-owned scratch batch (borrowed until the next call), so steady-state
// multiplication consumes no allocations for triples at all. Fused kernels claim a
// batch's stream without materializing it (ClaimBatch) and unpack each chunk's
// triples into chunk-local buffers.
#ifndef CONCLAVE_MPC_TRIPLE_DEALER_H_
#define CONCLAVE_MPC_TRIPLE_DEALER_H_

#include <cstdint>

#include "conclave/common/rng.h"
#include "conclave/mpc/share.h"

namespace conclave {

// A batch of shared triples, column-major like SharedColumn.
struct TripleBatch {
  SharedColumn a;
  SharedColumn b;
  SharedColumn c;
};

// A run of consecutive triples: a morsel of a TripleBatch, or one chunk that a
// fused kernel unpacked into local buffers.
struct TripleRun {
  ConstShareRun a;
  ConstShareRun b;
  ConstShareRun c;
};

class TripleDealer {
 public:
  explicit TripleDealer(uint64_t seed) : seed_(seed) {}

  // Fills the dealer's scratch batch with `count` fresh triples in one pass and
  // returns it; the reference is valid until the next DealBatch/Deal call.
  const TripleBatch& DealBatch(size_t count);

  // Copying convenience for callers that keep the batch (tests).
  TripleBatch Deal(size_t count);

  // Claims the stream of a batch of `count` triples without materializing it; the
  // caller unpacks triples [first, first + len) of it with Unpack, chunk by chunk.
  // Counts as dealt, exactly as DealBatch(count) would.
  AesCounterRng ClaimBatch(size_t count) {
    triples_dealt_ += count;
    return AesCounterRng(seed_, next_stream_++);
  }

  // The triple layout: triple i of a batch is words [8i, 8i+8) of its stream — the
  // secrets a and b, then the first two shares of a, of b and of c = a*b (the third
  // share completes each sharing). Writes triples [first, first + count) to a, b, c.
  static void Unpack(const AesCounterRng& stream, uint64_t first, size_t count,
                     ShareRun a, ShareRun b, ShareRun c);

  uint64_t triples_dealt() const { return triples_dealt_; }

  // Replay checkpoint for fault-injected frontier rollback: restoring rewinds the
  // stream counter (and the dealt-triples meter), so a re-executed node consumes
  // the same triples and reproduces the same openings (DESIGN.md §11). The
  // scratch batch needs no snapshot — it is borrowed per call and refilled from
  // the (restored) stream counter.
  struct Checkpoint {
    uint64_t next_stream = 0;
    uint64_t triples_dealt = 0;
  };
  Checkpoint TakeCheckpoint() const { return {next_stream_, triples_dealt_}; }
  void Restore(const Checkpoint& checkpoint) {
    next_stream_ = checkpoint.next_stream;
    triples_dealt_ = checkpoint.triples_dealt;
  }

  // True when `column` is one of the dealer-owned scratch columns. The engine
  // rejects such operands: the next DealBatch would refill them mid-protocol.
  bool OwnsBatchColumn(const SharedColumn& column) const {
    return &column == &scratch_.a || &column == &scratch_.b ||
           &column == &scratch_.c;
  }

 private:
  void Fill(TripleBatch& batch, size_t count);

  uint64_t seed_;
  uint64_t next_stream_ = 0;
  uint64_t triples_dealt_ = 0;
  TripleBatch scratch_;
};

}  // namespace conclave

#endif  // CONCLAVE_MPC_TRIPLE_DEALER_H_
