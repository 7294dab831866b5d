// Beaver multiplication-triple dealer.
//
// Produces random shared triples (a, b, c) with c = a*b in Z_2^64. The engine consumes
// one triple per secret multiplication (Beaver's protocol [4]). A trusted dealer is the
// standard simulation stand-in for Sharemind's correlated-randomness preprocessing; the
// number of triples dealt is exposed so tests can assert multiplication counts.
//
// The dealer is the preprocessing phase reduced to a pure function of (stream,
// index): triple i of a batch draws words [8i, 8i+8) of the batch's CounterRng
// stream (Unpack, the one definition of the layout). The dealer only claims
// streams (ClaimBatch); every multiplication — the engine's Mul and the fused
// kernels — unpacks each block's triples into BeaverBlock's stack buffers, so the
// engine materializes no triple column and the result is pool-size independent.
#ifndef CONCLAVE_MPC_TRIPLE_DEALER_H_
#define CONCLAVE_MPC_TRIPLE_DEALER_H_

#include <cstdint>

#include "conclave/common/rng.h"
#include "conclave/mpc/share.h"

namespace conclave {

class TripleDealer {
 public:
  explicit TripleDealer(uint64_t seed) : seed_(seed) {}

  // Deals a batch of `count` triples: claims its stream and counts the triples as
  // dealt. The caller unpacks triples [first, first + len) of it with Unpack,
  // block by block.
  CounterRng ClaimBatch(size_t count) {
    triples_dealt_ += count;
    return CounterRng(seed_, next_stream_++);
  }

  // The triple layout: triple i of a batch is words [8i, 8i+8) of its stream — the
  // secrets a and b, then the first two shares of a, of b and of c = a*b (the third
  // share completes each sharing). Writes triples [first, first + count) to a, b, c.
  static void Unpack(const CounterRng& stream, uint64_t first, size_t count,
                     ShareRun a, ShareRun b, ShareRun c);

  uint64_t triples_dealt() const { return triples_dealt_; }

  // Replay checkpoint for fault-injected frontier rollback: restoring rewinds the
  // stream counter (and the dealt-triples meter), so a re-executed node consumes
  // the same triples and reproduces the same openings (DESIGN.md §11).
  struct Checkpoint {
    uint64_t next_stream = 0;
    uint64_t triples_dealt = 0;
  };
  Checkpoint TakeCheckpoint() const { return {next_stream_, triples_dealt_}; }
  void Restore(const Checkpoint& checkpoint) {
    next_stream_ = checkpoint.next_stream;
    triples_dealt_ = checkpoint.triples_dealt;
  }

 private:
  uint64_t seed_;
  uint64_t next_stream_ = 0;
  uint64_t triples_dealt_ = 0;
};

}  // namespace conclave

#endif  // CONCLAVE_MPC_TRIPLE_DEALER_H_
