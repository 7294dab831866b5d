// Batched secret-sharing MPC engine (the Sharemind stand-in).
//
// Executes vectorized protocols over SharedColumn operands and charges the simulated
// network (time, bytes, rounds, op counters). Two classes of operation:
//
//  * REAL protocols — additions/subtractions are share-local; multiplications run
//    Beaver's protocol for real (triple consumption, masked openings, cross terms), so
//    their correctness is enforced by the algebra, not by fiat.
//
//  * IDEAL-FUNCTIONALITY protocols — comparisons, equality, and division reconstruct
//    internally, compute the result, and return a fresh sharing, while charging the
//    full cost (time/bytes/rounds) of the corresponding real protocol. This repo
//    reproduces Conclave's *performance and planning* behaviour; bit-level
//    cryptographic sub-protocols for comparison are out of scope (DESIGN.md §2). All
//    outputs are fresh uniform sharings, so downstream protocol behaviour is
//    indistinguishable from the real thing.
//
// All batched calls cost one (or O(circuit-depth)) communication rounds regardless of
// batch size, mirroring how Sharemind amortizes round trips over vectorized ops.
//
// Data-plane layout (DESIGN.md §5, §13): every primitive is a structure-of-arrays
// morsel loop over rows (ParallelFor on the pool bound to the MPC lane), randomness
// is counter-based — each operation claims one CounterRng stream from a sequential
// counter, and element i derives its words from the (stream, i) pair — and
// per-call temporaries (ideal-functionality reconstructions) live in a recycling
// scratch arena. The combine loops themselves run through the cpu:: ring kernels
// (each one loop, compiled for the baseline ISA and as an AVX2 clone that computes
// the same bits). Together these make every kernel a pure function of its operands
// and stream, so shares are bit-identical at every pool size.
//
// Every multiplication runs through BeaverBlock: Mul and the fused kernels — one
// Batcher compare-exchange layer (mpc/oblivious.cc) and one segmented-scan level
// (mpc/protocols.cc) per pass — claim a triple batch's stream and unpack each
// block's triples into stack buffers, so no triple column is ever allocated. The
// fused kernels share Compare's morsel body (ShareComparison) the same way, with
// no column allocated per layer or level.
//
// Every charge is one free function over SimNetwork& (ChargeMul below; the others
// in oblivious.h, protocols.h and hybrid/stp.h). The operations charge through
// them, and the planner applies the same functions to a scratch network.
#ifndef CONCLAVE_MPC_SECRET_SHARE_ENGINE_H_
#define CONCLAVE_MPC_SECRET_SHARE_ENGINE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "conclave/common/arena.h"
#include "conclave/common/rng.h"
#include "conclave/mpc/share.h"
#include "conclave/mpc/triple_dealer.h"
#include "conclave/net/network.h"
#include "conclave/relational/ops.h"

namespace conclave {

class SecretShareEngine {
 public:
  SecretShareEngine(SimNetwork* network, uint64_t seed)
      : network_(network),
        dealer_(seed ^ 0xdeadbeefULL),
        seed_(seed),
        perm_rng_(seed) {
    CONCLAVE_CHECK(network != nullptr);
  }

  // --- Local linear algebra (no communication) --------------------------------------
  static SharedColumn Add(const SharedColumn& a, const SharedColumn& b);
  static SharedColumn Sub(const SharedColumn& a, const SharedColumn& b);
  // a + k: the constant folds into party 0's share.
  static SharedColumn AddConst(const SharedColumn& a, int64_t constant);
  static SharedColumn MulConst(const SharedColumn& a, int64_t constant);
  // Trivial sharing (v, 0, 0) of public values.
  static SharedColumn Public(std::span<const int64_t> values);
  static SharedColumn Public(std::initializer_list<int64_t> values) {
    return Public(std::span<const int64_t>(values.begin(), values.size()));
  }
  // Trivial sharing of n copies of one public value — the all-ones / all-k columns
  // the protocol layer leans on, without materializing a cleartext vector first.
  static SharedColumn PublicConst(size_t n, int64_t value);

  // --- Real interactive protocols -----------------------------------------------------
  // Beaver multiplication; one round, one triple per element.
  SharedColumn Mul(const SharedColumn& a, const SharedColumn& b);
  // Public opening: every party broadcasts its shares.
  std::vector<int64_t> Open(const SharedColumn& a);
  // Fresh re-randomized sharing of the same secret (adds a zero-sharing).
  SharedColumn Rerandomize(const SharedColumn& a);
  // Fused gather + re-randomize: out[i] = fresh sharing of column[rows[i]]. One pass,
  // no intermediate column; the workhorse of shuffle/select/join share movement.
  SharedColumn GatherRerandomize(const SharedColumn& column,
                                 std::span<const int64_t> rows) {
    return GatherRerandomizeWith(column, rows, NewStream());
  }
  // Stream-explicit variant: callers that move several columns in parallel claim one
  // stream per column up front (in column order, on the lane) and fan the moves out.
  static SharedColumn GatherRerandomizeWith(const SharedColumn& column,
                                            std::span<const int64_t> rows,
                                            const CounterRng& rng);

  // --- Ideal-functionality protocols (full cost charged) -----------------------------
  // Element-wise comparison; returns a shared 0/1 column. kEq/kNe use the cheap
  // equality protocol; ordered comparisons use the expensive bit-decomposition one.
  SharedColumn Compare(CompareOp op, const SharedColumn& a, const SharedColumn& b);
  SharedColumn CompareConst(CompareOp op, const SharedColumn& a, int64_t constant);
  // Element-wise (a * scale) / b with b==0 -> 0 (matching cleartext Arithmetic).
  SharedColumn Div(const SharedColumn& a, const SharedColumn& b, int64_t scale);

  // --- Composite helpers ---------------------------------------------------------------
  // condition ? a : b, element-wise; condition must be a shared 0/1 column.
  // Costs one multiplication per element.
  SharedColumn Mux(const SharedColumn& condition, const SharedColumn& a,
                   const SharedColumn& b);

  // Fresh sharing of cleartext values (no cost — callers charge context-appropriate
  // ingest costs; see protocols.h InputRelation).
  SharedColumn Share(std::span<const int64_t> values) {
    return ShareValues(values, NewStream());
  }
  SharedColumn Share(std::initializer_list<int64_t> values) {
    return Share(std::span<const int64_t>(values.begin(), values.size()));
  }
  // Shares one relation column zero-copy from its contiguous column buffer (the
  // MPC ingest path; no gather, no copy).
  SharedColumn ShareColumn(const Relation& relation, int col) {
    return conclave::ShareColumn(relation, col, NewStream());
  }

  // Internal reconstruction used by ideal-functionality steps. Deliberately public so
  // higher-level protocols (e.g., the Cartesian join's ideal match step) can use it;
  // the name flags every call site as a simulation shortcut.
  static std::vector<int64_t> IdealReconstruct(const SharedColumn& a) {
    return ReconstructValues(a);
  }

  // --- Chunk kernels and charges -------------------------------------------------------
  // Fresh sharing of the 0/1 results lhs[i] op rhs[i] for `len` elements whose
  // masks are elements [first, first + len) of `masks` (element e draws words 2e
  // and 2e + 1); `bits` is caller scratch of `len` bytes.
  static void ShareComparison(CompareOp op, const int64_t* lhs, const int64_t* rhs,
                              size_t len, const CounterRng& masks, uint64_t first,
                              uint8_t* bits, ShareRun out);
  // Claims the next randomness stream. Streams are claimed in a fixed sequence on
  // the serialized MPC lane, so stream assignment — and therefore every sharing —
  // is independent of the pool size.
  CounterRng NewStream() { return CounterRng(seed_, next_stream_++); }

  // Replay checkpoint for fault-injected frontier rollback (backends/dispatcher,
  // DESIGN.md §11): restoring rewinds the stream counter, the sequential
  // permutation generator, and the triple dealer, so a re-executed node claims
  // the same streams and reproduces the same share bits — the property that
  // makes crash recovery bit-identical.
  struct ReplayCheckpoint {
    uint64_t next_stream = 0;
    Rng perm_rng{0};
    TripleDealer::Checkpoint dealer;
  };
  ReplayCheckpoint TakeCheckpoint() const {
    ReplayCheckpoint checkpoint;
    checkpoint.next_stream = next_stream_;
    checkpoint.perm_rng = perm_rng_;
    checkpoint.dealer = dealer_.TakeCheckpoint();
    return checkpoint;
  }
  void Restore(const ReplayCheckpoint& checkpoint) {
    next_stream_ = checkpoint.next_stream;
    perm_rng_ = checkpoint.perm_rng;
    dealer_.Restore(checkpoint.dealer);
  }

  SimNetwork& network() { return *network_; }
  TripleDealer& dealer() { return dealer_; }
  // The sequential generator feeding shuffle permutations (Fisher-Yates is
  // inherently order-dependent; it runs only on the serialized lane).
  Rng& rng() { return perm_rng_; }

 private:
  SimNetwork* network_;
  TripleDealer dealer_;
  uint64_t seed_;
  uint64_t next_stream_ = 0;
  Rng perm_rng_;
  ScratchArena arena_;
};

// --- Charges ---------------------------------------------------------------------------
// One batched invocation of `primitive` over `units` (SsPrimitive names the unit).
void ChargeSsBatch(SimNetwork& network, SsPrimitive primitive, uint64_t units);
// n multiplications. An empty batch charges nothing: Mul returns before dealing.
void ChargeMul(SimNetwork& network, uint64_t n);
// n comparisons: kEq/kNe price as the equality protocol, ordered ops as the
// comparison protocol. An empty batch still charges its rounds.
void ChargeCompare(SimNetwork& network, CompareOp op, uint64_t n);
// n divisions (an empty batch still charges its rounds).
void ChargeDiv(SimNetwork& network, uint64_t n);
// Opening n elements: traffic and one round, no seconds.
void ChargeOpen(SimNetwork& network, uint64_t n);

// Chunk-local shares of one block, on the morsel's stack.
inline constexpr size_t kFusedBlockRows = 256;
struct ShareBlock {
  Ring s[kNumShareParties][kFusedBlockRows] = {};
  ShareRun run() { return {{s[0], s[1], s[2]}}; }
};

// Beaver multiplication over one block, the one multiplication path: Mul and the
// fused kernels run it block by block. It unpacks the block's triples (a, b, c)
// from a claimed batch stream (TripleDealer::ClaimBatch) into local buffers, opens
// d = x - a and e = y - b, then writes z = c + d*b + e*a + d*e (the d*e term folded
// into party 0's share).
class BeaverBlock {
 public:
  // z = x * y for elements [first, first + len) of the batch whose triple stream
  // is `triples` (len <= kFusedBlockRows). z may alias x or y: both openings are
  // complete before z is written.
  void Mul(const CounterRng& triples, uint64_t first, size_t len, ConstShareRun x,
           ConstShareRun y, ShareRun z);

 private:
  ShareBlock a_;
  ShareBlock b_;
  ShareBlock c_;
  Ring d_[kFusedBlockRows] = {};
  Ring e_[kFusedBlockRows] = {};
};

}  // namespace conclave

#endif  // CONCLAVE_MPC_SECRET_SHARE_ENGINE_H_
