#include "conclave/mpc/triple_dealer.h"

#include <algorithm>

#include "conclave/common/thread_pool.h"

namespace conclave {

void TripleDealer::Unpack(const AesCounterRng& stream, uint64_t first,
                          size_t count, ShareRun a, ShareRun b, ShareRun c) {
  // Batched AES fills produce the words in fixed-size sub-chunks on the stack,
  // then a scalar pass unpacks and combines them.
  constexpr size_t kChunkTriples = 128;
  uint64_t words[8 * kChunkTriples];
  for (size_t chunk = 0; chunk < count; chunk += kChunkTriples) {
    const size_t len = std::min(kChunkTriples, count - chunk);
    stream.FillWords(8 * (first + chunk), 8 * len, words);
    for (size_t j = 0; j < len; ++j) {
      const uint64_t* const w = words + 8 * j;
      const size_t i = chunk + j;
      const Ring secret_a = w[0];
      const Ring secret_b = w[1];
      a.p[0][i] = w[2];
      a.p[1][i] = w[3];
      a.p[2][i] = secret_a - w[2] - w[3];
      b.p[0][i] = w[4];
      b.p[1][i] = w[5];
      b.p[2][i] = secret_b - w[4] - w[5];
      c.p[0][i] = w[6];
      c.p[1][i] = w[7];
      c.p[2][i] = secret_a * secret_b - w[6] - w[7];
    }
  }
}

void TripleDealer::Fill(TripleBatch& batch, size_t count) {
  batch.a.Resize(count);
  batch.b.Resize(count);
  batch.c.Resize(count);
  const AesCounterRng stream = ClaimBatch(count);
  ParallelFor(
      0, static_cast<int64_t>(count),
      [&](int64_t lo, int64_t hi) {
        const size_t offset = static_cast<size_t>(lo);
        Unpack(stream, offset, static_cast<size_t>(hi - lo), RunOf(batch.a, offset),
               RunOf(batch.b, offset), RunOf(batch.c, offset));
      },
      kMpcGrainRows);
}

const TripleBatch& TripleDealer::DealBatch(size_t count) {
  Fill(scratch_, count);
  return scratch_;
}

TripleBatch TripleDealer::Deal(size_t count) {
  TripleBatch batch;
  Fill(batch, count);
  return batch;
}

}  // namespace conclave
