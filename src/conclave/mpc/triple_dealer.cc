#include "conclave/mpc/triple_dealer.h"

namespace conclave {

void TripleDealer::Unpack(const CounterRng& stream, uint64_t first, size_t count,
                          ShareRun a, ShareRun b, ShareRun c) {
  for (size_t i = 0; i < count; ++i) {
    Ring w[8];
    for (uint64_t k = 0; k < 8; ++k) {
      w[k] = stream.At(8 * (first + i) + k);
    }
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

}  // namespace conclave
