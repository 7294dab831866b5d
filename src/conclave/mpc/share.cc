#include "conclave/mpc/share.h"

#include <algorithm>

#include "conclave/common/cpu.h"
#include "conclave/common/thread_pool.h"

namespace conclave {

SharedColumn ShareValues(std::span<const int64_t> values, Rng& rng) {
  SharedColumn column(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const Ring r0 = rng.Next();
    const Ring r1 = rng.Next();
    column.shares[0][i] = r0;
    column.shares[1][i] = r1;
    column.shares[2][i] = ToRing(values[i]) - r0 - r1;
  }
  return column;
}

SharedColumn ShareValues(std::span<const int64_t> values, const CounterRng& rng) {
  SharedColumn column(values.size());
  Ring* const s0 = column.shares[0].data();
  Ring* const s1 = column.shares[1].data();
  Ring* const s2 = column.shares[2].data();
  const int64_t* const v = values.data();
  ParallelFor(
      0, static_cast<int64_t>(values.size()),
      [&](int64_t lo, int64_t hi) {
        // Element i's mask words are stream words 2i and 2i+1, so a morsel is
        // one fill straight into s0/s1 followed by one vector combine.
        const size_t n = static_cast<size_t>(hi - lo);
        rng.FillPairs(static_cast<uint64_t>(lo), n, s0 + lo, s1 + lo);
        cpu::SubSubU64(reinterpret_cast<const uint64_t*>(v) + lo, s0 + lo,
                       s1 + lo, n, s2 + lo);
      },
      kMpcGrainRows);
  return column;
}

void ReconstructInto(const SharedColumn& column, int64_t begin, int64_t end,
                     int64_t* out) {
  CONCLAVE_CHECK(begin >= 0 && begin <= end &&
                 end <= static_cast<int64_t>(column.size()));
  const Ring* const s0 = column.shares[0].data();
  const Ring* const s1 = column.shares[1].data();
  const Ring* const s2 = column.shares[2].data();
  ParallelFor(
      begin, end,
      [&](int64_t lo, int64_t hi) {
        cpu::Add3U64(s0 + lo, s1 + lo, s2 + lo, static_cast<size_t>(hi - lo),
                     reinterpret_cast<uint64_t*>(out) + (lo - begin));
      },
      kMpcGrainRows);
}

std::vector<int64_t> ReconstructValues(const SharedColumn& column) {
  std::vector<int64_t> values(column.size());
  ReconstructInto(column, values.data());
  return values;
}

Ring RingSum(std::span<const Ring> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0) {
    return 0;
  }
  const int64_t num_chunks = (n + kMpcGrainRows - 1) / kMpcGrainRows;
  std::vector<Ring> partials(static_cast<size_t>(num_chunks), 0);
  ParallelFor(
      0, n,
      [&](int64_t lo, int64_t hi) {
        partials[static_cast<size_t>(lo / kMpcGrainRows)] =
            cpu::SumU64(values.data() + lo, static_cast<size_t>(hi - lo));
      },
      kMpcGrainRows);
  Ring total = 0;
  for (Ring partial : partials) {
    total += partial;
  }
  return total;
}

SharedRelation::SharedRelation(Schema schema, std::vector<SharedColumn> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  CONCLAVE_CHECK_EQ(static_cast<size_t>(schema_.NumColumns()), columns_.size());
  for (const auto& column : columns_) {
    CONCLAVE_CHECK_EQ(column.size(), columns_[0].size());
  }
}

const SharedColumn& SharedRelation::Column(int index) const {
  CONCLAVE_CHECK_GE(index, 0);
  CONCLAVE_CHECK_LT(index, NumColumns());
  return columns_[static_cast<size_t>(index)];
}

SharedColumn& SharedRelation::MutableColumn(int index) {
  CONCLAVE_CHECK_GE(index, 0);
  CONCLAVE_CHECK_LT(index, NumColumns());
  return columns_[static_cast<size_t>(index)];
}

void SharedRelation::AppendColumn(ColumnDef def, SharedColumn column) {
  if (!columns_.empty()) {
    CONCLAVE_CHECK_EQ(column.size(), columns_[0].size());
  }
  std::vector<ColumnDef> defs = schema_.columns();
  defs.push_back(std::move(def));
  schema_ = Schema(std::move(defs));
  columns_.push_back(std::move(column));
}

void SharedRelation::AppendPublicColumn(ColumnDef def,
                                        const std::vector<int64_t>& values) {
  SharedColumn column(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    column.shares[0][i] = ToRing(values[i]);
  }
  AppendColumn(std::move(def), std::move(column));
}

void SharedRelation::DropColumn(int index) {
  CONCLAVE_CHECK_GE(index, 0);
  CONCLAVE_CHECK_LT(index, NumColumns());
  std::vector<ColumnDef> defs = schema_.columns();
  defs.erase(defs.begin() + index);
  schema_ = Schema(std::move(defs));
  columns_.erase(columns_.begin() + index);
}

SharedRelation ShareRelation(const Relation& relation, Rng& rng) {
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(relation.NumColumns()));
  for (int c = 0; c < relation.NumColumns(); ++c) {
    columns.push_back(ShareValues(relation.ColumnSpan(c), rng));
  }
  return SharedRelation(relation.schema(), std::move(columns));
}

SharedColumn GatherColumn(const SharedColumn& column, std::span<const int64_t> rows) {
  SharedColumn out(rows.size());
  const ConstShareRun src = RunOf(column);
  const ShareRun dst = RunOf(out);
  ParallelFor(
      0, static_cast<int64_t>(rows.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t row = rows[static_cast<size_t>(i)];
          CONCLAVE_DCHECK(row >= 0 && row < static_cast<int64_t>(column.size()));
          for (int p = 0; p < kNumShareParties; ++p) {
            dst.p[p][i] = src.p[p][row];
          }
        }
      },
      kMpcGrainRows);
  return out;
}

SharedColumn SliceColumn(const SharedColumn& column, size_t start, size_t length) {
  CONCLAVE_CHECK_LE(start + length, column.size());
  SharedColumn out(length);
  for (int p = 0; p < kNumShareParties; ++p) {
    std::copy(column.shares[p].begin() + static_cast<int64_t>(start),
              column.shares[p].begin() + static_cast<int64_t>(start + length),
              out.shares[p].begin());
  }
  return out;
}

SharedRelation ConcatShares(std::span<const SharedRelation* const> inputs) {
  CONCLAVE_CHECK_GT(inputs.size(), 0u);
  const SharedRelation& first = *inputs[0];
  int64_t total = 0;
  for (const SharedRelation* rel : inputs) {
    CONCLAVE_CHECK(first.schema().NamesMatch(rel->schema()));
    total += rel->NumRows();
  }
  std::vector<SharedColumn> columns;
  columns.reserve(static_cast<size_t>(first.NumColumns()));
  for (int c = 0; c < first.NumColumns(); ++c) {
    SharedColumn merged(static_cast<size_t>(total));
    size_t offset = 0;
    for (const SharedRelation* rel : inputs) {
      for (int p = 0; p < kNumShareParties; ++p) {
        const auto& src = rel->Column(c).shares[p];
        std::copy(src.begin(), src.end(),
                  merged.shares[p].begin() + static_cast<int64_t>(offset));
      }
      offset += rel->Column(c).size();
    }
    columns.push_back(std::move(merged));
  }
  return SharedRelation(first.schema(), std::move(columns));
}

Relation ReconstructRelation(const SharedRelation& shared) {
  Relation relation{shared.schema()};
  relation.Resize(shared.NumRows());
  // Shares and relation cells are both column-major now: reconstruction is one
  // contiguous morsel-parallel pass per column, straight into the column buffer.
  for (int c = 0; c < shared.NumColumns(); ++c) {
    ReconstructInto(shared.Column(c), relation.ColumnData(c));
  }
  return relation;
}

}  // namespace conclave
