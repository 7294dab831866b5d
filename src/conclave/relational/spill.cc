#include "conclave/relational/spill.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "conclave/common/check.h"
#include "conclave/common/env.h"
#include "conclave/common/rng.h"
#include "conclave/common/strings.h"
#include "conclave/common/tempfile.h"
#include "conclave/relational/hash_index.h"

namespace conclave {

int64_t DefaultMemBudgetRows() {
  // 0 means unbounded (spilling off); negative budgets are rejected.
  return env::Int64Knob("CONCLAVE_MEM_BUDGET", /*fallback=*/0, /*min_value=*/0,
                        std::numeric_limits<int64_t>::max());
}

namespace spill {

int64_t SpillMergePasses(int64_t rows, int64_t budget) {
  if (budget <= 0 || rows <= budget) {
    return 0;
  }
  int64_t runs = (rows + budget - 1) / budget;
  int64_t passes = 0;
  while (runs > 1) {
    runs = (runs + kSpillMergeFanIn - 1) / kSpillMergeFanIn;
    ++passes;
  }
  return passes;
}

namespace {

// Depth cap for Grace-join recursion: a bucket that a level-salted rehash cannot
// shrink (one key carrying more than `budget` duplicates) builds in memory at the
// cap rather than recursing forever.
constexpr int kMaxGraceDepth = 6;

// Tracks the operator's own resident rows (runs being formed, merge heads,
// probe batches) and records the high-water mark into SpillStats. Borrowed
// inputs and the final output are excluded, matching PipelineStats.
class ResidencyMeter {
 public:
  explicit ResidencyMeter(SpillStats* stats) : stats_(stats) {}

  void Add(int64_t rows) {
    current_ += rows;
    if (stats_ != nullptr) {
      stats_->peak_resident_rows = std::max(stats_->peak_resident_rows, current_);
    }
  }
  void Sub(int64_t rows) { current_ -= rows; }

 private:
  SpillStats* stats_;
  int64_t current_ = 0;
};

// The leading `n` column indices of a run, [0, n).
std::vector<int> LeadingColumns(int n) {
  std::vector<int> columns(static_cast<size_t>(n));
  std::iota(columns.begin(), columns.end(), 0);
  return columns;
}

struct CloseFile {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, CloseFile>;

FilePtr OpenFile(const SpillFile& file, const char* mode) {
  FilePtr f(std::fopen(file.path().c_str(), mode));
  CONCLAVE_CHECK(f != nullptr);
  return f;
}

// One spilled run (or Grace partition) on disk: row-major int64 cells. Cells
// carry no column names; a kernel names its output columns itself.
struct SpillRun {
  SpillFile file;
  int64_t rows = 0;
  int cols = 0;
};

class SpillRunWriter {
 public:
  SpillRunWriter(const TempDir& dir, int sequence, int cols, SpillStats* stats)
      : file_(StrFormat("%s/run-%d", dir.path().c_str(), sequence)),
        f_(OpenFile(file_, "wb")),
        cols_(cols),
        stats_(stats) {}

  void AppendRow(std::span<const int64_t> row) {
    CONCLAVE_DCHECK(static_cast<int>(row.size()) == cols_);
    Write(row);
    ++rows_;
  }

  // Interleaves a columnar batch into the row-major stream.
  void Append(const Relation& batch) {
    const int64_t n = batch.NumRows();
    scratch_.resize(static_cast<size_t>(n) * cols_);
    for (int c = 0; c < cols_; ++c) {
      const auto column = batch.ColumnSpan(c);
      for (int64_t r = 0; r < n; ++r) {
        scratch_[static_cast<size_t>(r) * cols_ + c] = column[r];
      }
    }
    Write(scratch_);
    rows_ += n;
  }

  SpillRun Finish() {
    CONCLAVE_CHECK_EQ(std::fclose(f_.release()), 0);
    if (stats_ != nullptr) {
      stats_->spilled_rows += rows_;
      stats_->spilled_bytes += rows_ * cols_ * static_cast<int64_t>(sizeof(int64_t));
      ++stats_->runs_written;
    }
    return SpillRun{std::move(file_), rows_, cols_};
  }

 private:
  void Write(std::span<const int64_t> cells) {
    const size_t written =
        std::fwrite(cells.data(), sizeof(int64_t), cells.size(), f_.get());
    CONCLAVE_CHECK_EQ(written, cells.size());
  }

  SpillFile file_;
  FilePtr f_;
  int cols_;
  int64_t rows_ = 0;
  SpillStats* stats_;
  std::vector<int64_t> scratch_;
};

class SpillRunReader {
 public:
  explicit SpillRunReader(const SpillRun& run)
      : f_(OpenFile(run.file, "rb")),
        schema_(std::vector<ColumnDef>(static_cast<size_t>(run.cols))),
        cols_(run.cols),
        remaining_(run.rows) {}

  int64_t remaining() const { return remaining_; }

  // De-interleaves the next <= max_rows rows into a columnar batch with
  // nameless columns; empty batch at end of stream.
  Relation ReadBatch(int64_t max_rows) {
    const int64_t n = std::min(remaining_, max_rows);
    Relation batch{schema_};
    batch.Resize(n);
    if (n == 0) {
      return batch;
    }
    scratch_.resize(static_cast<size_t>(n) * cols_);
    const size_t read =
        std::fread(scratch_.data(), sizeof(int64_t), scratch_.size(), f_.get());
    CONCLAVE_CHECK_EQ(read, scratch_.size());
    for (int c = 0; c < cols_; ++c) {
      int64_t* const dst = batch.ColumnData(c);
      for (int64_t r = 0; r < n; ++r) {
        dst[r] = scratch_[static_cast<size_t>(r) * cols_ + c];
      }
    }
    remaining_ -= n;
    return batch;
  }

 private:
  FilePtr f_;
  Schema schema_;
  int cols_;
  int64_t remaining_;
  std::vector<int64_t> scratch_;
};

// Cuts `input` into chunks of `budget` rows and writes `kernel(chunk)` of each
// as one run. A chunk and its kernel's output coexist while the run forms, so
// the meter charges twice the chunk.
template <typename Kernel>
std::vector<SpillRun> FormRuns(const Relation& input, int64_t budget, const TempDir& dir,
                               SpillStats* stats, ResidencyMeter& meter,
                               const Kernel& kernel) {
  std::vector<SpillRun> runs;
  for (int64_t lo = 0; lo < input.NumRows(); lo += budget) {
    const int64_t chunk = std::min(input.NumRows() - lo, budget);
    meter.Add(2 * chunk);
    const Relation run = kernel(ops::Slice(input, lo, lo + chunk));
    SpillRunWriter writer(dir, static_cast<int>(runs.size()), run.NumColumns(), stats);
    writer.Append(run);
    runs.push_back(writer.Finish());
    meter.Sub(2 * chunk);
  }
  return runs;
}

// --- K-way merge over spilled runs -------------------------------------------------
//
// A binary heap keyed on each stream's current head row, ties resolving to the
// lower stream index, so merging contiguous stable-sorted runs reproduces the
// global stable sort.

struct MergeSource {
  explicit MergeSource(const SpillRun& run) : reader(run) {}

  SpillRunReader reader;
  Relation batch;
  int64_t pos = 0;

  bool Refill(int64_t batch_rows, ResidencyMeter& meter) {
    if (pos < batch.NumRows()) {
      return true;
    }
    meter.Sub(batch.NumRows());
    batch = reader.ReadBatch(batch_rows);
    meter.Add(batch.NumRows());
    pos = 0;
    return batch.NumRows() > 0;
  }
  int64_t Cell(int col) const { return batch.ColumnSpan(col)[pos]; }
};

// Three-way comparison of the head rows of sources a and b over `key_columns`
// (ascending unless `ascending` is false). Zero means equal keys.
int CompareHeads(const MergeSource& a, const MergeSource& b,
                 std::span<const int> key_columns, bool ascending) {
  for (int col : key_columns) {
    const int64_t va = a.Cell(col);
    const int64_t vb = b.Cell(col);
    if (va != vb) {
      const int dir = va < vb ? -1 : 1;
      return ascending ? dir : -dir;
    }
  }
  return 0;
}

// Merges `runs` (each sorted by `key_columns`) into a single sorted row stream,
// invoking `emit(source)` once per row in merged order. `emit` must consume the
// source's current head before it advances.
template <typename Emit>
void MergeRunStream(std::span<const SpillRun> runs, std::span<const int> key_columns,
                    bool ascending, int64_t batch_rows, ResidencyMeter& meter,
                    Emit&& emit) {
  std::vector<MergeSource> sources;
  sources.reserve(runs.size());
  for (const SpillRun& run : runs) {
    sources.emplace_back(run);
  }
  // comes_before(a, b): strict ordering with lower-index tie-break.
  auto comes_before = [&](size_t a, size_t b) {
    const int cmp = CompareHeads(sources[a], sources[b], key_columns, ascending);
    return cmp != 0 ? cmp < 0 : a < b;
  };
  // Binary min-heap of live source indices (std::priority_queue is a max-heap;
  // invert the comparator).
  std::vector<size_t> heap;
  heap.reserve(sources.size());
  auto heap_cmp = [&](size_t a, size_t b) { return comes_before(b, a); };
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].Refill(batch_rows, meter)) {
      heap.push_back(i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), heap_cmp);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    const size_t i = heap.back();
    heap.pop_back();
    emit(sources[i]);
    ++sources[i].pos;
    if (sources[i].Refill(batch_rows, meter)) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  }
  for (auto& source : sources) {
    meter.Sub(source.batch.NumRows());
  }
}

// Merges `runs`, each sorted by `key_columns`, into `out`. While more than
// kSpillMergeFanIn runs remain, a level merges each group of kSpillMergeFanIn
// adjacent runs into one run (keeping run order, hence stability); the last
// merge appends to `out`, which as the operator's output sits outside the
// residency meter. Every merge gets a fresh processor, make_processor(final),
// with `final` set only for the last merge: Row(source, emit) sees each merged
// row in order, Flush(emit) follows the last one, and `emit(row)` writes a
// surviving row to the merge's destination.
template <typename MakeProcessor>
void MultiLevelMerge(std::vector<SpillRun> runs, const TempDir& dir,
                     std::span<const int> key_columns, bool ascending, int64_t budget,
                     SpillStats* stats, ResidencyMeter& meter, Relation* out,
                     const MakeProcessor& make_processor) {
  const int64_t batch_rows = std::max<int64_t>(1, budget / (kSpillMergeFanIn + 1));
  const auto merge = [&](std::span<const SpillRun> group, bool final, const auto& emit) {
    auto processor = make_processor(final);
    MergeRunStream(group, key_columns, ascending, batch_rows, meter,
                   [&](const MergeSource& s) { processor.Row(s, emit); });
    processor.Flush(emit);
  };
  int sequence = static_cast<int>(runs.size());  // Past the formed runs' names.
  while (static_cast<int64_t>(runs.size()) > kSpillMergeFanIn) {
    if (stats != nullptr) {
      ++stats->merge_passes;
    }
    std::vector<SpillRun> next;
    for (size_t lo = 0; lo < runs.size(); lo += kSpillMergeFanIn) {
      // Moved out, so the group's files unlink once it is merged.
      const size_t hi = std::min(runs.size(), lo + kSpillMergeFanIn);
      const std::vector<SpillRun> group(std::make_move_iterator(runs.begin() + lo),
                                        std::make_move_iterator(runs.begin() + hi));
      SpillRunWriter writer(dir, sequence++, group.front().cols, stats);
      merge(group, /*final=*/false,
            [&writer](std::span<const int64_t> row) { writer.AppendRow(row); });
      next.push_back(writer.Finish());
    }
    runs = std::move(next);
  }
  if (stats != nullptr) {
    ++stats->merge_passes;
  }
  merge(runs, /*final=*/true,
        [out](std::span<const int64_t> row) { out->AppendRow(row); });
}

// --- Merge processors --------------------------------------------------------------

// Emits every merged row (external sort) or, with `dedup`, each row that
// differs from the one before (external distinct: runs are deduped within, so
// duplicates across runs meet in the merge).
class CopyRows {
 public:
  CopyRows(int cols, bool dedup) : row_(static_cast<size_t>(cols)), dedup_(dedup) {}

  template <typename Emit>
  void Row(const MergeSource& s, const Emit& emit) {
    for (size_t c = 0; c < row_.size(); ++c) {
      row_[c] = s.Cell(static_cast<int>(c));
    }
    if (dedup_) {
      if (has_last_ && row_ == last_) {
        return;
      }
      last_ = row_;
      has_last_ = true;
    }
    emit(row_);
  }
  template <typename Emit>
  void Flush(const Emit& /*emit*/) {}

 private:
  std::vector<int64_t> row_;
  bool dedup_;
  std::vector<int64_t> last_;
  bool has_last_ = false;
};

// Combines adjacent equal-key rows (external aggregate). Rows carry the group
// key in columns [0, group_cols) and one group's AggAccumulator partial after
// it; the final merge finalizes each group, earlier levels keep the partial
// layout.
class CombineGroups {
 public:
  CombineGroups(int group_cols, AggKind kind, bool final)
      : group_cols_(group_cols),
        kind_(kind),
        final_(final),
        row_(static_cast<size_t>(group_cols + AggAccumulator::PartialWidth(kind))) {}

  template <typename Emit>
  void Row(const MergeSource& s, const Emit& emit) {
    bool same = has_current_;
    for (int c = 0; same && c < group_cols_; ++c) {
      same = s.Cell(c) == row_[static_cast<size_t>(c)];
    }
    int64_t cells[2] = {0, 0};
    for (int a = 0; a < AggAccumulator::PartialWidth(kind_); ++a) {
      cells[a] = s.Cell(group_cols_ + a);
    }
    const AggAccumulator partial = AggAccumulator::FromPartial(kind_, cells);
    if (same) {
      current_.Merge(partial);
      return;
    }
    Flush(emit);
    for (int c = 0; c < group_cols_; ++c) {
      row_[static_cast<size_t>(c)] = s.Cell(c);
    }
    current_ = partial;
    has_current_ = true;
  }

  template <typename Emit>
  void Flush(const Emit& emit) {
    if (!has_current_) {
      return;
    }
    has_current_ = false;
    if (final_) {
      row_[static_cast<size_t>(group_cols_)] = current_.Finalize(kind_);
      emit(std::span<const int64_t>(row_.data(), static_cast<size_t>(group_cols_) + 1));
    } else {
      current_.ToPartial(kind_, row_.data() + group_cols_);
      emit(std::span<const int64_t>(row_));
    }
  }

 private:
  int group_cols_;
  AggKind kind_;
  bool final_;
  std::vector<int64_t> row_;  // The current group's key, then its output cells.
  AggAccumulator current_;
  bool has_current_ = false;
};

}  // namespace

// --- External sort and distinct ---------------------------------------------------

Relation SortBy(const Relation& input, std::span<const int> columns, bool ascending,
                int64_t budget, SpillStats* stats) {
  const int64_t rows = input.NumRows();
  if (budget <= 0 || rows <= budget) {
    return ops::SortBy(input, columns, ascending);
  }
  ResidencyMeter meter(stats);
  TempDir dir;
  std::vector<SpillRun> runs =
      FormRuns(input, budget, dir, stats, meter, [&](const Relation& chunk) {
        return ops::SortBy(chunk, columns, ascending);
      });
  Relation out{input.schema()};
  out.Reserve(rows);
  const int cols = input.NumColumns();
  MultiLevelMerge(std::move(runs), dir, columns, ascending, budget, stats, meter, &out,
                  [cols](bool /*final*/) { return CopyRows(cols, /*dedup=*/false); });
  return out;
}

Relation Distinct(const Relation& input, std::span<const int> columns,
                  int64_t budget, SpillStats* stats) {
  const int64_t rows = input.NumRows();
  if (budget <= 0 || rows <= budget) {
    return ops::Distinct(input, columns);
  }
  ResidencyMeter meter(stats);
  TempDir dir;
  // Each run is ops::Distinct of its chunk: projected, sorted, deduped.
  std::vector<SpillRun> runs =
      FormRuns(input, budget, dir, stats, meter,
               [&](const Relation& chunk) { return ops::Distinct(chunk, columns); });
  Relation out = ops::Distinct(ops::Slice(input, 0, 0), columns);  // Its schema.
  const int cols = out.NumColumns();
  MultiLevelMerge(std::move(runs), dir, LeadingColumns(cols), /*ascending=*/true, budget,
                  stats, meter, &out,
                  [cols](bool /*final*/) { return CopyRows(cols, /*dedup=*/true); });
  return out;
}

// --- External (partial-spill) aggregate --------------------------------------------

struct Aggregator::Runs {
  explicit Runs(SpillStats* stats) : meter(stats) {}

  ResidencyMeter meter;
  TempDir dir;
  std::vector<SpillRun> files;
};

Aggregator::Aggregator(const Schema& input_schema, std::span<const int> group_columns,
                       AggKind kind, int agg_column, const std::string& output_name,
                       int64_t budget, SpillStats* stats)
    : groups_(input_schema, group_columns, kind, agg_column, output_name),
      budget_(budget),
      stats_(stats) {}

Aggregator::~Aggregator() = default;

void Aggregator::Consume(const BatchView& batch) {
  if (budget_ <= 0) {
    groups_.Consume(batch, 0, batch.rows);
    return;
  }
  const uint8_t* const mask = batch.mask;
  int64_t lo = 0;
  while (true) {
    // A cut waits for a further counted row, so rows the mask drops between
    // two chunks never start one.
    while (lo < batch.rows && mask != nullptr && mask[lo] == 0) {
      ++lo;
    }
    if (lo == batch.rows) {
      return;
    }
    if (chunk_rows_ == budget_) {
      CutRun();
    }
    // The chunk ends right after its budget-th counted row.
    const int64_t want = budget_ - chunk_rows_;
    int64_t hi = lo;
    int64_t took = 0;
    if (mask == nullptr) {
      hi = std::min(batch.rows, lo + want);
      took = hi - lo;
    } else {
      for (; hi < batch.rows && took < want; ++hi) {
        took += mask[hi] != 0 ? 1 : 0;
      }
    }
    groups_.Consume(batch, lo, hi);
    chunk_rows_ += took;
    lo = hi;
  }
}

void Aggregator::CutRun() {
  if (runs_ == nullptr) {
    runs_ = std::make_unique<Runs>(stats_);
  }
  // The chunk's group map and its sorted partial coexist while the run forms.
  const int64_t groups = groups_.NumGroups();
  runs_->meter.Add(2 * groups);
  const Relation partial = groups_.FinishPartial();
  SpillRunWriter writer(runs_->dir, static_cast<int>(runs_->files.size()),
                        partial.NumColumns(), stats_);
  writer.Append(partial);
  runs_->files.push_back(writer.Finish());
  runs_->meter.Sub(2 * groups);
  chunk_rows_ = 0;
}

Relation Aggregator::Finish() {
  if (runs_ == nullptr) {
    return groups_.Finish();  // Within budget: the in-memory aggregate.
  }
  CutRun();  // The last chunk, never empty: a cut waits for a further row.
  const int group_cols = groups_.output_schema().NumColumns() - 1;
  const AggKind kind = groups_.kind();
  Relation out{groups_.output_schema()};
  MultiLevelMerge(std::move(runs_->files), runs_->dir, LeadingColumns(group_cols),
                  /*ascending=*/true, budget_, stats_, runs_->meter, &out,
                  [&](bool final) { return CombineGroups(group_cols, kind, final); });
  runs_.reset();
  return out;
}

Relation Aggregate(const Relation& input, std::span<const int> group_columns,
                   AggKind kind, int agg_column, const std::string& output_name,
                   int64_t budget, SpillStats* stats) {
  Aggregator aggregator(input.schema(), group_columns, kind, agg_column, output_name,
                        budget, stats);
  aggregator.Consume(BatchView::Of(input));
  return aggregator.Finish();
}

// --- Grace hash join ---------------------------------------------------------------

namespace {

// Number of hash partitions per Grace level; matches the merge fan-in so the
// priced SpillMergePasses(right_rows, budget) equals the recursion depth for
// uniformly distributed keys.
constexpr int kGraceFanOut = static_cast<int>(kSpillMergeFanIn);

// One Grace join's state while it partitions both sides and solves the leaves.
struct GraceJoin {
  // Where a left row's matched right ids sit in `right_ids`: they are
  // contiguous and ascending, because the row is probed in one leaf only.
  struct Matches {
    int64_t begin = 0;
    int64_t count = 0;
  };

  GraceJoin(int64_t left_rows, int64_t budget, SpillStats* stats)
      : budget(budget), stats(stats), meter(stats),
        matches(static_cast<size_t>(left_rows)) {}

  // Scatters rows into kGraceFanOut partitions by the level-salted hash of
  // their key cells. A partition row holds the key cells, then the row's id,
  // and rows keep their order, so ids ascend within every partition. Level 0
  // scatters the borrowed `input` on `keys`, and a row's id is its index.
  // Deeper levels re-read the partition `parent` in budget-row batches.
  std::vector<SpillRun> Scatter(int level, const SpillRun* parent,
                                const Relation* input = nullptr,
                                std::span<const int> keys = {}) {
    const int key_cols =
        parent != nullptr ? parent->cols - 1 : static_cast<int>(keys.size());
    std::vector<SpillRunWriter> parts;
    parts.reserve(kGraceFanOut);
    for (int b = 0; b < kGraceFanOut; ++b) {
      parts.emplace_back(dir, sequence++, key_cols + 1, stats);
    }
    const uint64_t salt = 0x436f6e636c617665ULL ^ (0x9e3779b97f4a7c15ULL * (level + 1));
    std::vector<const int64_t*> key_data(static_cast<size_t>(key_cols));
    std::vector<int64_t> row(static_cast<size_t>(key_cols) + 1);
    const auto scatter = [&](const Relation& rows, std::span<const int> row_keys,
                             const int64_t* ids) {
      for (int c = 0; c < key_cols; ++c) {
        key_data[static_cast<size_t>(c)] = rows.ColumnSpan(row_keys[c]).data();
      }
      for (int64_t r = 0; r < rows.NumRows(); ++r) {
        uint64_t h = salt;
        for (int c = 0; c < key_cols; ++c) {
          row[static_cast<size_t>(c)] = key_data[static_cast<size_t>(c)][r];
          // One SplitMix64 step per key cell (the finalizer under rng.h's
          // HashChainStep); the salt re-partitions a bucket under an
          // independent hash at every level.
          h = SplitMixFinalize((h ^ static_cast<uint64_t>(row[static_cast<size_t>(c)])) +
                               0x9e3779b97f4a7c15ULL);
        }
        row[static_cast<size_t>(key_cols)] = ids != nullptr ? ids[r] : r;
        parts[h % kGraceFanOut].AppendRow(row);
      }
    };
    if (parent == nullptr) {
      scatter(*input, keys, nullptr);
    } else {
      SpillRunReader reader(*parent);
      const std::vector<int> run_keys = LeadingColumns(key_cols);
      while (reader.remaining() > 0) {
        const Relation batch = reader.ReadBatch(budget);
        meter.Add(batch.NumRows());
        scatter(batch, run_keys, batch.ColumnSpan(key_cols).data());
        meter.Sub(batch.NumRows());
      }
    }
    std::vector<SpillRun> runs;
    runs.reserve(kGraceFanOut);
    for (SpillRunWriter& part : parts) {
      runs.push_back(part.Finish());
    }
    return runs;
  }

  // Joins one (left partition, right partition) pair at `level`. A solved
  // leaf appends its matched right ids to `right_ids`, left row by left row,
  // and records each left row's run of them in `matches`.
  void Solve(SpillRun left, SpillRun right, int level) {
    if (left.rows == 0 || right.rows == 0) {
      return;
    }
    if (right.rows > budget && level < kMaxGraceDepth) {
      std::vector<SpillRun> lb = Scatter(level + 1, &left);
      std::vector<SpillRun> rb = Scatter(level + 1, &right);
      // The parent files unlink before the recursion, so disk usage stays
      // bounded by two live levels.
      left = SpillRun{};
      right = SpillRun{};
      for (size_t b = 0; b < lb.size(); ++b) {
        Solve(std::move(lb[b]), std::move(rb[b]), level + 1);
      }
      return;
    }
    // Build on the right partition (<= budget rows, or at the depth cap a
    // bucket of duplicate-heavy keys, whatever its size), probe the left
    // partition streamed in budget-row batches.
    const int key_cols = right.cols - 1;
    const std::vector<int> keys = LeadingColumns(key_cols);
    meter.Add(right.rows);
    const Relation build = SpillRunReader(right).ReadBatch(right.rows);
    const auto build_ids = build.ColumnSpan(key_cols);
    const HashIndex index(build, keys);
    SpillRunReader left_reader(left);
    while (left_reader.remaining() > 0) {
      const Relation probe = left_reader.ReadBatch(budget);
      meter.Add(probe.NumRows());
      const auto probe_ids = probe.ColumnSpan(key_cols);
      // ops::JoinRowPairs probes left rows in order and lists right matches
      // ascending by build position; positions map to ascending ids because
      // the scatter kept row order at every level.
      ops::JoinRowPairs(probe, keys, index, &lrows, &rrows);
      for (size_t i = 0; i < lrows.size(); ++i) {
        Matches& m = matches[static_cast<size_t>(probe_ids[lrows[i]])];
        if (m.count++ == 0) {
          m.begin = static_cast<int64_t>(right_ids.size());
        }
        right_ids.push_back(build_ids[rrows[i]]);
      }
      meter.Sub(probe.NumRows());
    }
    meter.Sub(right.rows);
  }

  int64_t budget;
  SpillStats* stats;
  ResidencyMeter meter;
  TempDir dir;
  int sequence = 0;
  std::vector<Matches> matches;    // One per left row.
  std::vector<int64_t> right_ids;  // Every leaf's matches, leaf after leaf.
  // A probe batch's pair positions; kept across leaves to reuse the buffers.
  std::vector<int64_t> lrows;
  std::vector<int64_t> rrows;
};

// The join's (left row, right row) pair stream in exactly ops::JoinRowPairs
// order, Grace-partitioned because the build (right) side exceeds the budget.
void GraceJoinRowPairs(const Relation& left, const Relation& right,
                       std::span<const int> left_keys,
                       std::span<const int> right_keys, int64_t budget,
                       SpillStats* stats, std::vector<int64_t>* left_rows,
                       std::vector<int64_t>* right_rows) {
  GraceJoin grace(left.NumRows(), budget, stats);
  std::vector<SpillRun> lb = grace.Scatter(0, nullptr, &left, left_keys);
  std::vector<SpillRun> rb = grace.Scatter(0, nullptr, &right, right_keys);
  if (stats != nullptr) {
    ++stats->merge_passes;
  }
  for (size_t b = 0; b < lb.size(); ++b) {
    grace.Solve(std::move(lb[b]), std::move(rb[b]), /*level=*/1);
  }
  // Each left row's matches sit in one leaf, ascending by right row, so
  // placing them by left row restores ops::JoinRowPairs' order in O(pairs +
  // left rows). The pair lists are output-sized and `matches` is sized by the
  // borrowed left input, so, like the output and the inputs, they sit outside
  // the residency meter.
  left_rows->clear();
  right_rows->clear();
  left_rows->reserve(grace.right_ids.size());
  right_rows->reserve(grace.right_ids.size());
  for (int64_t l = 0; l < left.NumRows(); ++l) {
    const GraceJoin::Matches& m = grace.matches[static_cast<size_t>(l)];
    for (int64_t i = m.begin; i < m.begin + m.count; ++i) {
      left_rows->push_back(l);
      right_rows->push_back(grace.right_ids[static_cast<size_t>(i)]);
    }
  }
}

}  // namespace

Relation Join(const Relation& left, const Relation& right,
              std::span<const int> left_keys, std::span<const int> right_keys,
              int64_t budget, SpillStats* stats) {
  if (budget <= 0 || right.NumRows() <= budget) {
    return ops::Join(left, right, left_keys, right_keys);
  }
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  GraceJoinRowPairs(left, right, left_keys, right_keys, budget, stats,
                    &left_rows, &right_rows);
  return ops::GatherJoinRows(left, right, left_keys, right_keys, left_rows,
                             right_rows);
}

}  // namespace spill
}  // namespace conclave
