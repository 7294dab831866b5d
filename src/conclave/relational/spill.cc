#include "conclave/relational/spill.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
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

// One spilled run (or Grace partition) on disk: row-major int64 cells.
struct SpillRun {
  SpillFile file;
  int64_t rows = 0;
  int cols = 0;
};

class SpillRunWriter {
 public:
  SpillRunWriter(const TempDir& dir, int sequence, int cols, SpillStats* stats)
      : file_(StrFormat("%s/run-%d", dir.path().c_str(), sequence)),
        cols_(cols),
        stats_(stats) {
    f_ = std::fopen(file_.path().c_str(), "wb");
    CONCLAVE_CHECK(f_ != nullptr);
  }
  ~SpillRunWriter() {
    if (f_ != nullptr) {
      std::fclose(f_);
    }
  }
  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  void AppendRow(std::span<const int64_t> row) {
    CONCLAVE_DCHECK(static_cast<int>(row.size()) == cols_);
    const size_t written = std::fwrite(row.data(), sizeof(int64_t), row.size(), f_);
    CONCLAVE_CHECK_EQ(written, row.size());
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
    const size_t written =
        std::fwrite(scratch_.data(), sizeof(int64_t), scratch_.size(), f_);
    CONCLAVE_CHECK_EQ(written, scratch_.size());
    rows_ += n;
  }

  int64_t rows() const { return rows_; }

  SpillRun Finish() {
    CONCLAVE_CHECK_EQ(std::fclose(f_), 0);
    f_ = nullptr;
    if (stats_ != nullptr) {
      stats_->spilled_rows += rows_;
      stats_->spilled_bytes += rows_ * cols_ * static_cast<int64_t>(sizeof(int64_t));
      ++stats_->runs_written;
    }
    SpillRun run;
    run.file = std::move(file_);
    run.rows = rows_;
    run.cols = cols_;
    return run;
  }

 private:
  SpillFile file_;
  std::FILE* f_ = nullptr;
  int cols_;
  int64_t rows_ = 0;
  SpillStats* stats_;
  std::vector<int64_t> scratch_;
};

class SpillRunReader {
 public:
  SpillRunReader(const SpillRun& run, Schema schema)
      : schema_(std::move(schema)), cols_(run.cols), remaining_(run.rows) {
    CONCLAVE_CHECK_EQ(schema_.NumColumns(), cols_);
    f_ = std::fopen(run.file.path().c_str(), "rb");
    CONCLAVE_CHECK(f_ != nullptr);
  }
  ~SpillRunReader() {
    if (f_ != nullptr) {
      std::fclose(f_);
    }
  }
  SpillRunReader(const SpillRunReader&) = delete;
  SpillRunReader& operator=(const SpillRunReader&) = delete;

  int64_t remaining() const { return remaining_; }

  // De-interleaves the next <= max_rows rows into a columnar batch; empty batch
  // at end of stream.
  Relation ReadBatch(int64_t max_rows) {
    const int64_t n = std::min(remaining_, max_rows);
    Relation batch{schema_};
    batch.Resize(n);
    if (n == 0) {
      return batch;
    }
    scratch_.resize(static_cast<size_t>(n) * cols_);
    const size_t read = std::fread(scratch_.data(), sizeof(int64_t), scratch_.size(), f_);
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
  Schema schema_;
  std::FILE* f_ = nullptr;
  int cols_;
  int64_t remaining_;
  std::vector<int64_t> scratch_;
};

// --- K-way merge over spilled runs -------------------------------------------------
//
// A binary heap keyed on each stream's current head row, ties resolving to the
// lower stream index, so merging contiguous stable-sorted runs reproduces the
// global stable sort.

struct MergeSource {
  std::unique_ptr<SpillRunReader> reader;
  Relation batch;
  int64_t pos = 0;

  bool Refill(int64_t batch_rows, ResidencyMeter& meter) {
    if (pos < batch.NumRows()) {
      return true;
    }
    meter.Sub(batch.NumRows());
    batch = reader->ReadBatch(batch_rows);
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
void MergeRunStream(std::vector<SpillRun>& runs, const Schema& schema,
                    std::span<const int> key_columns, bool ascending,
                    int64_t batch_rows, ResidencyMeter& meter, Emit&& emit) {
  const size_t k = runs.size();
  std::vector<MergeSource> sources(k);
  for (size_t i = 0; i < k; ++i) {
    sources[i].reader = std::make_unique<SpillRunReader>(runs[i], schema);
  }
  // comes_before(a, b): strict ordering with lower-index tie-break.
  auto comes_before = [&](size_t a, size_t b) {
    const int cmp = CompareHeads(sources[a], sources[b], key_columns, ascending);
    return cmp != 0 ? cmp < 0 : a < b;
  };
  // Binary min-heap of live source indices (std::priority_queue is a max-heap;
  // invert the comparator).
  std::vector<size_t> heap;
  heap.reserve(k);
  auto heap_cmp = [&](size_t a, size_t b) { return comes_before(b, a); };
  for (size_t i = 0; i < k; ++i) {
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

// Row destinations for merge output: an intermediate run file or the final
// relation. The final relation is the operator's output and therefore outside
// the residency meter; the `buffered` row buffer inside sinks is O(1) rows.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void Append(std::span<const int64_t> row) = 0;
};

class FileSink : public RowSink {
 public:
  explicit FileSink(SpillRunWriter* writer) : writer_(writer) {}
  void Append(std::span<const int64_t> row) override { writer_->AppendRow(row); }

 private:
  SpillRunWriter* writer_;
};

class RelationSink : public RowSink {
 public:
  explicit RelationSink(Relation* out) : out_(out) {}
  void Append(std::span<const int64_t> row) override { out_->AppendRow(row); }

 private:
  Relation* out_;
};

// Reduces `runs` level by level until at most kSpillMergeFanIn remain, merging
// adjacent groups (preserving run order, hence stability), then merges the
// final group into `final_emit`. `per_row` post-processes the merged stream
// (identity for sort, dedup for distinct, combine for aggregate); it receives
// the sink to write surviving rows to and must flush its own O(1) tail state
// when the sink changes — we re-create the processor per merge for that.
template <typename MakeProcessor>
void MultiLevelMerge(std::vector<SpillRun> runs, const TempDir& dir,
                     const Schema& schema, std::span<const int> key_columns,
                     bool ascending, int64_t budget, SpillStats* stats,
                     ResidencyMeter& meter, Relation* out,
                     MakeProcessor&& make_processor) {
  const int64_t batch_rows = std::max<int64_t>(1, budget / (kSpillMergeFanIn + 1));
  int sequence = 1 << 20;  // Distinct from run-formation sequence numbers.
  while (static_cast<int64_t>(runs.size()) > kSpillMergeFanIn) {
    if (stats != nullptr) {
      ++stats->merge_passes;
    }
    std::vector<SpillRun> next;
    for (size_t lo = 0; lo < runs.size(); lo += kSpillMergeFanIn) {
      const size_t hi = std::min(runs.size(), lo + kSpillMergeFanIn);
      std::vector<SpillRun> group(std::make_move_iterator(runs.begin() + lo),
                                  std::make_move_iterator(runs.begin() + hi));
      SpillRunWriter writer(dir, sequence++, schema.NumColumns(), stats);
      FileSink sink(&writer);
      auto processor = make_processor(&sink);
      MergeRunStream(group, schema, key_columns, ascending, batch_rows, meter,
                     [&](const MergeSource& s) { processor->Row(s); });
      processor->Finish();
      next.push_back(writer.Finish());
    }
    runs = std::move(next);
  }
  if (stats != nullptr) {
    ++stats->merge_passes;
  }
  RelationSink sink(out);
  auto processor = make_processor(&sink);
  MergeRunStream(runs, schema, key_columns, ascending, batch_rows, meter,
                 [&](const MergeSource& s) { processor->Row(s); });
  processor->Finish();
}

// --- Per-row merge processors ------------------------------------------------------

// Passes every merged row through (external sort).
class PassThroughProcessor {
 public:
  PassThroughProcessor(RowSink* sink, int cols) : sink_(sink), row_(cols) {}
  void Row(const MergeSource& s) {
    for (size_t c = 0; c < row_.size(); ++c) {
      row_[c] = s.Cell(static_cast<int>(c));
    }
    sink_->Append(row_);
  }
  void Finish() {}

 private:
  RowSink* sink_;
  std::vector<int64_t> row_;
};

// Drops rows equal to the previously emitted row (external distinct; runs are
// already internally deduped, so cross-run duplicates are adjacent after merge).
class DedupProcessor {
 public:
  DedupProcessor(RowSink* sink, int cols) : sink_(sink), row_(cols) {}
  void Row(const MergeSource& s) {
    bool is_new = !has_last_;
    for (size_t c = 0; c < row_.size(); ++c) {
      row_[c] = s.Cell(static_cast<int>(c));
      if (!is_new && row_[c] != last_[c]) {
        is_new = true;
      }
    }
    if (is_new) {
      sink_->Append(row_);
      last_ = row_;
      has_last_ = true;
    }
  }
  void Finish() {}

 private:
  RowSink* sink_;
  std::vector<int64_t> row_;
  std::vector<int64_t> last_;
  bool has_last_ = false;
};

// Combines adjacent equal-key rows (external aggregate). Rows carry the group
// key in columns [0, group_cols) and one group's AggAccumulator partial after
// it; the final level finalizes each group, intermediate levels keep the
// partial layout.
class CombineProcessor {
 public:
  CombineProcessor(RowSink* sink, int group_cols, AggKind kind, bool finalize)
      : sink_(sink),
        group_cols_(group_cols),
        kind_(kind),
        finalize_(finalize),
        row_(static_cast<size_t>(group_cols + AggAccumulator::PartialWidth(kind))) {}

  void Row(const MergeSource& s) {
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
    Finish();
    for (int c = 0; c < group_cols_; ++c) {
      row_[static_cast<size_t>(c)] = s.Cell(c);
    }
    current_ = partial;
    has_current_ = true;
  }

  void Finish() {
    if (!has_current_) {
      return;
    }
    has_current_ = false;
    if (finalize_) {
      row_[static_cast<size_t>(group_cols_)] = current_.Finalize(kind_);
      sink_->Append(std::span<const int64_t>(row_.data(),
                                             static_cast<size_t>(group_cols_) + 1));
    } else {
      current_.ToPartial(kind_, row_.data() + group_cols_);
      sink_->Append(row_);
    }
  }

 private:
  RowSink* sink_;
  int group_cols_;
  AggKind kind_;
  bool finalize_;
  std::vector<int64_t> row_;  // The current group's key, then its output cells.
  AggAccumulator current_;
  bool has_current_ = false;
};

}  // namespace

// --- External sort -----------------------------------------------------------------

Relation SortBy(const Relation& input, std::span<const int> columns, bool ascending,
                int64_t budget, SpillStats* stats) {
  const int64_t rows = input.NumRows();
  if (budget <= 0 || rows <= budget) {
    return ops::SortBy(input, columns, ascending);
  }
  ResidencyMeter meter(stats);
  TempDir dir;
  std::vector<SpillRun> runs;
  for (int64_t lo = 0; lo < rows; lo += budget) {
    const int64_t hi = std::min(rows, lo + budget);
    meter.Add(hi - lo);
    Relation chunk = ops::Slice(input, lo, hi);
    meter.Add(hi - lo);  // Sorted copy coexists with the slice: 2x chunk peak.
    Relation sorted = ops::SortBy(chunk, columns, ascending);
    SpillRunWriter writer(dir, static_cast<int>(runs.size()), input.NumColumns(),
                          stats);
    writer.Append(sorted);
    runs.push_back(writer.Finish());
    meter.Sub(2 * (hi - lo));
  }
  Relation out{input.schema()};
  out.Reserve(rows);
  MultiLevelMerge(std::move(runs), dir, input.schema(), columns, ascending, budget,
                  stats, meter, &out, [&](RowSink* sink) {
                    return std::make_unique<PassThroughProcessor>(
                        sink, input.NumColumns());
                  });
  return out;
}

// --- External distinct -------------------------------------------------------------

Relation Distinct(const Relation& input, std::span<const int> columns,
                  int64_t budget, SpillStats* stats) {
  const int64_t rows = input.NumRows();
  if (budget <= 0 || rows <= budget) {
    return ops::Distinct(input, columns);
  }
  ResidencyMeter meter(stats);
  TempDir dir;
  std::vector<SpillRun> runs;
  Schema run_schema;
  std::vector<int> merge_columns;
  for (int64_t lo = 0; lo < rows; lo += budget) {
    const int64_t hi = std::min(rows, lo + budget);
    meter.Add(hi - lo);
    Relation chunk = ops::Slice(input, lo, hi);
    meter.Add(hi - lo);
    // Each run is ops::Distinct of its chunk: projected, sorted, deduped.
    Relation run = ops::Distinct(chunk, columns);
    if (runs.empty()) {
      run_schema = run.schema();
      merge_columns.resize(static_cast<size_t>(run.NumColumns()));
      for (size_t c = 0; c < merge_columns.size(); ++c) {
        merge_columns[c] = static_cast<int>(c);
      }
    }
    SpillRunWriter writer(dir, static_cast<int>(runs.size()), run.NumColumns(),
                          stats);
    writer.Append(run);
    runs.push_back(writer.Finish());
    meter.Sub(2 * (hi - lo));
  }
  Relation out{run_schema};
  const int cols = run_schema.NumColumns();
  MultiLevelMerge(std::move(runs), dir, run_schema, merge_columns,
                  /*ascending=*/true, budget, stats, meter, &out,
                  [&](RowSink* sink) {
                    return std::make_unique<DedupProcessor>(sink, cols);
                  });
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
  std::vector<int> key_columns(static_cast<size_t>(group_cols));
  for (int c = 0; c < group_cols; ++c) {
    key_columns[static_cast<size_t>(c)] = c;
  }
  // Intermediate merge levels combine partials but keep the run layout; only
  // the final level (into `out`) finalizes. MultiLevelMerge hands FileSinks to
  // intermediate levels and the RelationSink last, so the processor
  // distinguishes them by sink identity.
  Relation out{groups_.output_schema()};
  const AggKind kind = groups_.kind();
  MultiLevelMerge(std::move(runs_->files), runs_->dir, groups_.partial_schema(),
                  key_columns, /*ascending=*/true, budget_, stats_, runs_->meter,
                  &out, [&](RowSink* sink) {
                    const bool is_final = dynamic_cast<RelationSink*>(sink) != nullptr;
                    return std::make_unique<CombineProcessor>(sink, group_cols, kind,
                                                              is_final);
                  });
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

uint64_t GraceHashRow(const std::vector<std::span<const int64_t>>& key_cols,
                      int64_t row, int level) {
  uint64_t h = 0x436f6e636c617665ULL ^ (0x9e3779b97f4a7c15ULL * (level + 1));
  for (const auto& col : key_cols) {
    // One SplitMix64 step (same mixer family as ops.cc's KeyHash), salted per
    // recursion level so a bucket re-partitions under an independent hash.
    h = SplitMixFinalize((h ^ static_cast<uint64_t>(col[row])) +
                         0x9e3779b97f4a7c15ULL);
  }
  return h;
}

// A Grace partition file holds (key columns..., global row id) rows. The scatter
// walks rows in order, so ids ascend within every partition at every level.
Schema GracePartitionSchema(int key_cols) {
  std::vector<ColumnDef> defs;
  defs.reserve(static_cast<size_t>(key_cols) + 1);
  for (int c = 0; c < key_cols; ++c) {
    defs.emplace_back(StrFormat("__spill_key%d", c));
  }
  defs.emplace_back("__spill_gid");
  return Schema(std::move(defs));
}

struct GraceBuckets {
  std::vector<SpillRun> runs;  // kGraceFanOut partitions.
};

// Scatters (key, id) rows from `reader` (a parent partition file) into
// kGraceFanOut child partition files under the level-salted hash.
GraceBuckets PartitionFromRun(const SpillRun& parent, const Schema& schema,
                              const TempDir& dir, int* sequence, int level,
                              int64_t budget, SpillStats* stats,
                              ResidencyMeter& meter) {
  const int key_cols = schema.NumColumns() - 1;
  std::vector<std::unique_ptr<SpillRunWriter>> writers;
  writers.reserve(kGraceFanOut);
  for (int b = 0; b < kGraceFanOut; ++b) {
    writers.push_back(
        std::make_unique<SpillRunWriter>(dir, (*sequence)++, key_cols + 1, stats));
  }
  SpillRunReader reader(parent, schema);
  const int64_t batch_rows = std::max<int64_t>(1, budget);
  std::vector<int64_t> row(static_cast<size_t>(key_cols) + 1);
  while (reader.remaining() > 0) {
    Relation batch = reader.ReadBatch(batch_rows);
    meter.Add(batch.NumRows());
    std::vector<std::span<const int64_t>> key_spans;
    key_spans.reserve(static_cast<size_t>(key_cols));
    for (int c = 0; c < key_cols; ++c) {
      key_spans.push_back(batch.ColumnSpan(c));
    }
    const auto ids = batch.ColumnSpan(key_cols);
    for (int64_t r = 0; r < batch.NumRows(); ++r) {
      const int bucket =
          static_cast<int>(GraceHashRow(key_spans, r, level) % kGraceFanOut);
      for (int c = 0; c < key_cols; ++c) {
        row[static_cast<size_t>(c)] = key_spans[static_cast<size_t>(c)][r];
      }
      row[static_cast<size_t>(key_cols)] = ids[r];
      writers[static_cast<size_t>(bucket)]->AppendRow(row);
    }
    meter.Sub(batch.NumRows());
  }
  GraceBuckets buckets;
  buckets.runs.reserve(kGraceFanOut);
  for (auto& writer : writers) {
    buckets.runs.push_back(writer->Finish());
  }
  return buckets;
}

// Scatters (key, id) rows straight from a borrowed input relation (level 0).
GraceBuckets PartitionFromRelation(const Relation& input,
                                   std::span<const int> key_columns,
                                   const TempDir& dir, int* sequence,
                                   int64_t /*budget*/, SpillStats* stats) {
  const int key_cols = static_cast<int>(key_columns.size());
  std::vector<std::unique_ptr<SpillRunWriter>> writers;
  writers.reserve(kGraceFanOut);
  for (int b = 0; b < kGraceFanOut; ++b) {
    writers.push_back(
        std::make_unique<SpillRunWriter>(dir, (*sequence)++, key_cols + 1, stats));
  }
  std::vector<std::span<const int64_t>> key_spans;
  key_spans.reserve(static_cast<size_t>(key_cols));
  for (int c : key_columns) {
    key_spans.push_back(input.ColumnSpan(c));
  }
  std::vector<int64_t> row(static_cast<size_t>(key_cols) + 1);
  for (int64_t r = 0; r < input.NumRows(); ++r) {
    const int bucket = static_cast<int>(GraceHashRow(key_spans, r, 0) % kGraceFanOut);
    for (int c = 0; c < key_cols; ++c) {
      row[static_cast<size_t>(c)] = key_spans[static_cast<size_t>(c)][r];
    }
    row[static_cast<size_t>(key_cols)] = r;
    writers[static_cast<size_t>(bucket)]->AppendRow(row);
  }
  GraceBuckets buckets;
  buckets.runs.reserve(kGraceFanOut);
  for (auto& writer : writers) {
    buckets.runs.push_back(writer->Finish());
  }
  return buckets;
}

// Joins one (left partition, right partition) pair. Appends a pair vector
// (sorted by left gid, right gid ascending within) per solved leaf into `leaf_pairs`.
void SolveGraceBucket(SpillRun left, SpillRun right, const Schema& schema,
                      const TempDir& dir, int* sequence, int level, int64_t budget,
                      SpillStats* stats, ResidencyMeter& meter,
                      std::vector<std::vector<std::pair<int64_t, int64_t>>>* leaf_pairs) {
  if (left.rows == 0 || right.rows == 0) {
    return;
  }
  const int key_cols = schema.NumColumns() - 1;
  if (right.rows > budget && level < kMaxGraceDepth) {
    GraceBuckets lb =
        PartitionFromRun(left, schema, dir, sequence, level + 1, budget, stats, meter);
    GraceBuckets rb =
        PartitionFromRun(right, schema, dir, sequence, level + 1, budget, stats, meter);
    // Parent files are no longer needed; let them unlink before recursing so
    // disk usage stays bounded by two live levels.
    left = SpillRun{};
    right = SpillRun{};
    for (int b = 0; b < kGraceFanOut; ++b) {
      SolveGraceBucket(std::move(lb.runs[static_cast<size_t>(b)]),
                       std::move(rb.runs[static_cast<size_t>(b)]), schema, dir,
                       sequence, level + 1, budget, stats, meter, leaf_pairs);
    }
    return;
  }
  // Build on the right partition (<= budget rows, or a duplicate-heavy key at
  // the depth cap), probe the left partition streamed in budget-sized batches.
  SpillRunReader right_reader(right, schema);
  meter.Add(right.rows);
  Relation build = right_reader.ReadBatch(right.rows);
  std::vector<int> bucket_keys(static_cast<size_t>(key_cols));
  for (int c = 0; c < key_cols; ++c) {
    bucket_keys[static_cast<size_t>(c)] = c;
  }
  const auto right_gids = build.ColumnSpan(key_cols);
  const HashIndex index(build, bucket_keys);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  SpillRunReader left_reader(left, schema);
  const int64_t batch_rows = std::max<int64_t>(1, budget);
  std::vector<int64_t> lrows;
  std::vector<int64_t> rrows;
  while (left_reader.remaining() > 0) {
    Relation probe = left_reader.ReadBatch(batch_rows);
    meter.Add(probe.NumRows());
    const auto left_gids = probe.ColumnSpan(key_cols);
    // ops::JoinRowPairs probes left rows in order and lists right matches
    // ascending by build position; positions map to ascending gids because the
    // scatter preserved row order at every level.
    ops::JoinRowPairs(probe, bucket_keys, index, &lrows, &rrows);
    pairs.reserve(pairs.size() + lrows.size());
    for (size_t i = 0; i < lrows.size(); ++i) {
      pairs.emplace_back(left_gids[lrows[i]], right_gids[rrows[i]]);
    }
    meter.Sub(probe.NumRows());
  }
  meter.Sub(right.rows);
  if (!pairs.empty()) {
    leaf_pairs->push_back(std::move(pairs));
  }
}

// The join's (left row, right row) pair stream in exactly ops::JoinRowPairs
// order, Grace-partitioned because the build (right) side exceeds the budget.
void GraceJoinRowPairs(const Relation& left, const Relation& right,
                       std::span<const int> left_keys,
                       std::span<const int> right_keys, int64_t budget,
                       SpillStats* stats, std::vector<int64_t>* left_rows,
                       std::vector<int64_t>* right_rows) {
  ResidencyMeter meter(stats);
  TempDir dir;
  int sequence = 0;
  const Schema schema = GracePartitionSchema(static_cast<int>(left_keys.size()));
  GraceBuckets lb = PartitionFromRelation(left, left_keys, dir, &sequence, budget, stats);
  GraceBuckets rb =
      PartitionFromRelation(right, right_keys, dir, &sequence, budget, stats);
  if (stats != nullptr) {
    ++stats->merge_passes;
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> leaf_pairs;
  for (int b = 0; b < kGraceFanOut; ++b) {
    SolveGraceBucket(std::move(lb.runs[static_cast<size_t>(b)]),
                     std::move(rb.runs[static_cast<size_t>(b)]), schema, dir,
                     &sequence, 1, budget, stats, meter, &leaf_pairs);
  }
  // Every left gid lives in exactly one leaf, so a k-way merge by (left gid,
  // right gid) across the leaf pair vectors reproduces ops::JoinRowPairs'
  // order. The pair vectors are output-sized and, like the output, sit outside the
  // residency meter.
  size_t total = 0;
  for (const auto& pairs : leaf_pairs) {
    total += pairs.size();
  }
  left_rows->clear();
  right_rows->clear();
  left_rows->reserve(total);
  right_rows->reserve(total);
  std::vector<size_t> pos(leaf_pairs.size(), 0);
  auto comes_before = [&](size_t a, size_t b) {
    const auto& pa = leaf_pairs[a][pos[a]];
    const auto& pb = leaf_pairs[b][pos[b]];
    return pa != pb ? pa < pb : a < b;
  };
  std::vector<size_t> heap;
  auto heap_cmp = [&](size_t a, size_t b) { return comes_before(b, a); };
  for (size_t i = 0; i < leaf_pairs.size(); ++i) {
    if (!leaf_pairs[i].empty()) {
      heap.push_back(i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), heap_cmp);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_cmp);
    const size_t i = heap.back();
    heap.pop_back();
    const auto& pair = leaf_pairs[i][pos[i]];
    left_rows->push_back(pair.first);
    right_rows->push_back(pair.second);
    if (++pos[i] < leaf_pairs[i].size()) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
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
