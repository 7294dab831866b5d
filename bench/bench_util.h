// Shared helpers for the figure-reproduction benches: aligned table printing with the
// paper's conventions (log-scale size sweeps; DNF rows for runs past the time budget;
// OOM rows for simulated memory exhaustion), machine-readable JSON result dumps, and
// bench-process allocator tuning.
#ifndef CONCLAVE_BENCH_BENCH_UTIL_H_
#define CONCLAVE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "conclave/common/strings.h"

namespace conclave {
namespace bench {

// Runs past this simulated budget print as DNF, mirroring the paper's "did not
// complete within two hours" cutoffs while keeping real CPU time bounded.
inline constexpr double kTimeBudgetSeconds = 7200.0;

// Figure benches churn through relation-sized buffers (hundreds of MB at the top of
// a sweep). glibc hands allocations above its mmap threshold straight to the kernel
// and unmaps them on free, so every large temporary costs a fresh round of page
// faults — the dominant wall-clock term at the 10M-row points, and a noisy one.
// Raising the thresholds keeps freed blocks on the heap for reuse. Benches opt in at
// the top of main(); the library never touches process-wide allocator policy.
inline void TuneAllocatorForBench() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

// One measured cell: seconds of simulated (virtual) time, wall-clock seconds,
// a count (rows, bytes), or a marker (DNF / OOM / skipped).
struct Cell {
  enum class Kind { kSeconds, kWallSeconds, kCount, kDnf, kOom, kSkip };
  Kind kind = Kind::kSkip;
  double seconds = 0;  // kSeconds: virtual seconds; kWallSeconds: wall seconds.
  // kWallSeconds: `seconds` is the median of the timed runs, and these are
  // their first and third quartiles.
  double q1 = 0;
  double q3 = 0;
  int64_t count = 0;
  bool modeled = false;  // Analytic extrapolation, not an executed run.
  // Priced spill I/O charge (DESIGN.md §12), recorded separately from the
  // spill-free base clock in `seconds`: clock(budget) = clock(unbounded) +
  // spill charge, exactly, so a CONCLAVE_MEM_BUDGET re-run reproduces the
  // unbounded goldens' virtual_seconds bit for bit and diffs clean under
  // `diff_bench_json.py --ignore-key spill_seconds` (the key is omitted from
  // the JSON when zero, i.e. in every unbounded golden).
  double spill_seconds = 0;

  static Cell Seconds(double s, bool is_modeled = false) {
    Cell cell;
    cell.kind = Kind::kSeconds;
    cell.seconds = s;
    cell.modeled = is_modeled;
    return cell;
  }
  // For cells fed by a dispatcher ExecutionResult: pass the measured
  // virtual_seconds and the run's spill_report.spill_seconds; the cell stores
  // the spill-free base clock plus the charge.
  static Cell RunSeconds(double virtual_seconds, double spill_charge) {
    Cell cell = Seconds(virtual_seconds - spill_charge);
    cell.spill_seconds = spill_charge;
    return cell;
  }
  // A real elapsed time over repeated runs, such as a kernel microbench's
  // passes: their median and quartiles.
  static Cell WallSeconds(double median, double first_quartile,
                          double third_quartile) {
    Cell cell;
    cell.kind = Kind::kWallSeconds;
    cell.seconds = median;
    cell.q1 = first_quartile;
    cell.q3 = third_quartile;
    return cell;
  }
  static Cell Count(int64_t n) {
    Cell cell;
    cell.kind = Kind::kCount;
    cell.count = n;
    return cell;
  }
  static Cell Dnf() {
    Cell cell;
    cell.kind = Kind::kDnf;
    return cell;
  }
  static Cell Oom() {
    Cell cell;
    cell.kind = Kind::kOom;
    return cell;
  }
  static Cell Skip() { return Cell{}; }

  std::string ToString() const {
    switch (kind) {
      case Kind::kSeconds:
        return StrFormat(modeled ? "%.1f*" : "%.1f", seconds);
      case Kind::kWallSeconds:
        // The median, then the interquartile range as a share of it.
        return StrFormat("%.6f [%.0f%%]", seconds,
                         seconds > 0 ? 100 * (q3 - q1) / seconds : 0.0);
      case Kind::kCount:
        return StrFormat("%lld", static_cast<long long>(count));
      case Kind::kDnf:
        return "DNF";
      case Kind::kOom:
        return "OOM";
      case Kind::kSkip:
        return "-";
    }
    return "-";
  }

  const char* KindName() const {
    switch (kind) {
      case Kind::kSeconds:
        return "seconds";
      case Kind::kWallSeconds:
        return "wall_seconds";
      case Kind::kCount:
        return "count";
      case Kind::kDnf:
        return "dnf";
      case Kind::kOom:
        return "oom";
      case Kind::kSkip:
        return "skip";
    }
    return "skip";
  }
};

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(uint64_t size, std::vector<Cell> cells) {
    rows_.push_back({size, std::move(cells)});
  }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("%12s", "records");
    for (const auto& column : columns_) {
      std::printf("  %16s", column.c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) {
      std::printf("%12s", HumanCount(row.size).c_str());
      for (const auto& cell : row.cells) {
        std::printf("  %16s", cell.ToString().c_str());
      }
      std::printf("\n");
    }
    // Each table names the units its cells are in.
    bool simulated = false;
    bool wall = false;
    for (const auto& row : rows_) {
      for (const auto& cell : row.cells) {
        simulated = simulated || cell.kind == Cell::Kind::kSeconds;
        wall = wall || cell.kind == Cell::Kind::kWallSeconds;
      }
    }
    if (simulated) {
      std::printf("(seconds of simulated time; * = modeled point; DNF = exceeds %.0f s "
                  "budget; OOM = simulated memory exhaustion)\n",
                  kTimeBudgetSeconds);
    }
    if (wall) {
      std::printf("(wall-clock seconds: median of the runs [interquartile range "
                  "as a %% of the median])\n");
    }
  }

  // Machine-readable dump: BENCH_<name>.json in the working directory (override the
  // directory with CONCLAVE_BENCH_JSON_DIR). Seconds cells carry the simulated
  // (virtual) seconds, wall-seconds cells their runs' median real elapsed
  // seconds with its quartiles, and count cells their value;
  // wall_clock_seconds is the bench's real elapsed time, establishing the perf
  // trajectory across PRs.
  void WriteJson(const std::string& bench_name, double wall_clock_seconds) const {
    std::string dir = ".";
    if (const char* env = std::getenv("CONCLAVE_BENCH_JSON_DIR")) {
      dir = env;
    }
    const std::string path = dir + "/BENCH_" + bench_name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"title\": \"%s\",\n",
                 bench_name.c_str(), title_.c_str());
    std::fprintf(f, "  \"wall_clock_seconds\": %.6f,\n", wall_clock_seconds);
    std::fprintf(f, "  \"columns\": [");
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", columns_[i].c_str());
    }
    std::fprintf(f, "],\n  \"rows\": [\n");
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      std::fprintf(f, "    {\"records\": %llu, \"cells\": [",
                   static_cast<unsigned long long>(row.size));
      for (size_t i = 0; i < row.cells.size(); ++i) {
        const Cell& cell = row.cells[i];
        std::fprintf(f, "%s{\"kind\": \"%s\"", i == 0 ? "" : ", ",
                     cell.KindName());
        if (cell.kind == Cell::Kind::kSeconds) {
          std::fprintf(f, ", \"virtual_seconds\": %.6f, \"modeled\": %s",
                       cell.seconds, cell.modeled ? "true" : "false");
          if (cell.spill_seconds != 0) {
            std::fprintf(f, ", \"spill_seconds\": %.6f", cell.spill_seconds);
          }
        } else if (cell.kind == Cell::Kind::kWallSeconds) {
          std::fprintf(f, ", \"value\": %.6f, \"q1\": %.6f, \"q3\": %.6f",
                       cell.seconds, cell.q1, cell.q3);
        } else if (cell.kind == Cell::Kind::kCount) {
          std::fprintf(f, ", \"value\": %lld", static_cast<long long>(cell.count));
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "]}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct Row {
    uint64_t size;
    std::vector<Cell> cells;
  };
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

// Wall-clock timer for the JSON dumps: construct at the top of main().
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Bench scale knob: CONCLAVE_BENCH_SCALE=small caps sweeps for quick CI runs.
inline bool SmallScale() {
  const char* env = std::getenv("CONCLAVE_BENCH_SCALE");
  return env != nullptr && std::string(env) == "small";
}

// --filter=<substring> (or "--filter <substring>"): restricts a bench's custom
// sweep to the columns whose name contains the substring, so a single
// microbench row can be re-run in an A/B loop without paying for the whole
// suite. Construct at the top of main(), BEFORE benchmark::Initialize — the
// constructor consumes the flag from argv so google-benchmark's own parser
// (which rejects unknown flags) never sees it. Empty filter = run everything.
class BenchFilter {
 public:
  BenchFilter(int* argc, char** argv) {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string arg = argv[i];
      const std::string prefix = "--filter=";
      if (arg.rfind(prefix, 0) == 0) {
        pattern_ = arg.substr(prefix.size());
      } else if (arg == "--filter" && i + 1 < *argc) {
        pattern_ = argv[++i];
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
  }

  bool Empty() const { return pattern_.empty(); }
  const std::string& pattern() const { return pattern_; }

  // True when the column named `name` should run this invocation.
  bool Enabled(const std::string& name) const {
    return pattern_.empty() || name.find(pattern_) != std::string::npos;
  }

 private:
  std::string pattern_;
};

}  // namespace bench
}  // namespace conclave

#endif  // CONCLAVE_BENCH_BENCH_UTIL_H_
