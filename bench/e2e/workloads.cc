#include "bench/e2e/workloads.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "conclave/common/strings.h"
#include "conclave/data/generators.h"

namespace conclave {
namespace e2e {
namespace {

// Independent generator seeds per input, all derived from the benchmark seed
// (SplitMix64 finalizer over seed and stream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (stream + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Finds `name` in the output map, or says why it cannot.
const Relation* FindOutput(const Relations& outputs, const std::string& name,
                           std::string* error) {
  const auto it = outputs.find(name);
  if (it == outputs.end()) {
    *error = StrFormat("output '%s' missing", name.c_str());
    return nullptr;
  }
  return &it->second;
}

// Column `column` of `relation` as a span, or an error when it is absent.
std::span<const int64_t> Column(const Relation& relation, const std::string& column,
                                std::string* error) {
  const auto index = relation.schema().IndexOf(column);
  if (!index.ok()) {
    *error = StrFormat("output has no column '%s': %s", column.c_str(),
                       relation.schema().ToString().c_str());
    return {};
  }
  return relation.ColumnSpan(*index);
}

// --- Fig. 4: market concentration (HHI) ------------------------------------------------

// Three taxi companies' trip books; the query filters zero fares, sums revenue per
// company, and squares each company's market share (in 1/10000ths) into the HHI.
// With every rewrite on, push-down leaves only three revenue totals to the MPC;
// with every rewrite off, the whole query runs under secret sharing.
class Hhi : public Workload {
 public:
  Hhi(const char* name, bool rewrites, int64_t rows_per_party)
      : name_(name), rewrites_(rewrites), rows_per_party_(rows_per_party) {}

  const char* name() const override { return name_; }

  compiler::CompilerOptions options() const override {
    compiler::CompilerOptions options;
    options.push_down = rewrites_;
    options.push_up = rewrites_;
    options.use_hybrid = rewrites_;
    options.sort_elimination = rewrites_;
    options.sort_push_up = rewrites_;
    return options;
  }

  // The generator's default 5% of zero fares, on every 20th trip rather than
  // drawn, so the filter keeps the same number of rows for every seed.
  Relations Generate(uint64_t seed) const override {
    Relations inputs;
    for (int party = 0; party < 3; ++party) {
      data::TaxiConfig config;
      config.rows = rows_per_party_;
      config.company_id = party;
      config.zero_fare_fraction = 0;
      config.seed = StreamSeed(seed, static_cast<uint64_t>(party));
      Relation trips = data::TaxiTrips(config);
      int64_t* const price = trips.ColumnData(1);
      for (int64_t r = 0; r < rows_per_party_; r += kZeroFareEvery) {
        price[r] = 0;
      }
      inputs[kTables[party]] = std::move(trips);
    }
    return inputs;
  }

  void Build(api::Query& query, const std::string& /*csv_dir*/) const override {
    std::vector<api::Party> parties;
    std::vector<api::Table> tables;
    const std::vector<api::ColumnSpec> columns{{"companyID"}, {"price"}};
    for (int party = 0; party < 3; ++party) {
      parties.push_back(query.AddParty(kTables[party]));
      tables.push_back(
          query.NewTable(kTables[party], columns, parties.back(), rows_per_party_));
    }
    auto rev = query.Concat(tables)
                   .Filter("price", CompareOp::kGt, 0)
                   .Aggregate("local_rev", AggKind::kSum, {"companyID"}, "price");
    auto keyed = rev.MultiplyConst("zero", "local_rev", 0).AddConst("one", "zero", 1);
    auto market = keyed.Aggregate("total_rev", AggKind::kSum, {"one"}, "local_rev");
    keyed.Join(market, {"one"}, {"one"})
        .Divide("m_share", "local_rev", "total_rev", 10000)
        .Multiply("ms_squared", "m_share", "m_share")
        .Aggregate("hhi", AggKind::kSum, {}, "ms_squared")
        .WriteToCsv("hhi", {parties[0]});
  }

  void PrepareReference(const Relations& inputs) override {
    std::map<int64_t, int64_t> revenue;  // companyID -> sum of non-zero fares
    for (const auto& [name, relation] : inputs) {
      const auto company = relation.ColumnSpan(0);
      const auto price = relation.ColumnSpan(1);
      for (size_t r = 0; r < price.size(); ++r) {
        if (price[r] > 0) {
          revenue[company[r]] += price[r];
        }
      }
    }
    int64_t total = 0;
    for (const auto& [company, rev] : revenue) {
      total += rev;
    }
    expected_hhi_ = 0;
    for (const auto& [company, rev] : revenue) {
      const int64_t share = total == 0 ? 0 : rev * 10000 / total;
      expected_hhi_ += share * share;
    }
  }

  std::string Check(const Relations& outputs) const override {
    std::string error;
    const Relation* hhi = FindOutput(outputs, "hhi", &error);
    if (hhi == nullptr) {
      return error;
    }
    const auto values = Column(*hhi, "hhi", &error);
    if (!error.empty()) {
      return error;
    }
    if (values.size() != 1 || values[0] != expected_hhi_) {
      return StrFormat("hhi: got %lld rows (first %lld), want 1 row %lld",
                       static_cast<long long>(values.size()),
                       static_cast<long long>(values.empty() ? 0 : values[0]),
                       static_cast<long long>(expected_hhi_));
    }
    return "";
  }

 private:
  static constexpr const char* kTables[3] = {"inputA", "inputB", "inputC"};
  static constexpr int64_t kZeroFareEvery = 20;

  const char* name_;
  bool rewrites_;
  int64_t rows_per_party_;
  int64_t expected_hhi_ = 0;
};

// --- Fig. 6: credit-card regulation ----------------------------------------------------

// A regulator's (ssn, zip) table joined with two banks' (ssn, score) tables, then
// the average score per zip. `ssn` is trusted to the regulator, so the compiler
// runs the join and the aggregations as hybrid protocols with it as the STP.
class Credit : public Workload {
 public:
  explicit Credit(int64_t total_rows) : total_rows_(total_rows) {}

  const char* name() const override { return "credit_hybrid"; }

  // The demographics cover a quarter of the ssn space, so a quarter of the drawn
  // card holders match on average. Here every 4th card holder is moved onto a
  // person the regulator knows and every other one off them, so the join's output
  // size is the same for every seed.
  Relations Generate(uint64_t seed) const override {
    const int64_t ssn_space = 2 * total_rows_;
    Relations inputs;
    inputs["demographics"] =
        data::Demographics(total_rows_ / 2, ssn_space, kZips, StreamSeed(seed, 0));
    const auto known_ssns = inputs["demographics"].ColumnSpan(0);
    std::vector<bool> known(static_cast<size_t>(ssn_space));
    for (int64_t ssn : known_ssns) {
      known[static_cast<size_t>(ssn)] = true;
    }
    for (int bank = 1; bank <= 2; ++bank) {
      Relation scores = data::CreditScores(total_rows_ / 4, ssn_space,
                                           StreamSeed(seed, static_cast<uint64_t>(bank)));
      int64_t* const ssn = scores.ColumnData(0);
      for (int64_t r = 0; r < scores.NumRows(); ++r) {
        const bool matches = known[static_cast<size_t>(ssn[r])];
        if (r % 4 == 0 && !matches) {
          ssn[r] = known_ssns[static_cast<size_t>(ssn[r]) % known_ssns.size()];
        } else if (r % 4 != 0 && matches) {
          ssn[r] += ssn_space;
        }
      }
      inputs[StrFormat("scores%d", bank)] = std::move(scores);
    }
    return inputs;
  }

  void Build(api::Query& query, const std::string& /*csv_dir*/) const override {
    auto regulator = query.AddParty("regulator");
    auto bank1 = query.AddParty("bank1");
    auto bank2 = query.AddParty("bank2");
    const std::vector<api::ColumnSpec> bank_columns{{"ssn", {regulator}}, {"score"}};
    auto demo = query.NewTable("demographics", {{"ssn"}, {"zip"}}, regulator,
                               total_rows_ / 2);
    auto s1 = query.NewTable("scores1", bank_columns, bank1, total_rows_ / 4);
    auto s2 = query.NewTable("scores2", bank_columns, bank2, total_rows_ / 4);
    auto joined = demo.Join(query.Concat({s1, s2}), {"ssn"}, {"ssn"});
    auto by_zip = joined.Count("count", {"zip"});
    auto total = joined.Aggregate("total", AggKind::kSum, {"zip"}, "score");
    total.Join(by_zip, {"zip"}, {"zip"})
        .Divide("avg_score", "total", "count")
        .WriteToCsv("avg_scores", {regulator});
  }

  void PrepareReference(const Relations& inputs) override {
    const Relation& demo = inputs.at("demographics");
    std::unordered_map<int64_t, int64_t> zip_of;  // ssn -> zip (ssn is unique)
    zip_of.reserve(static_cast<size_t>(demo.NumRows()));
    const auto ssn = demo.ColumnSpan(0);
    const auto zip = demo.ColumnSpan(1);
    for (size_t r = 0; r < ssn.size(); ++r) {
      zip_of.emplace(ssn[r], zip[r]);
    }
    expected_.clear();
    for (const char* bank : {"scores1", "scores2"}) {
      const Relation& scores = inputs.at(bank);
      const auto holder = scores.ColumnSpan(0);
      const auto score = scores.ColumnSpan(1);
      for (size_t r = 0; r < holder.size(); ++r) {
        const auto it = zip_of.find(holder[r]);
        if (it != zip_of.end()) {
          ZipStats& stats = expected_[it->second];
          stats.total += score[r];
          stats.count += 1;
        }
      }
    }
  }

  std::string Check(const Relations& outputs) const override {
    std::string error;
    const Relation* out = FindOutput(outputs, "avg_scores", &error);
    if (out == nullptr) {
      return error;
    }
    const auto zip = Column(*out, "zip", &error);
    const auto total = Column(*out, "total", &error);
    const auto count = Column(*out, "count", &error);
    const auto avg = Column(*out, "avg_score", &error);
    if (!error.empty()) {
      return error;
    }
    if (zip.size() != expected_.size()) {
      return StrFormat("avg_scores: %lld rows, want %lld",
                       static_cast<long long>(zip.size()),
                       static_cast<long long>(expected_.size()));
    }
    std::set<int64_t> seen;
    for (size_t r = 0; r < zip.size(); ++r) {
      const auto it = expected_.find(zip[r]);
      if (it == expected_.end() || !seen.insert(zip[r]).second) {
        return StrFormat("avg_scores: unexpected zip %lld",
                         static_cast<long long>(zip[r]));
      }
      const ZipStats& want = it->second;
      if (total[r] != want.total || count[r] != want.count ||
          avg[r] != want.total / want.count) {
        return StrFormat("avg_scores: zip %lld got (%lld, %lld, %lld), want "
                         "(%lld, %lld, %lld)",
                         static_cast<long long>(zip[r]),
                         static_cast<long long>(total[r]),
                         static_cast<long long>(count[r]),
                         static_cast<long long>(avg[r]),
                         static_cast<long long>(want.total),
                         static_cast<long long>(want.count),
                         static_cast<long long>(want.total / want.count));
      }
    }
    return "";
  }

 private:
  static constexpr int64_t kZips = 100;

  struct ZipStats {
    int64_t total = 0;
    int64_t count = 0;
  };

  int64_t total_rows_;
  std::map<int64_t, ZipStats> expected_;
};

// --- Fig. 7b: SMCQL comorbidity --------------------------------------------------------

// Two hospitals' (pid, diag) tables, read from per-party CSV files: the ten most
// frequent diagnoses across both. Push-down pre-aggregates per hospital in the
// clear; the row budget makes those group-bys spill.
class Comorbidity : public Workload {
 public:
  Comorbidity(int64_t rows_per_party, int64_t mem_budget_rows)
      : rows_per_party_(rows_per_party), mem_budget_rows_(mem_budget_rows) {}

  const char* name() const override { return "comorbidity_csv_spill"; }
  int64_t mem_budget_rows() const override { return mem_budget_rows_; }
  bool reads_csv() const override { return true; }

  // Codes are drawn from rows / 10 values, and a draw can miss a few of them. Every
  // 10th row is set to the next code in turn, so each party holds every code and
  // the group-bys see the same number of keys for every seed.
  Relations Generate(uint64_t seed) const override {
    data::HealthConfig config;
    config.rows_per_party = rows_per_party_;
    config.distinct_key_fraction = 1.0 / kRowsPerCode;
    config.seed = StreamSeed(seed, 0);
    Relations inputs;
    for (int party = 0; party < 2; ++party) {
      Relation diagnoses = data::ComorbidityDiagnoses(config, party);
      int64_t* const diag = diagnoses.ColumnData(1);
      for (int64_t r = 0; r < rows_per_party_; r += kRowsPerCode) {
        diag[r] = r / kRowsPerCode;
      }
      inputs[StrFormat("diag%d", party)] = std::move(diagnoses);
    }
    return inputs;
  }

  void Build(api::Query& query, const std::string& csv_dir) const override {
    auto h0 = query.AddParty("hospital0");
    auto h1 = query.AddParty("hospital1");
    auto d0 = query.NewCsvTable("diag0", {{"pid"}, {"diag"}}, h0,
                                csv_dir + "/diag0.csv", rows_per_party_);
    auto d1 = query.NewCsvTable("diag1", {{"pid"}, {"diag"}}, h1,
                                csv_dir + "/diag1.csv", rows_per_party_);
    query.Concat({d0, d1})
        .Count("cnt", {"diag"})
        .SortBy({"cnt"}, /*ascending=*/false)
        .Limit(kTop)
        .WriteToCsv("top", {h0, h1});
  }

  void PrepareReference(const Relations& inputs) override {
    counts_.clear();
    for (const auto& [name, relation] : inputs) {
      for (int64_t diag : relation.ColumnSpan(1)) {
        ++counts_[diag];
      }
    }
    top_counts_.clear();
    for (const auto& [diag, count] : counts_) {
      top_counts_.push_back(count);
    }
    std::sort(top_counts_.begin(), top_counts_.end(), std::greater<int64_t>());
    top_counts_.resize(std::min<size_t>(top_counts_.size(), kTop));
  }

  // Ties at the limit boundary make the returned diagnoses ambiguous, so this
  // checks the multiset of counts plus each returned (diag, cnt) pair.
  std::string Check(const Relations& outputs) const override {
    std::string error;
    const Relation* out = FindOutput(outputs, "top", &error);
    if (out == nullptr) {
      return error;
    }
    const auto diag = Column(*out, "diag", &error);
    const auto cnt = Column(*out, "cnt", &error);
    if (!error.empty()) {
      return error;
    }
    std::vector<int64_t> got(cnt.begin(), cnt.end());
    std::sort(got.begin(), got.end(), std::greater<int64_t>());
    if (got != top_counts_) {
      return StrFormat("top: %lld counts differ from the reference top-%lld",
                       static_cast<long long>(got.size()),
                       static_cast<long long>(kTop));
    }
    for (size_t r = 0; r < diag.size(); ++r) {
      const auto it = counts_.find(diag[r]);
      if (it == counts_.end() || it->second != cnt[r]) {
        return StrFormat("top: diag %lld reported with cnt %lld",
                         static_cast<long long>(diag[r]),
                         static_cast<long long>(cnt[r]));
      }
    }
    return "";
  }

 private:
  static constexpr int64_t kTop = 10;
  static constexpr int64_t kRowsPerCode = 10;

  int64_t rows_per_party_;
  int64_t mem_budget_rows_;
  std::unordered_map<int64_t, int64_t> counts_;  // diag -> rows across hospitals
  std::vector<int64_t> top_counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke) {
  if (name == "hhi_pushdown") {
    return std::make_unique<Hhi>("hhi_pushdown", true, smoke ? 10'000 : 6'000'000);
  }
  if (name == "hhi_mpc_only") {
    return std::make_unique<Hhi>("hhi_mpc_only", false, smoke ? 100 : 12'000);
  }
  if (name == "credit_hybrid") {
    return std::make_unique<Credit>(smoke ? 2'000 : 800'000);
  }
  if (name == "comorbidity_csv_spill") {
    return smoke ? std::make_unique<Comorbidity>(3'000, 64)
                 : std::make_unique<Comorbidity>(150'000, 8'192);
  }
  return nullptr;
}

}  // namespace e2e
}  // namespace conclave
