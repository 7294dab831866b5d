// Tests for the malicious-security extension (Appendix A.5): the SHA-256 primitive
// against FIPS known-answer vectors, commitment binding, proof tamper-detection, the
// input-consistency phase's cost accounting, and the end-to-end behaviour of queries
// compiled with malicious_security (same answers, ~7x MPC time, abort on bad proofs).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "conclave/api/conclave.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/malicious/commitment.h"
#include "conclave/mpc/malicious/sha256.h"

namespace conclave {
namespace malicious {
namespace {

// --- SHA-256 (FIPS 180-4 known-answer vectors) ----------------------------------------

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(DigestToHex(hasher.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string message = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= message.size(); ++split) {
    Sha256 hasher;
    hasher.Update(message.data(), split);
    hasher.Update(message.data() + split, message.size() - split);
    EXPECT_EQ(hasher.Finalize(), Sha256::Hash(message)) << "split at " << split;
  }
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths straddling the 55/56-byte padding boundary exercise the two-block pad.
  for (size_t length : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 121u}) {
    const std::string a(length, 'x');
    const std::string b(length, 'y');
    EXPECT_NE(Sha256::Hash(a), Sha256::Hash(b)) << length;
    EXPECT_EQ(Sha256::Hash(a), Sha256::Hash(a)) << length;
  }
}

// --- Commitments ----------------------------------------------------------------------

Relation SmallRelation() {
  Relation rel{Schema::Of({"k", "v"})};
  rel.AppendRow({1, 10});
  rel.AppendRow({2, 20});
  return rel;
}

TEST(CommitmentTest, OpensWithCorrectNonceOnly) {
  const Relation rel = SmallRelation();
  const Commitment commitment = CommitRelation(rel, 42);
  EXPECT_TRUE(VerifyOpening(rel, 42, commitment));
  EXPECT_FALSE(VerifyOpening(rel, 43, commitment));
}

TEST(CommitmentTest, BindsToCells) {
  const Relation rel = SmallRelation();
  const Commitment commitment = CommitRelation(rel, 7);
  Relation tampered = rel;
  tampered.Set(1, 1, 21);
  EXPECT_FALSE(VerifyOpening(tampered, 7, commitment));
}

TEST(CommitmentTest, BindsToSchemaAndShape) {
  const Relation rel = SmallRelation();
  const Commitment commitment = CommitRelation(rel, 7);

  Relation renamed{Schema::Of({"k", "w"})};
  renamed.AppendRow({1, 10});
  renamed.AppendRow({2, 20});
  EXPECT_FALSE(VerifyOpening(renamed, 7, commitment));

  Relation truncated{Schema::Of({"k", "v"})};
  truncated.AppendRow({1, 10});
  EXPECT_FALSE(VerifyOpening(truncated, 7, commitment));
}

TEST(CommitmentTest, DistinctInputsDistinctDigests) {
  // A small collision sweep over random relations and nonces.
  std::set<std::string> seen;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Relation rel{Schema::Of({"a"})};
    const int64_t rows = static_cast<int64_t>(rng.NextBelow(5));
    for (int64_t r = 0; r < rows; ++r) {
      rel.AppendRow({static_cast<int64_t>(rng.NextBelow(1000))});
    }
    const Commitment c = CommitRelation(rel, rng.NextBelow(1u << 20));
    seen.insert(DigestToHex(c.digest));
  }
  // Some (relation, nonce) draws repeat; digests may legitimately repeat for those,
  // but the sweep must not produce a trivially constant digest.
  EXPECT_GT(seen.size(), 150u);
}

// --- Range proofs ----------------------------------------------------------------------

TEST(RangeProofTest, RoundTrips) {
  const Relation rel = SmallRelation();
  const Commitment commitment = CommitRelation(rel, 3);
  const RangeProof proof = ProveConsistency(rel, 3, commitment);
  EXPECT_TRUE(VerifyRangeProof(proof, commitment));
}

TEST(RangeProofTest, RejectsMismatchedInput) {
  const Relation rel = SmallRelation();
  const Commitment commitment = CommitRelation(rel, 3);
  Relation forged = rel;
  forged.Set(0, 1, 999);
  // A prover whose input does not open the commitment cannot produce a valid tag.
  const RangeProof proof = ProveConsistency(forged, 3, commitment);
  EXPECT_FALSE(VerifyRangeProof(proof, commitment));
}

TEST(RangeProofTest, RejectsTamperedProof) {
  const Relation rel = SmallRelation();
  const Commitment commitment = CommitRelation(rel, 3);
  RangeProof proof = ProveConsistency(rel, 3, commitment);
  proof.num_rows += 1;
  EXPECT_FALSE(VerifyRangeProof(proof, commitment));
}

// --- Input-consistency phase -----------------------------------------------------------

TEST(InputConsistencyTest, ChargesProofTrafficAndTime) {
  SimNetwork net{CostModel{}};
  const Relation rel = data::UniformInts(500, {"a", "b"}, 100, 2);
  const double before = net.ElapsedSeconds();
  ASSERT_TRUE(InputConsistencyPhase(net, rel, /*owner=*/1, /*num_parties=*/3, 9).ok());
  const CostModel& model = net.model();
  // Proving + (parties-1) verifications, at least.
  EXPECT_GE(net.ElapsedSeconds() - before,
            500 * (model.zk_prove_seconds_per_row + 2 * model.zk_verify_seconds_per_row));
  // Proof bytes broadcast to both peers.
  EXPECT_GE(net.counters().network_bytes, 2 * 500 * model.zk_proof_bytes_per_row);
  EXPECT_EQ(net.counters().zk_proofs, 1u);
}

// --- End-to-end ------------------------------------------------------------------------

struct QueryRun {
  Relation output;
  double virtual_seconds = 0;
  double mpc_seconds = 0;
  uint64_t zk_proofs = 0;
};

QueryRun RunCreditQuery(bool malicious) {
  api::Query query;
  api::Party regulator = query.AddParty("regulator");
  api::Party bank1 = query.AddParty("bank1");
  api::Party bank2 = query.AddParty("bank2");
  api::Table demo = query.NewTable("demographics", {{"ssn"}, {"zip"}}, regulator);
  api::Table s1 = query.NewTable("scores1", {{"ssn"}, {"score"}}, bank1);
  api::Table s2 = query.NewTable("scores2", {{"ssn"}, {"score"}}, bank2);
  demo.Join(query.Concat({s1, s2}), {"ssn"}, {"ssn"})
      .Aggregate("total", AggKind::kSum, {"zip"}, "score")
      .WriteToCsv("out", {regulator});

  std::map<std::string, Relation> inputs;
  inputs["demographics"] = data::Demographics(150, 1000, 8, 4);
  inputs["scores1"] = data::CreditScores(100, 1000, 5);
  inputs["scores2"] = data::CreditScores(100, 1000, 6);

  compiler::CompilerOptions options;
  options.malicious_security = malicious;
  const auto result = query.Run(inputs, options);
  CONCLAVE_CHECK(result.ok());
  QueryRun run;
  run.output = result->outputs.at("out");
  run.virtual_seconds = result->virtual_seconds;
  run.mpc_seconds = result->mpc_seconds;
  run.zk_proofs = result->counters.zk_proofs;
  return run;
}

TEST(MaliciousEndToEndTest, SameAnswersProofsCountedAndMpcScaled) {
  const QueryRun passive = RunCreditQuery(false);
  const QueryRun active = RunCreditQuery(true);

  EXPECT_TRUE(UnorderedEqual(active.output, passive.output));
  EXPECT_EQ(passive.zk_proofs, 0u);
  EXPECT_GT(active.zk_proofs, 0u);
  // The MPC portion pays (at least) the 7x active-adversary factor plus the proof
  // phase; the cleartext portion is untouched, so compare MPC seconds directly.
  EXPECT_GE(active.mpc_seconds, 6.5 * passive.mpc_seconds);
  EXPECT_GT(active.virtual_seconds, passive.virtual_seconds);
}

// Push-down runs the filter and a partial aggregation at each bank, so only the
// per-bank partials enter the MPC. Each entering value costs one consistency
// proof; the raw creates never enter and must not be proven.
TEST(MaliciousEndToEndTest, PushDownProvesOnlyValuesEnteringTheMpc) {
  api::Query query;
  api::Party regulator = query.AddParty("regulator");
  api::Party bank1 = query.AddParty("bank1");
  api::Party bank2 = query.AddParty("bank2");
  api::Table s1 = query.NewTable("s1", {{"k"}, {"v"}}, bank1);
  api::Table s2 = query.NewTable("s2", {{"k"}, {"v"}}, bank2);
  query.Concat({s1, s2})
      .Filter("v", CompareOp::kLt, 20)
      .Aggregate("total", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {regulator});
  std::map<std::string, Relation> inputs;
  inputs["s1"] = data::UniformInts(500, {"k", "v"}, 100, 11);
  inputs["s2"] = data::UniformInts(500, {"k", "v"}, 100, 12);

  compiler::CompilerOptions options;
  options.malicious_security = true;
  const auto result = query.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Distinct cleartext values an MPC node reads.
  std::set<int> entering;
  for (const ir::OpNode* node : query.dag().TopoOrder()) {
    if (node->exec_mode != ir::ExecMode::kMpc || node->IsLeafOutput()) {
      continue;
    }
    for (const ir::OpNode* in : node->inputs) {
      if (in->exec_mode == ir::ExecMode::kLocal) {
        EXPECT_NE(in->kind, ir::OpKind::kCreate) << in->ToString();
        entering.insert(in->id);
      }
    }
  }
  EXPECT_EQ(entering.size(), 2u);  // One partial aggregate per bank.
  EXPECT_EQ(result->counters.zk_proofs, entering.size());
}

}  // namespace
}  // namespace malicious
}  // namespace conclave
