// Unit tests for the common utilities: Status/StatusOr, PartySet, Rng, clock,
// counters, env knob parsing, and string helpers.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "conclave/common/arena.h"
#include "conclave/common/env.h"
#include "conclave/common/party.h"
#include "conclave/common/rng.h"
#include "conclave/common/status.h"
#include "conclave/common/strings.h"
#include "conclave/common/virtual_clock.h"
#include "test_util.h"

namespace conclave {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad column");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad column");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad column");
}

TEST(StatusTest, AllErrorConstructorsSetCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

StatusOr<int> Doubler(StatusOr<int> input) {
  CONCLAVE_ASSIGN_OR_RETURN(int value, std::move(input));
  return value * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(InternalError("boom")).status().code(), StatusCode::kInternal);
}

TEST(PartySetTest, EmptyByDefault) {
  PartySet set;
  EXPECT_TRUE(set.Empty());
  EXPECT_EQ(set.Size(), 0);
  EXPECT_EQ(set.First(), kNoParty);
}

TEST(PartySetTest, InsertContainsRemove) {
  PartySet set;
  set.Insert(2);
  set.Insert(5);
  EXPECT_TRUE(set.Contains(2));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.Size(), 2);
  set.Remove(2);
  EXPECT_FALSE(set.Contains(2));
}

TEST(PartySetTest, AllEnumeratesEveryParty) {
  PartySet set = PartySet::All(3);
  EXPECT_EQ(set.Size(), 3);
  EXPECT_EQ(set.ToVector(), (std::vector<PartyId>{0, 1, 2}));
}

TEST(PartySetTest, IntersectAndUnion) {
  PartySet a = PartySet::Of({0, 1});
  PartySet b = PartySet::Of({1, 2});
  EXPECT_EQ(a.Intersect(b), PartySet::Of({1}));
  EXPECT_EQ(a.Union(b), PartySet::All(3));
}

TEST(PartySetTest, ContainsAll) {
  EXPECT_TRUE(PartySet::All(3).ContainsAll(PartySet::Of({0, 2})));
  EXPECT_FALSE(PartySet::Of({0, 2}).ContainsAll(PartySet::All(3)));
}

TEST(PartySetTest, FirstIsLowestMember) {
  EXPECT_EQ(PartySet::Of({3, 1, 7}).First(), 1);
}

TEST(PartySetTest, ToStringSortedStable) {
  EXPECT_EQ(PartySet::Of({2, 0}).ToString(), "{0,2}");
  EXPECT_EQ(PartySet().ToString(), "{}");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    differing += a.Next() != b.Next() ? 1 : 0;
  }
  EXPECT_GT(differing, 5);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values hit in 1000 draws.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(CounterRngTest, PureFunctionOfSeedStreamIndex) {
  const CounterRng a(42, 7);
  const CounterRng b(42, 7);
  for (uint64_t i : {0ULL, 1ULL, 1000ULL, 123456789ULL}) {
    EXPECT_EQ(a.At(i), b.At(i));
  }
  // Order independence: reading backwards yields the same words.
  EXPECT_EQ(a.At(5), [&] {
    (void)a.At(9);
    (void)a.At(0);
    return a.At(5);
  }());
}

TEST(CounterRngTest, StreamsAndSeedsDecorrelate) {
  std::set<uint64_t> words;
  constexpr int kStreams = 32;
  constexpr int kWords = 64;
  for (uint64_t stream = 0; stream < kStreams; ++stream) {
    const CounterRng rng(42, stream);
    for (uint64_t i = 0; i < kWords; ++i) {
      words.insert(rng.At(i));
    }
  }
  EXPECT_EQ(words.size(), static_cast<size_t>(kStreams * kWords));
  const CounterRng other_seed(43, 0);
  const CounterRng same_seed(42, 0);
  EXPECT_NE(other_seed.At(0), same_seed.At(0));
}

TEST(CounterRngTest, WordsLookUniform) {
  // Crude avalanche check: bit positions of consecutive counter words are balanced.
  const CounterRng rng(1, 0);
  int bit_counts[64] = {};
  constexpr int kSamples = 4096;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t w = rng.At(static_cast<uint64_t>(i));
    for (int bit = 0; bit < 64; ++bit) {
      bit_counts[bit] += static_cast<int>((w >> bit) & 1);
    }
  }
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_GT(bit_counts[bit], kSamples / 2 - kSamples / 8);
    EXPECT_LT(bit_counts[bit], kSamples / 2 + kSamples / 8);
  }
}

TEST(CounterRngTest, FillPairsSplitsEachElementsTwoWords) {
  const CounterRng rng(77, 5);
  for (uint64_t first : {0ULL, 1ULL, 13ULL, 1000ULL}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300}}) {
      std::vector<uint64_t> even(n);
      std::vector<uint64_t> odd(n);
      rng.FillPairs(first, n, even.data(), odd.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(even[i], rng.At(2 * (first + i))) << first << "+" << i;
        ASSERT_EQ(odd[i], rng.At(2 * (first + i) + 1)) << first << "+" << i;
      }
    }
  }
}

TEST(CounterRngTest, GoldenWords) {
  // Pinned draws by (seed, stream, index): a change to the base derivation or the
  // finalizer breaks these exact words, and with them every sharing, triple and
  // fault schedule.
  const CounterRng rng(0xc0ffee, 9);
  EXPECT_EQ(rng.At(0), 0xd8c9ce930022aeafULL);
  EXPECT_EQ(rng.At(1), 0x2f693f2bb095b14aULL);
  EXPECT_EQ(rng.At(1000), 0xeca2bc4e0928885aULL);
  const CounterRng other(1, 0);
  EXPECT_EQ(other.At(0), 0xe3465efb9c06e5f8ULL);
  EXPECT_EQ(other.At(7), 0x409c01c29e418a7dULL);
}

TEST(ScratchArenaTest, ReusesReleasedBuffers) {
  ScratchArena arena;
  const uint64_t* first_data = nullptr;
  {
    auto buffer = arena.Acquire(1024);
    first_data = buffer.u64();
    EXPECT_EQ(buffer.size(), 1024u);
  }
  EXPECT_EQ(arena.free_buffers(), 1u);
  {
    // Same-or-smaller acquisition reuses the released storage (no reallocation).
    auto buffer = arena.Acquire(512);
    EXPECT_EQ(buffer.u64(), first_data);
    EXPECT_EQ(buffer.size(), 512u);
  }
  EXPECT_EQ(arena.free_buffers(), 1u);
}

TEST(ScratchArenaTest, ConcurrentBorrowsAreDistinct) {
  ScratchArena arena;
  auto a = arena.Acquire(64);
  auto b = arena.Acquire(64);
  EXPECT_NE(a.u64(), b.u64());
  // Signed view aliases the same storage.
  a.i64()[0] = -5;
  EXPECT_EQ(a.u64()[0], static_cast<uint64_t>(int64_t{-5}));
}

TEST(VirtualClockTest, AdvanceAccumulates) {
  VirtualClock clock;
  clock.Advance(1.5);
  clock.Advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 4.0);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 0.0);
}

TEST(CostCountersTest, AddMergesAllFields) {
  CostCounters a;
  a.network_bytes = 10;
  a.mpc_multiplications = 3;
  CostCounters b;
  b.network_bytes = 5;
  b.gc_and_gates = 7;
  a.Add(b);
  EXPECT_EQ(a.network_bytes, 15u);
  EXPECT_EQ(a.mpc_multiplications, 3u);
  EXPECT_EQ(a.gc_and_gates, 7u);
}

TEST(StringsTest, StrFormatBasic) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(4ULL << 30), "4.0 GB");
  EXPECT_EQ(HumanBytes(1ULL << 50), "1.0 PB");
  EXPECT_EQ(HumanBytes(UINT64_MAX), "16.0 EB");
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.005), "5.00 ms");
  EXPECT_EQ(HumanSeconds(42.0), "42.00 s");
  EXPECT_EQ(HumanSeconds(120.0), "2.00 min");
  EXPECT_EQ(HumanSeconds(7200.0), "2.00 h");
}

TEST(StringsTest, HumanCount) {
  EXPECT_EQ(HumanCount(10), "10");
  EXPECT_EQ(HumanCount(3000), "3k");
  EXPECT_EQ(HumanCount(2000000), "2M");
  EXPECT_EQ(HumanCount(1000000000ULL), "1B");
}

// --- Centralized env-knob parsing (common/env.h) -----------------------------

constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

TEST(EnvKnobTest, ParseInt64Accepts) {
  EXPECT_EQ(env::ParseInt64Knob("K", "0", 0, kI64Max).value(), 0);
  EXPECT_EQ(env::ParseInt64Knob("K", "4096", 1, kI64Max).value(), 4096);
  EXPECT_EQ(env::ParseInt64Knob("K", "-3", -10, 10).value(), -3);
  EXPECT_EQ(env::ParseInt64Knob("K", "9223372036854775807", 0, kI64Max).value(),
            kI64Max);
}

TEST(EnvKnobTest, ParseInt64RejectsMalformed) {
  EXPECT_FALSE(env::ParseInt64Knob("K", "", 0, kI64Max).ok());
  EXPECT_FALSE(env::ParseInt64Knob("K", "not-a-number", 0, kI64Max).ok());
  EXPECT_FALSE(env::ParseInt64Knob("K", "12abc", 0, kI64Max).ok());
  EXPECT_FALSE(env::ParseInt64Knob("K", " 7", 0, kI64Max).ok());
  EXPECT_FALSE(env::ParseInt64Knob("K", "7 ", 0, kI64Max).ok());
  EXPECT_FALSE(env::ParseInt64Knob("K", "99999999999999999999", 0, kI64Max).ok());
  // Out of range, and the message names the variable and the bounds.
  const auto result = env::ParseInt64Knob("CONCLAVE_MEM_BUDGET", "-5", 0, kI64Max);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("CONCLAVE_MEM_BUDGET"),
            std::string::npos);
}

TEST(EnvKnobTest, ParseBoolAccepts) {
  for (const char* text : {"1", "on", "ON", "true"}) {
    EXPECT_TRUE(env::ParseBoolKnob("K", text).value()) << text;
  }
  for (const char* text : {"0", "off", "OFF", "false"}) {
    EXPECT_FALSE(env::ParseBoolKnob("K", text).value()) << text;
  }
}

TEST(EnvKnobTest, ParseBoolRejectsMalformed) {
  for (const char* text : {"", "yes", "2", "on ", "tru"}) {
    EXPECT_FALSE(env::ParseBoolKnob("K", text).ok()) << "'" << text << "'";
  }
}

TEST(EnvKnobTest, ReadersResolveEnv) {
  {
    test::ScopedEnvVar unset("CONCLAVE_TEST_KNOB", nullptr);
    EXPECT_EQ(env::Int64Knob("CONCLAVE_TEST_KNOB", 7, 0, kI64Max), 7);
    EXPECT_TRUE(env::BoolKnob("CONCLAVE_TEST_KNOB", true));
    EXPECT_FALSE(env::BoolKnob("CONCLAVE_TEST_KNOB", false));
  }
  {
    test::ScopedEnvVar set("CONCLAVE_TEST_KNOB", "12");
    EXPECT_EQ(env::Int64Knob("CONCLAVE_TEST_KNOB", 7, 0, kI64Max), 12);
  }
  {
    test::ScopedEnvVar set("CONCLAVE_TEST_KNOB", "off");
    EXPECT_FALSE(env::BoolKnob("CONCLAVE_TEST_KNOB", true));
  }
}

// A knob typo must never silently select a default: the readers abort with a
// message that names the variable and the offending value.
TEST(EnvKnobDeathTest, MalformedIntCrashesLoudly) {
  test::ScopedEnvVar bogus("CONCLAVE_TEST_KNOB", "not-a-number");
  EXPECT_DEATH(env::Int64Knob("CONCLAVE_TEST_KNOB", 7, 0, kI64Max),
               "CONCLAVE_TEST_KNOB");
}

TEST(EnvKnobDeathTest, OutOfRangeIntCrashesLoudly) {
  test::ScopedEnvVar bogus("CONCLAVE_TEST_KNOB", "-8");
  EXPECT_DEATH(env::Int64Knob("CONCLAVE_TEST_KNOB", 7, 1, kI64Max),
               "CONCLAVE_TEST_KNOB");
}

TEST(EnvKnobDeathTest, MalformedBoolCrashesLoudly) {
  test::ScopedEnvVar bogus("CONCLAVE_TEST_KNOB", "maybe");
  EXPECT_DEATH(env::BoolKnob("CONCLAVE_TEST_KNOB", true), "CONCLAVE_TEST_KNOB");
}

}  // namespace
}  // namespace conclave
