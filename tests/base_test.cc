#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "gtest/gtest.h"

namespace x2vec {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad p");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad p");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicAcrossRuns) {
  Rng a = MakeRng(7);
  Rng b = MakeRng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(UniformInt(a, 0, 1000), UniformInt(b, 0, 1000));
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng = MakeRng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = UniformInt(rng, -3, 5);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, RandomPermutationIsPermutation) {
  Rng rng = MakeRng(2);
  std::vector<int> perm = RandomPermutation(50, rng);
  std::sort(perm.begin(), perm.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(perm[i], i);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng = MakeRng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> sample = SampleWithoutReplacement(100, 30, rng);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (int x : sample) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, 100);
    }
  }
}

// The oracle for Rng's engine: Rng must draw, and save its state, exactly as
// this one does.
using StdMt64 = std::mt19937_64;  // x2vec-lint: allow(nondeterminism)

std::string StdText(const StdMt64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

// Draw counts at which the lazy first block, the first full twist and the
// second one change hands.
constexpr int kStops[] = {0,   1,   15,  16,  17,  155, 156, 157,
                          311, 312, 313, 623, 624, 625, 1000};

std::vector<uint64_t> OracleSeeds() {
  std::vector<uint64_t> seeds = {0, 5489, ~uint64_t{0}};
  for (uint64_t stream = 0; stream < 1000; ++stream) {
    seeds.push_back(MixSeed(0x5eed, stream));
  }
  return seeds;
}

TEST(RngEngineTest, DrawsAndStateMatchStdMt19937_64) {
  for (const uint64_t seed : OracleSeeds()) {
    Rng rng(seed);
    StdMt64 oracle(seed);
    int drawn = 0;
    for (const int stop : kStops) {
      for (; drawn < stop; ++drawn) {
        ASSERT_EQ(rng(), oracle()) << "seed " << seed << " draw " << drawn;
      }
      ASSERT_EQ(rng.SaveEngineState(), StdText(oracle))
          << "seed " << seed << " after " << stop << " draws";
    }
  }
}

TEST(RngEngineTest, CopiesContinueTheStream) {
  for (const uint64_t seed : {uint64_t{0}, MixSeed(7, 1), MixSeed(7, 2)}) {
    Rng rng(seed);
    StdMt64 oracle(seed);
    int drawn = 0;
    for (const int stop : kStops) {
      for (; drawn < stop; ++drawn) ASSERT_EQ(rng(), oracle());
      Rng copy = rng;
      StdMt64 oracle_copy = oracle;
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(copy(), oracle_copy()) << "copy at " << stop << " draw " << i;
      }
    }
  }
}

TEST(RngEngineTest, LoadsStdStateAndContinues) {
  for (const uint64_t seed : {uint64_t{5489}, MixSeed(3, 4)}) {
    for (const int position : {0, 311, 312, 999}) {
      StdMt64 oracle(seed);
      for (int i = 0; i < position; ++i) oracle();
      Rng rng(seed + 1);
      ASSERT_TRUE(rng.LoadEngineState(StdText(oracle)).ok());
      EXPECT_EQ(rng.SaveEngineState(), StdText(oracle));
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(rng(), oracle()) << "loaded at " << position << " draw " << i;
      }
      EXPECT_EQ(rng.SaveEngineState(), StdText(oracle));
    }
  }
}

TEST(RngEngineTest, MalformedStateFailsExactlyWhenStdFails) {
  const StdMt64 source(11);
  const std::string text = StdText(source);
  const std::string words = text.substr(0, text.rfind(' '));
  const std::string first_311 = words.substr(0, words.rfind(' '));
  std::string non_numeric = text;
  non_numeric.replace(non_numeric.find(' ') + 1, 1, "x");
  const std::vector<std::string> cases = {
      "",
      first_311,
      first_311 + " 5",
      non_numeric,
      words,
      words + " x",
      "18446744073709551616 " + text.substr(text.find(' ') + 1),
      "-1 " + text.substr(text.find(' ') + 1),
      words + " 1000",
      "  " + text + " trailing",
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    std::istringstream in(cases[c]);
    StdMt64 parsed;
    in >> parsed;
    const bool std_ok = !in.fail();

    Rng rng(99);
    StdMt64 untouched(99);
    for (int i = 0; i < 20; ++i) ASSERT_EQ(rng(), untouched());
    const Status status = rng.LoadEngineState(cases[c]);
    ASSERT_EQ(status.ok(), std_ok) << "case " << c;
    const StdMt64& expected = std_ok ? parsed : untouched;
    StdMt64 oracle = expected;
    if (!std_ok) {
      EXPECT_EQ(status.code(), StatusCode::kCorruptedData) << "case " << c;
    }
    EXPECT_EQ(rng.SaveEngineState(), StdText(oracle)) << "case " << c;
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(rng(), oracle()) << "case " << c << " draw " << i;
    }
    EXPECT_EQ(rng.SaveEngineState(), StdText(oracle)) << "case " << c;
  }
}

TEST(RngEngineTest, DefaultConstructedMatchesStdDefault) {
  Rng rng;
  StdMt64 oracle;
  EXPECT_EQ(rng.SaveEngineState(), StdText(oracle));
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng(), oracle()) << "draw " << i;
  EXPECT_EQ(rng.SaveEngineState(), StdText(oracle));
}

TEST(AliasTableTest, MatchesWeightsEmpirically) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  Rng rng = MakeRng(4);
  std::vector<int> counts(4, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.Sample(rng)];
  for (int i = 0; i < 4; ++i) {
    const double expected = weights[i] / 10.0;
    const double observed = static_cast<double>(counts[i]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.01) << "bucket " << i;
  }
}

TEST(AliasTableTest, HandlesZeroWeightBuckets) {
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  AliasTable table(weights);
  Rng rng = MakeRng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(rng), 1);
}

TEST(CheckDeathTest, CheckAborts) {
  EXPECT_DEATH(X2VEC_CHECK(1 == 2) << "context", "check failed");
}

TEST(StatusTest, ResourceExhaustedRoundTrip) {
  const Status status = Status::ResourceExhausted("budget blown");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "budget blown");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
  const std::string rendered = status.ToString();
  EXPECT_NE(rendered.find("RESOURCE_EXHAUSTED"), std::string::npos);
  EXPECT_NE(rendered.find("budget blown"), std::string::npos);
}

}  // namespace
}  // namespace x2vec
