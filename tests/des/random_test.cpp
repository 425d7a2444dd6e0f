#include "des/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "support/hash_label.hpp"

namespace paradyn::des {
namespace {

TEST(SplitMix64, DeterministicForSameSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(DeriveSeed, SensitiveToEveryArgument) {
  const auto base = derive_seed(7, 1, 2);
  EXPECT_NE(base, derive_seed(8, 1, 2));
  EXPECT_NE(base, derive_seed(7, 2, 2));
  EXPECT_NE(base, derive_seed(7, 1, 3));
}

TEST(HashLabel, DistinctLabelsDistinctHashes) {
  EXPECT_NE(hash_label("app/node0"), hash_label("app/node1"));
  EXPECT_EQ(hash_label("pd"), hash_label("pd"));
}

TEST(Pcg32, ReproducibleStream) {
  Pcg32 a(123, 456);
  Pcg32 b(123, 456);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsAreIndependent) {
  Pcg32 a(123, 1);
  Pcg32 b(123, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32, DoublesInHalfOpenUnitInterval) {
  Pcg32 rng(99, 7);
  for (int i = 0; i < 100000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32, OpenDoubleNeverZero) {
  Pcg32 rng(99, 7);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_GT(rng.next_open_double(), 0.0);
    EXPECT_LE(rng.next_open_double(), 1.0);
  }
}

TEST(Pcg32, MeanOfUniformsNearHalf) {
  Pcg32 rng(2024, 3);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.005);
}

TEST(RngStream, LabeledStreamsReproducible) {
  RngStream a(1, hash_label("app/node3"));
  RngStream b(1, hash_label("app/node3"));
  RngStream c(1, hash_label("app/node4"));
  EXPECT_EQ(a.next_u64(), b.next_u64());
  RngStream a2(1, hash_label("app/node3"));
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(RngStream, GlobalSeedChangesEverything) {
  RngStream a(1, 5, 6);
  RngStream b(2, 5, 6);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace paradyn::des
