// Unit tests of the Walker/Vose alias table over empirical CDF segments:
// construction (tie merging, atoms, degenerate samples), draw-path
// invariants (hull containment, one u64 per draw), and distributional
// agreement with the quantile path it replaces (full KS gate at 1e6 draws
// lives in stat_equiv_test.cpp).
#include "stats/alias_table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "des/random.hpp"

namespace paradyn::stats {
namespace {

TEST(AliasTable, MergesTiedSegmentsIntoColumns) {
  // Segments: (1,2) (2,2)=atom (2,2)=atom (2,5) -> atoms merge: 3 columns.
  const AliasTable t = AliasTable::from_sorted_values({1.0, 2.0, 2.0, 2.0, 5.0});
  EXPECT_EQ(t.columns(), 3U);
  EXPECT_FALSE(t.degenerate());
}

TEST(AliasTable, SingleValueIsDegenerate) {
  const AliasTable t = AliasTable::from_sorted_values({4.5});
  EXPECT_TRUE(t.degenerate());
  des::RngStream rng(1, 1);
  const auto before = rng;
  EXPECT_EQ(t(rng), 4.5);
  // Degenerate draws consume no randomness.
  EXPECT_EQ(rng.next_u64(), des::RngStream(before).next_u64());
}

TEST(AliasTable, EmptySampleRejected) {
  EXPECT_THROW((void)AliasTable::from_sorted_values({}), std::invalid_argument);
}

TEST(AliasTable, DrawsStayInsideHull) {
  const AliasTable t = AliasTable::from_sorted_values({1.0, 2.0, 2.0, 4.0, 9.0});
  des::RngStream rng(3, 5);
  for (int i = 0; i < 50'000; ++i) {
    const double x = t(rng);
    ASSERT_GE(x, 1.0);
    ASSERT_LE(x, 9.0);
  }
}

TEST(AliasTable, OneU64PerDraw) {
  for (const auto& data : std::vector<std::vector<double>>{
           {1.0, 2.0},                      // single column, no alias test
           {1.0, 2.0, 4.0, 8.0},            // multi-column
           {1.0, 1.0, 1.0, 2.0, 2.0, 3.0},  // ties / atoms
       }) {
    const AliasTable t = AliasTable::from_sorted_values(data);
    des::RngStream rng_draw(7, 7);
    des::RngStream rng_count(7, 7);
    for (int i = 0; i < 1'000; ++i) {
      (void)t(rng_draw);
      (void)rng_count.next_u64();
    }
    ASSERT_EQ(rng_draw.next_u64(), rng_count.next_u64()) << "columns=" << t.columns();
  }
}

// The alias table samples the same mixture the quantile path does: each of
// the n-1 segments with weight 1/(n-1), uniform inside.  Check the mean
// (average segment midpoint) and an atom's point mass.
TEST(AliasTable, MatchesQuantilePathMixtureMoments) {
  const std::vector<double> data{1.0, 2.0, 2.0, 2.0, 4.0, 8.0, 32.0};
  const AliasTable t = AliasTable::from_sorted_values(data);
  double mixture_mean = 0.0;
  for (std::size_t i = 0; i + 1 < data.size(); ++i) mixture_mean += (data[i] + data[i + 1]) / 2.0;
  mixture_mean /= static_cast<double>(data.size() - 1);

  des::RngStream rng(11, 13);
  constexpr std::size_t kDraws = 400'000;
  double sum = 0.0;
  std::size_t atoms = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double x = t(rng);
    sum += x;
    if (x == 2.0) ++atoms;
  }
  EXPECT_NEAR(sum / static_cast<double>(kDraws), mixture_mean, 0.05);
  // Two degenerate (2,2) segments out of six -> P(X == 2) = 1/3 (the
  // continuous segments contribute measure-zero mass at the point).
  const double atom_prob = static_cast<double>(atoms) / static_cast<double>(kDraws);
  EXPECT_NEAR(atom_prob, 1.0 / 3.0, 0.005);
}

}  // namespace
}  // namespace paradyn::stats
