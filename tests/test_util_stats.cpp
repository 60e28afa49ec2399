// Unit tests for util statistics: quantile, Histogram,
// CategoricalCounts and the binomial pmf used for Figure 2's RFC overlays.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace spinscope::util {
namespace {

TEST(Quantile, EmptyReturnsNullopt) {
    EXPECT_FALSE(quantile({}, 0.5).has_value());
}

TEST(Quantile, MedianAndExtremes) {
    const std::vector<double> v{5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(*quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(*quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(*quantile(v, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
    const std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(*quantile(v, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(*quantile(v, 0.75), 7.5);
}

TEST(Quantile, ClampsQ) {
    const std::vector<double> v{1.0, 2.0};
    EXPECT_DOUBLE_EQ(*quantile(v, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(*quantile(v, 2.0), 2.0);
}

TEST(Histogram, RejectsBadEdges) {
    EXPECT_THROW(Histogram({1.0}), std::invalid_argument);
    EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BinsAndOverflow) {
    Histogram h{{0.0, 10.0, 20.0}};
    h.add(-1.0);   // underflow
    h.add(0.0);    // bin 0 (inclusive lower edge)
    h.add(9.999);  // bin 0
    h.add(10.0);   // bin 1
    h.add(19.0);   // bin 1
    h.add(20.0);   // overflow (exclusive upper edge)
    h.add(99.0);   // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.bin(0), 2u);
    EXPECT_EQ(h.bin(1), 2u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_NEAR(h.share(0), 2.0 / 7.0, 1e-12);
    EXPECT_NEAR(h.underflow_share(), 1.0 / 7.0, 1e-12);
    EXPECT_NEAR(h.overflow_share(), 2.0 / 7.0, 1e-12);
}

TEST(Histogram, AddNWeights) {
    Histogram h{{0.0, 1.0}};
    h.add_n(0.5, 10);
    EXPECT_EQ(h.bin(0), 10u);
    EXPECT_EQ(h.total(), 10u);
}

TEST(Histogram, EmptySharesAreZero) {
    Histogram h{{0.0, 1.0}};
    EXPECT_DOUBLE_EQ(h.share(0), 0.0);
}

TEST(CategoricalCounts, SharesAndBounds) {
    CategoricalCounts c{3};
    c.add(0);
    c.add(2, 3);
    EXPECT_EQ(c.total(), 4u);
    EXPECT_NEAR(c.share(2), 0.75, 1e-12);
    EXPECT_NEAR(c.share(1), 0.0, 1e-12);
    EXPECT_THROW(c.add(3), std::out_of_range);
}

TEST(BinomialPmf, MatchesClosedForm) {
    // Bin(4, 0.5): 1/16, 4/16, 6/16, 4/16, 1/16.
    EXPECT_NEAR(binomial_pmf(4, 0, 0.5), 1.0 / 16, 1e-12);
    EXPECT_NEAR(binomial_pmf(4, 2, 0.5), 6.0 / 16, 1e-12);
    EXPECT_NEAR(binomial_pmf(4, 4, 0.5), 1.0 / 16, 1e-12);
}

TEST(BinomialPmf, EdgeProbabilities) {
    EXPECT_DOUBLE_EQ(binomial_pmf(5, 0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(binomial_pmf(5, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(binomial_pmf(5, 5, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(binomial_pmf(5, 2, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(binomial_pmf(5, 6, 0.5), 0.0);  // k > n
}

TEST(BinomialPmf, RfcLotteryValues) {
    // The Figure 2 overlay: spinning in all 12 weeks with p = 15/16.
    EXPECT_NEAR(binomial_pmf(12, 12, 15.0 / 16.0), std::pow(15.0 / 16.0, 12), 1e-12);
    EXPECT_NEAR(binomial_pmf(12, 12, 7.0 / 8.0), std::pow(7.0 / 8.0, 12), 1e-12);
}

// Property: pmf sums to 1 for a sweep of (n, p).
class BinomialSum : public ::testing::TestWithParam<std::pair<unsigned, double>> {};

TEST_P(BinomialSum, SumsToOne) {
    const auto [n, p] = GetParam();
    double sum = 0.0;
    for (unsigned k = 0; k <= n; ++k) sum += binomial_pmf(n, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinomialSum,
                         ::testing::Values(std::pair{1u, 0.5}, std::pair{12u, 15.0 / 16.0},
                                           std::pair{12u, 7.0 / 8.0}, std::pair{30u, 0.1},
                                           std::pair{64u, 0.9}));

}  // namespace
}  // namespace spinscope::util
