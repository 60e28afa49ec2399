// Unit tests for util sampling distributions.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "util/distributions.hpp"
#include "util/stats.hpp"

namespace spinscope::util {
namespace {

TEST(Normal, MomentsApproximatelyCorrect) {
    Rng rng{1};
    std::vector<double> values;
    for (int i = 0; i < 40000; ++i) values.push_back(sample_normal(rng, 3.0, 2.0));
    double sum = 0.0;
    for (const double v : values) sum += v;
    const double mean = sum / static_cast<double>(values.size());
    double squares = 0.0;
    for (const double v : values) squares += (v - mean) * (v - mean);
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(std::sqrt(squares / static_cast<double>(values.size() - 1)), 2.0, 0.05);
}

TEST(Lognormal, MedianIsExpMu) {
    Rng rng{2};
    std::vector<double> values;
    for (int i = 0; i < 20001; ++i) values.push_back(sample_lognormal(rng, std::log(25.0), 0.8));
    EXPECT_NEAR(*quantile(values, 0.5), 25.0, 1.0);
    for (double v : values) ASSERT_GT(v, 0.0);
}

TEST(Discrete, RejectsInvalidWeights) {
    const std::vector<double> negative{1.0, -0.5};
    EXPECT_THROW(DiscreteSampler{std::span<const double>{negative}}, std::invalid_argument);
    const std::vector<double> zeros{0.0, 0.0};
    EXPECT_THROW(DiscreteSampler{std::span<const double>{zeros}}, std::invalid_argument);
}

TEST(Discrete, MatchesWeights) {
    Rng rng{7};
    const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
    DiscreteSampler sampler{weights};
    std::array<int, 4> counts{};
    for (int i = 0; i < 50000; ++i) ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / 50000.0, 0.1, 0.01);
    EXPECT_NEAR(counts[1] / 50000.0, 0.3, 0.015);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[3] / 50000.0, 0.6, 0.015);
}

TEST(DelayMixture, EmptyYieldsZero) {
    Rng rng{8};
    DelayMixture mixture;
    EXPECT_TRUE(mixture.empty());
    EXPECT_EQ(mixture.sample(rng), Duration::zero());
}

TEST(DelayMixture, NeverNegative) {
    Rng rng{9};
    DelayMixture mixture{{
        DelayComponent{0.5, std::log(0.001), 2.0, -5.0},  // offset pulls negative
        DelayComponent{0.5, std::log(10.0), 0.5, 0.0},
    }};
    for (int i = 0; i < 5000; ++i) ASSERT_GE(mixture.sample(rng).count_nanos(), 0);
}

TEST(DelayMixture, SingleComponentMedian) {
    Rng rng{10};
    DelayMixture mixture{{DelayComponent{1.0, std::log(40.0), 0.6, 10.0}}};
    std::vector<double> values;
    for (int i = 0; i < 20001; ++i) values.push_back(mixture.sample(rng).as_ms());
    // Median of offset + lognormal = 10 + 40.
    EXPECT_NEAR(*quantile(values, 0.5), 50.0, 2.0);
}

TEST(DelayMixture, ComponentWeightsRespected) {
    Rng rng{11};
    // Two well-separated components; classify samples by a midpoint.
    DelayMixture mixture{{
        DelayComponent{0.25, std::log(1.0), 0.1, 0.0},
        DelayComponent{0.75, std::log(1000.0), 0.1, 0.0},
    }};
    int slow = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
        if (mixture.sample(rng).as_ms() > 100.0) ++slow;
    }
    EXPECT_NEAR(static_cast<double>(slow) / kTrials, 0.75, 0.02);
}

// Property sweep: lognormal quantiles scale with sigma.
class LognormalSigma : public ::testing::TestWithParam<double> {};

TEST_P(LognormalSigma, NinetiethPercentileMatchesTheory) {
    const double sigma = GetParam();
    Rng rng{static_cast<std::uint64_t>(sigma * 1000)};
    std::vector<double> values;
    for (int i = 0; i < 30001; ++i) values.push_back(sample_lognormal(rng, 0.0, sigma));
    const double p90_theory = std::exp(1.2815515655 * sigma);
    EXPECT_NEAR(*quantile(values, 0.9) / p90_theory, 1.0, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, LognormalSigma, ::testing::Values(0.25, 0.5, 1.0, 1.5));

}  // namespace
}  // namespace spinscope::util
