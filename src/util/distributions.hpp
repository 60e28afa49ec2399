// spinscope/util/distributions.hpp
//
// Deterministic sampling distributions used to synthesize workloads:
// lognormal end-host think times, discrete weighted choices for
// provider/stack assignment, and mixtures for heavy-tailed server behaviour. All sampling goes through util::Rng so results are reproducible
// across platforms (std::lognormal_distribution et al. are not).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::util {

/// Standard normal via Box–Muller (deterministic, no libm-version drift in
/// the inputs since both uniforms come from Rng).
[[nodiscard]] double sample_standard_normal(Rng& rng);

/// Normal with mean `mu` and standard deviation `sigma`.
[[nodiscard]] double sample_normal(Rng& rng, double mu, double sigma);

/// Lognormal: exp(N(mu, sigma)). Used for network jitter and server
/// think-time tails.
[[nodiscard]] double sample_lognormal(Rng& rng, double mu, double sigma);

/// Weighted discrete choice over indices [0, weights.size()).
/// Used to assign domains to providers and providers to webserver stacks.
class DiscreteSampler {
public:
    /// Weights must be non-negative with a positive sum.
    explicit DiscreteSampler(std::span<const double> weights);

    [[nodiscard]] std::size_t sample(Rng& rng) const;

    [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

private:
    std::vector<double> cdf_;
};

/// One component of a think-time mixture: with probability `weight`, the
/// server's extra processing delay is lognormal(mu, sigma) milliseconds,
/// shifted by `offset_ms`.
struct DelayComponent {
    double weight = 1.0;      ///< relative mixture weight (>= 0)
    double mu = 0.0;          ///< lognormal mu (of the millisecond value)
    double sigma = 0.5;       ///< lognormal sigma
    double offset_ms = 0.0;   ///< constant additive offset in milliseconds
};

/// Mixture of shifted-lognormal delays, in milliseconds. This is the
/// workhorse for modelling end-host processing delay: the paper's Fig. 3/4
/// shapes (30% accurate / 50% >3x overestimate) come from a mixture of fast,
/// moderate and slow servers.
class DelayMixture {
public:
    DelayMixture() = default;
    explicit DelayMixture(std::vector<DelayComponent> components);

    /// Samples one delay; never negative.
    [[nodiscard]] Duration sample(Rng& rng) const;

    [[nodiscard]] bool empty() const noexcept { return components_.empty(); }
    [[nodiscard]] const std::vector<DelayComponent>& components() const noexcept {
        return components_;
    }

private:
    std::vector<DelayComponent> components_;
    DiscreteSampler picker_{std::span<const double>{}};
};

}  // namespace spinscope::util
