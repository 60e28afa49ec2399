#include "util/distributions.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace spinscope::util {

double sample_standard_normal(Rng& rng) {
    // Box–Muller; u1 is kept away from 0 so log() stays finite.
    double u1 = rng.uniform_double();
    if (u1 < 1e-300) u1 = 1e-300;
    const double u2 = rng.uniform_double();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double sample_normal(Rng& rng, double mu, double sigma) {
    return mu + sigma * sample_standard_normal(rng);
}

double sample_lognormal(Rng& rng, double mu, double sigma) {
    return std::exp(sample_normal(rng, mu, sigma));
}

DiscreteSampler::DiscreteSampler(std::span<const double> weights) {
    cdf_.resize(weights.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] < 0.0) throw std::invalid_argument{"DiscreteSampler: negative weight"};
        acc += weights[i];
        cdf_[i] = acc;
    }
    if (!weights.empty()) {
        if (acc <= 0.0) throw std::invalid_argument{"DiscreteSampler: zero total weight"};
        for (auto& v : cdf_) v /= acc;
        cdf_.back() = 1.0;
    }
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
    assert(!cdf_.empty());
    const double u = rng.uniform_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

DelayMixture::DelayMixture(std::vector<DelayComponent> components)
    : components_{std::move(components)} {
    std::vector<double> weights;
    weights.reserve(components_.size());
    for (const auto& c : components_) weights.push_back(c.weight);
    picker_ = DiscreteSampler{weights};
}

Duration DelayMixture::sample(Rng& rng) const {
    if (components_.empty()) return Duration::zero();
    const auto& c = components_[picker_.sample(rng)];
    const double ms = c.offset_ms + sample_lognormal(rng, c.mu, c.sigma);
    return Duration::from_ms(std::max(0.0, ms));
}

}  // namespace spinscope::util
