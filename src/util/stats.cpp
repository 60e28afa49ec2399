#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spinscope::util {

std::optional<double> quantile(std::span<const double> values, double q) {
    if (values.empty()) return std::nullopt;
    q = std::clamp(q, 0.0, 1.0);
    std::vector<double> sorted{values.begin(), values.end()};
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(std::vector<double> edges) : edges_{std::move(edges)} {
    if (edges_.size() < 2) throw std::invalid_argument{"Histogram: need >= 2 edges"};
    if (!std::is_sorted(edges_.begin(), edges_.end()) ||
        std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
        throw std::invalid_argument{"Histogram: edges must be strictly increasing"};
    }
    counts_.assign(edges_.size() - 1, 0);
}

void Histogram::add(double value) noexcept { add_n(value, 1); }

void Histogram::add_n(double value, std::uint64_t n) noexcept {
    total_ += n;
    if (value < edges_.front()) {
        underflow_ += n;
        return;
    }
    if (value >= edges_.back()) {
        overflow_ += n;
        return;
    }
    const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
    counts_[static_cast<std::size_t>(it - edges_.begin()) - 1] += n;
}

double Histogram::share(std::size_t i) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

double Histogram::underflow_share() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(underflow_) / static_cast<double>(total_);
}

double Histogram::overflow_share() const noexcept {
    return total_ == 0 ? 0.0 : static_cast<double>(overflow_) / static_cast<double>(total_);
}

void CategoricalCounts::add(std::size_t category, std::uint64_t n) {
    counts_.at(category) += n;
    total_ += n;
}

double CategoricalCounts::share(std::size_t category) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(counts_.at(category)) / static_cast<double>(total_);
}

double binomial_pmf(unsigned n, unsigned k, double p) {
    if (k > n) return 0.0;
    if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0) return k == n ? 1.0 : 0.0;
    const double log_choose = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                              std::lgamma(static_cast<double>(n - k) + 1.0);
    const double log_pmf = log_choose + k * std::log(p) +
                           static_cast<double>(n - k) * std::log1p(-p);
    return std::exp(log_pmf);
}

}  // namespace spinscope::util
