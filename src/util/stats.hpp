// spinscope/util/stats.hpp
//
// Quantiles and binned histograms used by the analysis pipeline
// (per-connection RTT aggregation, Figures 2-4 of the paper).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace spinscope::util {

/// Linear-interpolation quantile of an unsorted sample (copies + sorts).
/// q in [0, 1]; returns nullopt for an empty sample.
[[nodiscard]] std::optional<double> quantile(std::span<const double> values, double q);

/// Histogram over explicit bin edges, with underflow/overflow buckets.
///
/// Edges e0 < e1 < ... < ek define bins [e0,e1), [e1,e2), ..., [e(k-1),ek).
/// Values < e0 land in the underflow bucket, values >= ek in overflow.
/// Used directly to regenerate the paper's Figures 3 and 4.
class Histogram {
public:
    /// Requires at least two strictly increasing edges.
    explicit Histogram(std::vector<double> edges);

    void add(double value) noexcept;
    void add_n(double value, std::uint64_t n) noexcept;

    [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
    [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
    [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
    [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    [[nodiscard]] const std::vector<double>& edges() const noexcept { return edges_; }

    /// Share of all added values (including under/overflow) in bin i.
    [[nodiscard]] double share(std::size_t i) const;
    [[nodiscard]] double underflow_share() const noexcept;
    [[nodiscard]] double overflow_share() const noexcept;

private:
    std::vector<double> edges_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/// Integer-category histogram for small domains (e.g. "spun in k of 12
/// weeks", k in [0, 12]) — Figure 2.
class CategoricalCounts {
public:
    explicit CategoricalCounts(std::size_t categories) : counts_(categories, 0) {}

    void add(std::size_t category, std::uint64_t n = 1);

    [[nodiscard]] std::size_t categories() const noexcept { return counts_.size(); }
    [[nodiscard]] std::uint64_t count(std::size_t category) const { return counts_.at(category); }
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    [[nodiscard]] double share(std::size_t category) const;

private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Binomial pmf P[X = k] for X ~ Bin(n, p); computed in log-space for
/// stability. Used for the Figure 2 "RFC 9000 / RFC 9312" theoretical
/// curves (spin enabled with p = 15/16 resp. 7/8 per connection).
[[nodiscard]] double binomial_pmf(unsigned n, unsigned k, double p);

}  // namespace spinscope::util
