// spinscope/analysis/longitudinal.hpp
//
// Longitudinal RFC-compliance analysis (paper §4.3, Figure 2): across n
// sampled measurement weeks, how many weeks did each spin-capable domain
// actually spin? Compared against the binomial behaviour RFC 9000 (disable
// 1-in-16) and RFC 9312 (1-in-8) would predict for an always-capable host.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace spinscope::analysis {

/// Collects per-domain weekly outcomes over a campaign. The caller visits
/// each domain once with its full weekly bitmasks (domains-outer,
/// weeks-inner sweeps) and the aggregator folds it into O(weeks) counters on
/// the spot, so memory is independent of the domain count.
class LongitudinalAggregator {
public:
    /// `weeks` = number of sampled measurement weeks (the paper uses 12).
    explicit LongitudinalAggregator(unsigned weeks)
        : weeks_{weeks}, histogram_(static_cast<std::size_t>(weeks) + 1, 0) {}

    /// Records one domain's complete campaign. Bit w of each mask is week
    /// w's outcome; bits at or above weeks() are ignored.
    void add_domain(std::uint32_t connected_mask, std::uint32_t spun_mask);

    /// Number of domains that spun in at least one week.
    [[nodiscard]] std::uint64_t spun_any() const noexcept { return spun_any_; }
    /// Number of those connectable in every week (Figure 2's population).
    [[nodiscard]] std::uint64_t connected_all() const noexcept { return connected_all_; }

    /// Histogram over k = 1..weeks of "spun in exactly k weeks", relative to
    /// the Figure 2 population (spun >= 1 week, connected every week).
    [[nodiscard]] util::CategoricalCounts weeks_spinning_histogram() const;

    /// Theoretical share for k of n weeks if the host always participates
    /// and disables via a fair 1-in-`lottery` per-connection draw,
    /// conditioned on spinning at least once (as the empirical histogram is).
    [[nodiscard]] std::vector<double> rfc_shares(unsigned lottery) const;

    /// Figure 2 rendering: empirical histogram plus RFC 9000/9312 overlays.
    [[nodiscard]] std::string render_figure() const;

    [[nodiscard]] unsigned weeks() const noexcept { return weeks_; }

private:
    [[nodiscard]] std::uint32_t all_weeks_mask() const noexcept {
        return (weeks_ >= 32) ? ~0U : ((1U << weeks_) - 1);
    }

    unsigned weeks_;
    std::uint64_t spun_any_ = 0;
    std::uint64_t connected_all_ = 0;
    std::vector<std::uint64_t> histogram_;  ///< weeks-spinning counts, index k
};

}  // namespace spinscope::analysis
