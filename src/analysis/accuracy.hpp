// spinscope/analysis/accuracy.hpp
//
// RTT accuracy analysis (paper §5, Figures 3 and 4): histograms of the
// absolute difference and the mapped ratio between per-connection means of
// spin-bit estimates and the QUIC stack baseline, for Spin and Grease
// connections, in received (R) and packet-number-sorted (S) order — plus the
// §5.2 reordering-impact statistics.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "util/stats.hpp"

namespace spinscope::analysis {

/// The four series of Figures 3/4.
enum class AccuracySeries : std::uint8_t {
    spin_received = 0,   ///< Spin (R)
    spin_sorted = 1,     ///< Spin (S)
    grease_received = 2, ///< Grease (R)
    grease_sorted = 3,   ///< Grease (S)
};
inline constexpr std::size_t kSeriesCount = 4;

[[nodiscard]] constexpr const char* to_cstring(AccuracySeries s) noexcept {
    switch (s) {
        case AccuracySeries::spin_received: return "Spin (R)";
        case AccuracySeries::spin_sorted: return "Spin (S)";
        case AccuracySeries::grease_received: return "Grease (R)";
        case AccuracySeries::grease_sorted: return "Grease (S)";
    }
    return "?";
}

/// Headline numbers the paper quotes for one series.
struct AccuracyHeadline {
    std::uint64_t connections = 0;
    double overestimate_share = 0.0;      ///< abs diff > 0 (97.7 % for Spin R)
    double within_25ms_share = 0.0;       ///< |abs diff| <= 25 ms (28.8 %)
    double over_200ms_share = 0.0;        ///< abs diff > 200 ms (41.3 %)
    double within_ratio_125_share = 0.0;  ///< |ratio| <= 1.25 (30.5 %)
    double within_ratio_2_share = 0.0;    ///< |ratio| <= 2 (36.0 %)
    double over_ratio_3_share = 0.0;      ///< ratio > 3 (51.7 %)
    double underestimate_share = 0.0;     ///< ratio < 0 (Grease: 46.0 %)
};

/// §5.2 reordering impact (Spin connections, R vs S).
struct ReorderingImpact {
    std::uint64_t connections = 0;       ///< comparable spin connections
    std::uint64_t differing = 0;         ///< mean(R) != mean(S)
    std::uint64_t diff_below_1ms = 0;    ///< |mean(R)-mean(S)| < 1 ms
    std::uint64_t improved = 0;          ///< sorting moved mean toward QUIC
    [[nodiscard]] double differing_share() const noexcept;
    [[nodiscard]] double below_1ms_share() const noexcept;
    [[nodiscard]] double improved_share() const noexcept;
};

/// Streaming accuracy aggregator; feed every spin-candidate connection.
class AccuracyAggregator {
public:
    AccuracyAggregator();

    /// Adds one assessed connection (ignores non-candidates).
    void add(const core::ConnectionAssessment& assessment);

    [[nodiscard]] const util::Histogram& abs_histogram(AccuracySeries s) const {
        return abs_[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] const util::Histogram& ratio_histogram(AccuracySeries s) const {
        return ratio_[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] AccuracyHeadline headline(AccuracySeries s) const;
    [[nodiscard]] const ReorderingImpact& reordering() const noexcept { return reordering_; }

    /// Figure 3: relative histogram of abs differences, all four series.
    [[nodiscard]] std::string render_abs_figure() const;
    /// Figure 4: relative histogram of mapped ratios, all four series.
    [[nodiscard]] std::string render_ratio_figure() const;
    /// §5.2 text block.
    [[nodiscard]] std::string render_reordering_impact() const;
    /// Headline numbers vs the paper's, for EXPERIMENTS.md-style output.
    [[nodiscard]] std::string render_headlines() const;

private:
    void add_series(AccuracySeries series, const core::ConnectionAssessment& assessment,
                    core::PacketOrder order);

    /// Per series, the connections each headline share counts: its state
    /// is fixed-size however many connections are added.
    struct HeadlineCounts {
        std::uint64_t connections = 0;
        std::uint64_t overestimate = 0;
        std::uint64_t within_25ms = 0;
        std::uint64_t over_200ms = 0;
        std::uint64_t within_ratio_125 = 0;
        std::uint64_t within_ratio_2 = 0;
        std::uint64_t over_ratio_3 = 0;
        std::uint64_t underestimate = 0;
    };

    std::vector<util::Histogram> abs_;
    std::vector<util::Histogram> ratio_;
    std::array<HeadlineCounts, kSeriesCount> counts_{};
    ReorderingImpact reordering_;
};

}  // namespace spinscope::analysis
