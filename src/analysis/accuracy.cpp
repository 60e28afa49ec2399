#include "analysis/accuracy.hpp"

#include <cmath>
#include <sstream>

#include "util/format.hpp"

namespace spinscope::analysis {

namespace {

// Figure 3 bins: milliseconds of absolute difference spin - QUIC.
std::vector<double> abs_edges() {
    return {-400, -200, -100, -50, -25, 0, 25, 50, 100, 200, 400, 800, 1600};
}

// Figure 4 bins: mapped ratio in (-inf,-1] u [1,inf).
std::vector<double> ratio_edges() {
    return {-8, -4, -3, -2, -1.25, -1.0, 1.0, 1.25, 1.5, 2, 3, 4, 8, 16};
}

[[nodiscard]] double share(std::uint64_t n, std::uint64_t total) {
    return total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total);
}

}  // namespace

double ReorderingImpact::differing_share() const noexcept {
    return connections == 0 ? 0.0
                            : static_cast<double>(differing) / static_cast<double>(connections);
}

double ReorderingImpact::below_1ms_share() const noexcept {
    return differing == 0 ? 0.0
                          : static_cast<double>(diff_below_1ms) / static_cast<double>(differing);
}

double ReorderingImpact::improved_share() const noexcept {
    return differing == 0 ? 0.0
                          : static_cast<double>(improved) / static_cast<double>(differing);
}

AccuracyAggregator::AccuracyAggregator() {
    for (std::size_t i = 0; i < kSeriesCount; ++i) {
        abs_.emplace_back(abs_edges());
        ratio_.emplace_back(ratio_edges());
    }
}

void AccuracyAggregator::add_series(AccuracySeries series,
                                    const core::ConnectionAssessment& assessment,
                                    core::PacketOrder order) {
    const auto abs_diff = assessment.abs_diff_ms(order);
    const auto ratio = assessment.mapped_ratio(order);
    if (!abs_diff || !ratio) return;
    const auto idx = static_cast<std::size_t>(series);
    abs_[idx].add(*abs_diff);
    ratio_[idx].add(*ratio);
    HeadlineCounts& c = counts_[idx];
    ++c.connections;
    if (*abs_diff > 0.0) ++c.overestimate;
    if (std::fabs(*abs_diff) <= 25.0) ++c.within_25ms;
    if (*abs_diff > 200.0) ++c.over_200ms;
    if (std::fabs(*ratio) <= 1.25) ++c.within_ratio_125;
    if (std::fabs(*ratio) <= 2.0) ++c.within_ratio_2;
    if (*ratio > 3.0) ++c.over_ratio_3;
    if (*ratio < 0.0) ++c.underestimate;
}

void AccuracyAggregator::add(const core::ConnectionAssessment& assessment) {
    using core::PacketOrder;
    using core::SpinBehavior;
    if (assessment.behavior == SpinBehavior::spinning) {
        add_series(AccuracySeries::spin_received, assessment, PacketOrder::received);
        add_series(AccuracySeries::spin_sorted, assessment, PacketOrder::sorted);

        const auto mean_r = assessment.abs_diff_ms(PacketOrder::received);
        const auto mean_s = assessment.abs_diff_ms(PacketOrder::sorted);
        if (mean_r && mean_s) {
            ++reordering_.connections;
            const double delta = std::fabs(*mean_r - *mean_s);
            if (delta > 1e-9) {
                ++reordering_.differing;
                if (delta < 1.0) ++reordering_.diff_below_1ms;
                if (std::fabs(*mean_s) < std::fabs(*mean_r)) ++reordering_.improved;
            }
        }
    } else if (assessment.behavior == SpinBehavior::greased) {
        add_series(AccuracySeries::grease_received, assessment, PacketOrder::received);
        add_series(AccuracySeries::grease_sorted, assessment, PacketOrder::sorted);
    }
}

AccuracyHeadline AccuracyAggregator::headline(AccuracySeries s) const {
    const HeadlineCounts& c = counts_[static_cast<std::size_t>(s)];
    AccuracyHeadline h;
    h.connections = c.connections;
    h.overestimate_share = share(c.overestimate, c.connections);
    h.within_25ms_share = share(c.within_25ms, c.connections);
    h.over_200ms_share = share(c.over_200ms, c.connections);
    h.within_ratio_125_share = share(c.within_ratio_125, c.connections);
    h.within_ratio_2_share = share(c.within_ratio_2, c.connections);
    h.over_ratio_3_share = share(c.over_ratio_3, c.connections);
    h.underestimate_share = share(c.underestimate, c.connections);
    return h;
}

namespace {

std::string render_histogram(const char* title,
                             const std::vector<const util::Histogram*>& series,
                             const std::vector<const char*>& labels,
                             const char* unit) {
    std::ostringstream out;
    out << title << "\n";
    util::TextTable table;
    std::vector<std::string> header{std::string{"bin ("} + unit + ")"};
    for (const auto* label : labels) header.emplace_back(label);
    table.add_row(std::move(header));

    const auto& edges = series.front()->edges();
    auto row_for = [&](const std::string& name, auto getter) {
        std::vector<std::string> row{name};
        for (const auto* h : series) row.push_back(util::percent(getter(*h), 2));
        table.add_row(std::move(row));
    };
    row_for("< " + util::fixed(edges.front(), 2),
            [](const util::Histogram& h) { return h.underflow_share(); });
    for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
        row_for("[" + util::fixed(edges[b], 2) + ", " + util::fixed(edges[b + 1], 2) + ")",
                [b](const util::Histogram& h) { return h.share(b); });
    }
    row_for(">= " + util::fixed(edges.back(), 2),
            [](const util::Histogram& h) { return h.overflow_share(); });
    out << table.render();
    return out.str();
}

}  // namespace

std::string AccuracyAggregator::render_abs_figure() const {
    return render_histogram(
        "Figure 3: abs. difference between means of spin-bit and QUIC estimate",
        {&abs_[0], &abs_[1], &abs_[2], &abs_[3]},
        {to_cstring(AccuracySeries::spin_received), to_cstring(AccuracySeries::spin_sorted),
         to_cstring(AccuracySeries::grease_received),
         to_cstring(AccuracySeries::grease_sorted)},
        "ms");
}

std::string AccuracyAggregator::render_ratio_figure() const {
    return render_histogram(
        "Figure 4: mapped ratio of the means of spin-bit and QUIC estimate",
        {&ratio_[0], &ratio_[1], &ratio_[2], &ratio_[3]},
        {to_cstring(AccuracySeries::spin_received), to_cstring(AccuracySeries::spin_sorted),
         to_cstring(AccuracySeries::grease_received),
         to_cstring(AccuracySeries::grease_sorted)},
        "x");
}

std::string AccuracyAggregator::render_reordering_impact() const {
    std::ostringstream out;
    out << "Reordering impact (Spin connections, R vs S):\n";
    out << "  comparable connections : " << reordering_.connections << "\n";
    out << "  differing R/S results  : " << reordering_.differing << " ("
        << util::percent(reordering_.differing_share(), 2) << ")   [paper: 0.28 %]\n";
    out << "  |difference| < 1 ms    : " << util::percent(reordering_.below_1ms_share(), 1)
        << " of differing   [paper: 98.7 %]\n";
    out << "  sorting improves result: " << util::percent(reordering_.improved_share(), 1)
        << " of differing   [paper: 93.1 %]\n";
    return out.str();
}

std::string AccuracyAggregator::render_headlines() const {
    std::ostringstream out;
    util::TextTable table;
    table.add_row({"Series", "conns", ">0 (over)", "<=25ms", ">200ms", "<=1.25x", "<=2x",
                   ">3x", "under (<0)"});
    for (std::size_t i = 0; i < kSeriesCount; ++i) {
        const auto h = headline(static_cast<AccuracySeries>(i));
        table.add_row({to_cstring(static_cast<AccuracySeries>(i)),
                       std::to_string(h.connections), util::percent(h.overestimate_share),
                       util::percent(h.within_25ms_share), util::percent(h.over_200ms_share),
                       util::percent(h.within_ratio_125_share),
                       util::percent(h.within_ratio_2_share),
                       util::percent(h.over_ratio_3_share),
                       util::percent(h.underestimate_share)});
    }
    table.add_row({"paper Spin(R)", "~86M", "97.7 %", "28.8 %", "41.3 %", "30.5 %", "36.0 %",
                   "51.7 %", "2.3 %"});
    table.add_row({"paper Grease(R)", "", "", "", "", "", "62.5 %", "", "46.0 %"});
    out << table.render();
    return out.str();
}

}  // namespace spinscope::analysis
