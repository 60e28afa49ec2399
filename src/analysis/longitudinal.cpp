#include "analysis/longitudinal.hpp"

#include <bit>
#include <sstream>

#include "util/format.hpp"

namespace spinscope::analysis {

void LongitudinalAggregator::add_domain(std::uint32_t connected_mask,
                                        std::uint32_t spun_mask) {
    const std::uint32_t all = all_weeks_mask();
    spun_mask &= all;
    if (spun_mask == 0) return;
    ++spun_any_;
    if ((connected_mask & all) != all) return;
    ++connected_all_;
    ++histogram_[static_cast<std::size_t>(std::popcount(spun_mask))];
}

util::CategoricalCounts LongitudinalAggregator::weeks_spinning_histogram() const {
    util::CategoricalCounts counts{weeks_ + 1};
    for (std::size_t k = 0; k < histogram_.size(); ++k) {
        if (histogram_[k] > 0) counts.add(k, histogram_[k]);
    }
    return counts;
}

std::vector<double> LongitudinalAggregator::rfc_shares(unsigned lottery) const {
    // Per connection, spin is active with p = (lottery-1)/lottery; condition
    // the binomial on "active at least once in n weeks".
    const double p = lottery == 0
                         ? 1.0
                         : (static_cast<double>(lottery) - 1.0) / static_cast<double>(lottery);
    std::vector<double> shares(weeks_ + 1, 0.0);
    const double none = util::binomial_pmf(weeks_, 0, p);
    const double norm = 1.0 - none;
    for (unsigned k = 1; k <= weeks_; ++k) {
        shares[k] = util::binomial_pmf(weeks_, k, p) / (norm > 0.0 ? norm : 1.0);
    }
    return shares;
}

std::string LongitudinalAggregator::render_figure() const {
    const auto histogram = weeks_spinning_histogram();
    const auto rfc9000 = rfc_shares(16);
    const auto rfc9312 = rfc_shares(8);

    std::ostringstream out;
    out << "Figure 2: weeks with spin bit enabled (of " << weeks_ << " sampled weeks)\n";
    out << "  domains spinning in any week : " << spun_any() << "\n";
    out << "  thereof connected every week : " << connected_all() << "\n";
    util::TextTable table;
    table.add_row({"weeks", "measured", "RFC 9000 (1/16)", "RFC 9312 (1/8)"});
    for (unsigned k = 1; k <= weeks_; ++k) {
        table.add_row({std::to_string(k), util::percent(histogram.share(k)),
                       util::percent(rfc9000[k]), util::percent(rfc9312[k])});
    }
    out << table.render();
    out << "\n";
    for (unsigned k = 1; k <= weeks_; ++k) {
        out << util::bar_line("  " + std::to_string(k) + (k < 10 ? " " : "") + " wk",
                              histogram.share(k), 40)
            << "\n";
    }
    return out.str();
}

}  // namespace spinscope::analysis
