// bench/bench_fig2.cpp
//
// Regenerates Figure 2 of the paper: across n = 12 measurement weeks sampled
// from the campaign (CW 15/2022 - CW 20/2023), in how many weeks did each
// spin-capable domain actually spin? Compared against the theoretical
// binomial behaviour of the RFC 9000 (disable 1-in-16) and RFC 9312
// (1-in-8) lotteries for an always-enabled host.
//
// Reproduction targets: just under 20 % of domains spin in all 12 weeks,
// 5-10 % in each other bin, and the measured curve stays below both RFC
// overlays at high week counts (hosts spin *less* than the RFCs allow —
// deployment churn on top of the lottery).
//
// Out-of-core sweep shape (DESIGN.md §15): domains-outer, weeks-inner. The
// first sampled week's campaign streams the universe via bench::run_campaign;
// for each spin-capable domain it delivers, the sink scans the remaining
// sampled weeks inline and folds the domain's complete weekly bitmasks into
// the aggregator in one add_domain() call. Nothing is retained per domain —
// memory is O(weeks), not O(domains).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/adoption.hpp"
#include "analysis/csv.hpp"
#include "analysis/longitudinal.hpp"
#include "bench/bench_common.hpp"
#include "core/accuracy.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

using namespace spinscope;

int main(int argc, char** argv) {
    const auto options = bench::parse_options(argc, argv, /*default_count=*/12);
    bench::banner("Figure 2 — RFC lottery compliance across 12 weeks", options);

    bench::Stopwatch watch;
    web::PopulationModel model{{options.scale, options.seed}};
    // Weekly outcomes are folded as 32-bit masks; the paper samples 12 weeks.
    const auto weeks = std::min(static_cast<unsigned>(options.count), 32u);
    analysis::LongitudinalAggregator longitudinal{weeks};

    // One campaign per sampled week, spread across the 58-week campaign; all
    // share the model, so each is O(1) state.
    std::vector<scanner::Campaign> campaigns;
    campaigns.reserve(weeks);
    for (unsigned sample = 0; sample < weeks; ++sample) {
        scanner::ScanOptions scan_options;
        scan_options.week = bench::sampled_week(sample, weeks);
        if (sample == 0) {
            scan_options.threads = options.threads;
            scan_options.journal_dir = options.journal_dir;
        }
        campaigns.emplace_back(model, scan_options);
    }

    // Only domains of spin-capable organizations can ever contribute to the
    // "spun in any week" population; skipping the rest keeps the bench fast
    // without changing the histogram.
    std::uint64_t scanned = 0;
    bench::run_campaign(
        options, campaigns.front(),
        [&](const web::Domain& domain, scanner::DomainScan&& scan) {
            if (!domain.quic || model.org_of(domain).spin_host_rate <= 0.0) return;
            std::uint32_t connected_mask = 0;
            std::uint32_t spun_mask = 0;
            for (unsigned sample = 0; sample < weeks; ++sample) {
                const scanner::DomainScan week_scan =
                    sample == 0 ? std::move(scan)
                                : campaigns[sample].scan_domain(domain);
                ++scanned;
                if (week_scan.quic_ok()) connected_mask |= 1U << sample;
                if (analysis::classify_domain(week_scan) ==
                    analysis::DomainSpinClass::spinning) {
                    spun_mask |= 1U << sample;
                }
            }
            longitudinal.add_domain(connected_mask, spun_mask);
        });

    std::printf("%s\n", longitudinal.render_figure().c_str());
    bench::write_csv(options, "fig2.csv", analysis::weeks_histogram_csv(longitudinal));
    std::printf("paper: just under 20 %% spin in all 12 weeks; 5-10 %% in each other bin;\n"
                "       measured curve below the RFC overlays at high week counts.\n");
    std::printf("\nscanned %llu domain-weeks in %.1f s\n",
                static_cast<unsigned long long>(scanned), watch.seconds());
    return 0;
}
