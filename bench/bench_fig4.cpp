// bench/bench_fig4.cpp
//
// Regenerates Figure 4 of the paper: the distribution of the mapped ratio
// between the per-connection means of spin-bit and QUIC-stack RTT estimates
// (divide by the smaller; negative = spin underestimates).
//
// Reproduction targets (Spin (R)): ~30.5 % of connections within +-25 %,
// ~36.0 % within a factor of 2, ~51.7 % overestimating by more than 3x.
// Grease series: ~46 % underestimate, ~62.5 % within a factor of 2.

#include <cstdio>

#include "analysis/accuracy.hpp"
#include "analysis/csv.hpp"
#include "bench/bench_common.hpp"
#include "core/accuracy.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

using namespace spinscope;

int main(int argc, char** argv) {
    const auto options = bench::parse_options(argc, argv, /*default_count=*/12);
    bench::banner("Figure 4 — mapped ratio of spin-vs-QUIC RTT", options);

    bench::Stopwatch watch;
    const web::PopulationModel population{{options.scale, options.seed}};
    const auto universe = population.materialize(0, population.domain_count());
    analysis::AccuracyAggregator aggregator;
    std::uint64_t connections = 0;
    const auto weeks = static_cast<unsigned>(options.count);
    for (unsigned sample = 0; sample < weeks; ++sample) {
        const int week = static_cast<int>(sample * 57 / (weeks > 1 ? weeks - 1 : 1));
        scanner::ScanOptions scan_options;
        scan_options.week = week;
        scanner::Campaign campaign{population, scan_options};
        for (const auto& domain : universe.domains) {
            if (!domain.quic || population.org_of(domain).spin_host_rate <= 0.0) continue;
            const auto scan = campaign.scan_domain(domain);
            for (const auto& trace : scan.connections) {
                if (trace.outcome != qlog::ConnectionOutcome::ok) continue;
                ++connections;
                aggregator.add(core::assess_connection(trace));
            }
        }
    }

    std::printf("%s\n", aggregator.render_ratio_figure().c_str());
    bench::write_csv(options, "fig4.csv", analysis::ratio_histogram_csv(aggregator));
    std::printf("%s\n", aggregator.render_headlines().c_str());
    std::printf("corpus: %llu QUIC connections in %.1f s\n",
                static_cast<unsigned long long>(connections), watch.seconds());
    return 0;
}
