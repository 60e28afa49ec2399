// bench/bench_fig3.cpp
//
// Regenerates Figure 3 of the paper (plus the §5.2 reordering analysis):
// the distribution of the absolute difference between the per-connection
// mean of spin-bit RTT estimates and the QUIC stack baseline, for spinning
// and grease-filtered connections, with (S) and without (R) correcting the
// received packet order.
//
// Reproduction targets (Spin (R)): ~97.7 % of connections overestimate,
// ~28.8 % within 25 ms, ~41.3 % above 200 ms; R-vs-S differs for only
// ~0.28 % of connections and sorting changes means by <1 ms almost always.

#include <cstdio>

#include "analysis/accuracy.hpp"
#include "analysis/csv.hpp"
#include "bench/bench_common.hpp"
#include "core/accuracy.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

using namespace spinscope;

namespace {

/// Feeds every spin-candidate connection of `weeks` sampled weeks into the
/// aggregator — the §5.1 corpus ("all IPv4 connections with spin bit
/// activity throughout the campaign").
void build_corpus(const web::PopulationModel& population, unsigned weeks,
                  analysis::AccuracyAggregator& aggregator, std::uint64_t& connections) {
    const auto universe = population.materialize(0, population.domain_count());
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
}

}  // namespace

int main(int argc, char** argv) {
    const auto options = bench::parse_options(argc, argv, /*default_count=*/12);
    bench::banner("Figure 3 — absolute spin-vs-QUIC RTT difference", options);

    bench::Stopwatch watch;
    const web::PopulationModel population{{options.scale, options.seed}};
    analysis::AccuracyAggregator aggregator;
    std::uint64_t connections = 0;
    build_corpus(population, static_cast<unsigned>(options.count), aggregator, connections);

    std::printf("%s\n", aggregator.render_abs_figure().c_str());
    bench::write_csv(options, "fig3.csv", analysis::abs_histogram_csv(aggregator));
    std::printf("%s\n", aggregator.render_headlines().c_str());
    std::printf("%s\n", aggregator.render_reordering_impact().c_str());
    std::printf("corpus: %llu QUIC connections in %.1f s\n",
                static_cast<unsigned long long>(connections), watch.seconds());
    return 0;
}
