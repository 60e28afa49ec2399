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
#include "web/population.hpp"

using namespace spinscope;

int main(int argc, char** argv) {
    const auto options = bench::parse_options(argc, argv, /*default_count=*/12);
    bench::banner("Figure 3 — absolute spin-vs-QUIC RTT difference", options);

    bench::Stopwatch watch;
    const web::PopulationModel population{{options.scale, options.seed}};
    analysis::AccuracyAggregator aggregator;
    const std::uint64_t connections =
        bench::build_accuracy_corpus(population, static_cast<unsigned>(options.count), aggregator);

    std::printf("%s\n", aggregator.render_abs_figure().c_str());
    bench::write_csv(options, "fig3.csv", analysis::abs_histogram_csv(aggregator));
    std::printf("%s\n", aggregator.render_headlines().c_str());
    std::printf("%s\n", aggregator.render_reordering_impact().c_str());
    std::printf("corpus: %llu QUIC connections in %.1f s\n",
                static_cast<unsigned long long>(connections), watch.seconds());
    return 0;
}
