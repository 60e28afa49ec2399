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
#include "web/population.hpp"

using namespace spinscope;

int main(int argc, char** argv) {
    const auto options = bench::parse_options(argc, argv, /*default_count=*/12);
    bench::banner("Figure 4 — mapped ratio of spin-vs-QUIC RTT", options);

    bench::Stopwatch watch;
    const web::PopulationModel population{{options.scale, options.seed}};
    analysis::AccuracyAggregator aggregator;
    const std::uint64_t connections =
        bench::build_accuracy_corpus(population, static_cast<unsigned>(options.count), aggregator);

    std::printf("%s\n", aggregator.render_ratio_figure().c_str());
    bench::write_csv(options, "fig4.csv", analysis::ratio_histogram_csv(aggregator));
    std::printf("%s\n", aggregator.render_headlines().c_str());
    std::printf("corpus: %llu QUIC connections in %.1f s\n",
                static_cast<unsigned long long>(connections), watch.seconds());
    return 0;
}
