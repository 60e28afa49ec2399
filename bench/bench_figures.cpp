// bench/bench_figures.cpp
//
// Regenerates Figures 2, 3 and 4 of the paper and the §5.2 reordering
// analysis from one corpus: the scans of every spin-capable QUIC domain in
// n = 12 weeks sampled from the campaign (CW 15/2022 - CW 20/2023). Figure 2
// counts the weeks each domain spun, against the RFC 9000 (1-in-16) and
// RFC 9312 (1-in-8) lotteries; Figures 3 and 4 are the absolute difference
// and the mapped ratio between the per-connection means of spin-bit and
// QUIC-stack RTT estimates over every OK connection, in received (R) and
// packet-number-sorted (S) order. The output puts the paper's values beside
// the reproduction.
//
// bench::for_each_corpus_domain scans on --threads workers and hands each
// domain's weekly scans over in domain-id order (DESIGN.md §15).

#include <cstdio>
#include <span>
#include <string>

#include "analysis/accuracy.hpp"
#include "analysis/adoption.hpp"
#include "analysis/csv.hpp"
#include "analysis/longitudinal.hpp"
#include "bench/bench_common.hpp"
#include "web/population.hpp"

using namespace spinscope;

int main(int argc, char** argv) {
    // The corpus is scanned in memory on --threads workers: no journal,
    // process pool, flight recorder, progress line, scale sweep, trajectory
    // row or telemetry sidecar.
    constexpr std::string_view kFlags[] = {"--scale=N", "--seed=N", "--count=1..32", "--threads=N",
                                           "--csv=prefix"};
    const auto options = bench::parse_options(argc, argv, kFlags, /*default_count=*/12);
    // Weekly outcomes are folded as 32-bit masks.
    if (options.count < 1 || options.count > 32) {
        const std::string bad = "--count=" + std::to_string(options.count) + " (1..32)";
        bench::usage(argv[0], kFlags, bad.c_str());
    }
    const auto weeks = static_cast<unsigned>(options.count);
    bench::banner("Figures 2-4 — RFC lottery compliance and spin RTT accuracy", options, kFlags);

    const bench::Stopwatch watch;
    const web::PopulationModel population{{options.scale, options.seed}};
    analysis::LongitudinalAggregator longitudinal{weeks};
    analysis::AccuracyAggregator accuracy;
    std::uint64_t domains = 0;
    std::uint64_t connections = 0;
    bench::for_each_corpus_domain(
        population, weeks, options.threads,
        [&](const web::Domain&, std::span<const scanner::DomainScan> scans) {
            ++domains;
            std::uint32_t connected_mask = 0;
            std::uint32_t spun_mask = 0;
            for (unsigned sample = 0; sample < weeks; ++sample) {
                const analysis::DomainVerdict verdict = analysis::assess_domain(scans[sample]);
                if (!verdict.ok.empty()) connected_mask |= 1U << sample;
                if (verdict.cls == analysis::DomainSpinClass::spinning) spun_mask |= 1U << sample;
                connections += verdict.ok.size();
                for (const core::ConnectionAssessment& a : verdict.ok) accuracy.add(a);
            }
            longitudinal.add_domain(connected_mask, spun_mask);
        });

    std::printf("%s\n", longitudinal.render_figure().c_str());
    bench::write_csv(options, "fig2.csv", analysis::weeks_histogram_csv(longitudinal));
    std::printf("paper: just under 20 %% spin in all 12 weeks; 5-10 %% in each other bin;\n"
                "       measured curve below the RFC overlays at high week counts.\n\n");
    std::printf("%s\n", accuracy.render_abs_figure().c_str());
    bench::write_csv(options, "fig3.csv", analysis::abs_histogram_csv(accuracy));
    std::printf("%s\n", accuracy.render_ratio_figure().c_str());
    bench::write_csv(options, "fig4.csv", analysis::ratio_histogram_csv(accuracy));
    std::printf("%s\n", accuracy.render_headlines().c_str());
    std::printf("%s\n", accuracy.render_reordering_impact().c_str());
    std::printf("corpus: %llu domains, %llu domain-weeks, %llu QUIC connections in %.1f s\n",
                static_cast<unsigned long long>(domains),
                static_cast<unsigned long long>(domains * weeks),
                static_cast<unsigned long long>(connections), watch.seconds());
    return 0;
}
