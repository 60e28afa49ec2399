// bench/bench_table4.cpp
//
// Regenerates Table 4 of the paper: IPv6 overview for CW 20, 2023. The
// reproduction targets: far more QUIC-capable IPv6 hosts for CZDS (per-
// domain v6 addresses at the shared hosters), spin support >60 % of those
// hosts, but markedly lower toplist spin support than over IPv4.

#include <cstdio>

#include "analysis/adoption.hpp"
#include "bench/bench_common.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

using namespace spinscope;

int main(int argc, char** argv) {
    constexpr std::string_view kFlags[] = {"--scale=N", "--seed=N", "--threads=N", "--journal=dir",
                                           "--procs=N", "--resume", "--scrub", "--trace=file",
                                           "--progress[=N]"};
    const auto options = bench::parse_options(argc, argv, kFlags);
    bench::banner("Table 4 — IPv6 overview (CW 20, 2023)", options, kFlags);

    bench::Stopwatch watch;
    // Streaming population (DESIGN.md §15): no resident domain vector.
    web::PopulationModel model{{options.scale, options.seed}};
    scanner::ScanOptions scan_options;
    scan_options.ipv6 = true;
    scan_options.week = 57;
    scan_options.threads = options.threads;
    scan_options.journal_dir = options.journal_dir;
    scanner::Campaign campaign{model, scan_options};

    analysis::AdoptionAggregator aggregator{model, /*ipv6=*/true};
    bench::run_campaign(options, campaign,
                        [&](const web::Domain& domain, scanner::DomainScan&& scan) {
                            aggregator.add(domain, scan);
                        });

    std::printf("%s\n", aggregator.render_overview_table().c_str());
    std::printf("paper (1:1 scale):\n"
                "  Toplists     #Domains 2 732 702 -> 569 516 -> 368 331 -> 2.3 %%\n"
                "               #IPs                   166 127 ->  94 533 -> 8.3 %%\n"
                "  CZDS         #Domains 216 520 521 -> 21 467 551 -> 9 096 258 -> 8.2 %%\n"
                "               #IPs                    2 115 215 -> 1 180 320 -> 62.6 %%\n"
                "  com/net/org  #Domains 183 047 638 -> 17 027 333 -> 6 626 316 -> 10.2 %%\n"
                "               #IPs                    1 853 223 -> 1 041 518 -> 63.6 %%\n");
    std::printf("\ncompleted in %.1f s\n", watch.seconds());
    return 0;
}
