// bench/bench_table1.cpp
//
// Regenerates Tables 1-3 of the paper from one IPv4 scan of CW 20, 2023
// (paper §4.1-4.3), all three rendered from one AdoptionAggregator:
//
//   Table 1  per target list (Toplists, CZDS, com/net/org): total, resolved
//            and QUIC domain counts, the share of QUIC domains with spin-bit
//            activity, and the same funnel at the IP level;
//   Table 2  QUIC connections and spin-bit activity per AS organization for
//            com/net/org, plus the webserver attribution of spinning
//            connections. Targets: the ranking and the per-organization spin
//            shares (hyperscalers ~0 %, medium hosters >50 %, <other> ~53 %);
//   Table 3  how QUIC domains that do not spin set the bit: almost all zero
//            it, a small share fixes it to one, and the simplistic grease
//            filter only fires for a handful of connections.
//
// The synthetic population is a 1:N downscale of the paper's universe; the
// percentage columns are the reproduction targets, the counts scale with N.
// The campaign streams DomainBlocks from the PopulationModel (DESIGN.md §15)
// — no domain vector is ever materialized, so peak RSS is flat in the domain
// count. --scales=A,B,C measures that flatness directly: one campaign per
// scale, all rows written as a spinscope-bench-scale-v1 family.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "analysis/adoption.hpp"
#include "bench/bench_common.hpp"
#include "scanner/campaign.hpp"
#include "util/format.hpp"
// Heap accounting for the BENCH_scale.json trajectory (this file is the
// binary's single TU, the one place the interposer may live).
#include "telemetry/alloc_interpose.hpp"
#include "web/population.hpp"

using namespace spinscope;

namespace {

/// Prints Tables 1, 2 and 3, each followed by the paper's numbers.
void print_tables_1_to_3(const analysis::AdoptionAggregator& aggregator) {
    std::printf("%s\n", aggregator.render_overview_table().c_str());
    std::printf("paper (1:1 scale):\n"
                "  Toplists     #Domains 2 732 702 -> 1 937 701 -> 547 107 -> 6.9 %%\n"
                "               #IPs                    774 832 -> 118 544 -> 15.2 %%\n"
                "  CZDS         #Domains 216 520 521 -> 183 735 238 -> 22 205 271 -> 10.2 %%\n"
                "               #IPs                  10 271 558 ->   259 766 -> 45.3 %%\n"
                "  com/net/org  #Domains 183 047 638 -> 158 891 771 -> 18 415 242 -> 11.1 %%\n"
                "               #IPs                   9 203 681 ->   242 877 -> 46.4 %%\n");

    std::printf("\n%s\n", aggregator.render_org_table(8).c_str());
    std::printf("paper (1:1 scale, connections):\n"
                "  1  11 482 201  Cloudflare        0        0.0 %%\n"
                "  2   6 160 065  Google        6 867        0.1 %%  (spin rank 54)\n"
                "  3   1 546 788  Hostinger   802 585       51.9 %%  (spin rank 1)\n"
                "  4     326 230  Fastly            0        0.0 %%\n"
                "  5     219 249  OVH SAS     132 395       60.4 %%  (spin rank 2)\n"
                "  6     218 206  A2 Hosting  129 577       59.4 %%  (spin rank 3)\n"
                "  7     173 503  SingleHop   102 527       59.1 %%  (spin rank 4)\n"
                "  8     148 705  ServerCntrl 100 518       67.6 %%  (spin rank 5)\n"
                "     2 519 770  <other>   1 342 065       53.3 %%\n");
    std::printf("\nWebserver attribution of spinning connections (paper §4.2: LiteSpeed >80 %%,"
                " plus ~7 %% imunify360 built on it):\n");
    const auto spin_servers = aggregator.webserver_connections(/*spinning_only=*/true);
    std::uint64_t total = 0;
    for (const auto& [name, count] : spin_servers) total += count;
    for (const auto& [name, count] : spin_servers) {
        std::printf("  %-22s %9llu (%s)\n", name.c_str(),
                    static_cast<unsigned long long>(count),
                    util::percent(static_cast<double>(count) /
                                  static_cast<double>(std::max<std::uint64_t>(1, total)))
                        .c_str());
    }

    std::printf("\n%s\n", aggregator.render_config_table().c_str());
    std::printf(
        "paper (1:1 scale, share of QUIC domains):\n"
        "  Toplists      All Zero 507 967 (92.85 %%)  All One    859 (0.16 %%)"
        "  Spin    37 768  Grease    58 (0.01 %%)\n"
        "  CZDS          All Zero 19 849 938 (89.39 %%)  All One 62 375 (0.28 %%)"
        "  Spin 2 257 938  Grease 5 307 (0.02 %%)\n"
        "  com/net/org   All Zero 16 282 445 (88.42 %%)  All One 53 717 (0.29 %%)"
        "  Spin 2 047 280  Grease 4 653 (0.03 %%)\n");
}

/// Runs one full IPv4 campaign at `scale` and returns its trajectory row.
/// `print_tables` keeps the sweep output readable (tables once, not per row).
bench::Trajectory run_at_scale(const bench::Options& options, double scale,
                               bool print_tables) {
    web::PopulationModel model{{scale, options.seed}};

    scanner::ScanOptions scan_options;
    scan_options.ipv6 = false;
    scan_options.week = 57;  // CW 20/2023, counted from CW 15/2022
    scan_options.threads = options.threads;
    scan_options.journal_dir = options.journal_dir;
    scanner::Campaign campaign{model, scan_options};

    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);

    analysis::AdoptionAggregator aggregator{model, /*ipv6=*/false};
    std::uint64_t scanned = 0;
    const telemetry::AllocSnapshot campaign_allocs;
    const bench::Stopwatch campaign_watch;
    const auto stats = bench::run_campaign(
        options, campaign, [&](const web::Domain& domain, scanner::DomainScan&& scan) {
            aggregator.add(domain, scan);
            ++scanned;
        });

    if (print_tables) print_tables_1_to_3(aggregator);
    std::printf("\nscale 1:%.0f — scanned %llu domains in %.1f s "
                "(%.0f domains/sec, QUIC-ok %.1f %%)\n",
                scale, static_cast<unsigned long long>(scanned),
                campaign_watch.seconds(), stats.domains_per_sec(),
                stats.quic_ok_rate() * 100.0);
    bench::write_telemetry(options, "table1", registry);

    auto trajectory = bench::measure_trajectory("scale", scanned,
                                                campaign_watch.seconds(),
                                                campaign_allocs);
    trajectory.procs = options.procs;
    trajectory.scale = scale;
    if (const auto* gauge = registry.find_gauge("obs.proc.peak_worker_rss_bytes");
        gauge != nullptr && gauge->has_value()) {
        trajectory.peak_worker_rss_bytes = static_cast<std::uint64_t>(gauge->value());
    }
    // Under --procs the workers scan and the supervisor only commits and
    // reduces: the scan's heap traffic is what the workers reported.
    if (trajectory.alloc_probe && scanned > 0) {
        const auto worker_total = [&registry](telemetry::CounterId id) {
            const auto* counter = registry.find(id);
            return counter != nullptr ? static_cast<double>(counter->value()) : 0.0;
        };
        const auto domains = static_cast<double>(scanned);
        trajectory.allocs_per_domain +=
            worker_total(telemetry::CounterId::obs_proc_worker_allocs) / domains;
        trajectory.alloc_bytes_per_domain +=
            worker_total(telemetry::CounterId::obs_proc_worker_alloc_bytes) / domains;
    }
    return trajectory;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr std::string_view kFlags[] = {
        "--scale=N", "--scales=A,B,C", "--seed=N", "--telemetry=path|off", "--threads=N",
        "--journal=dir", "--procs=N", "--resume", "--scrub", "--trace=file", "--progress[=N]",
        "--trajectory=file"};
    const auto options = bench::parse_options(argc, argv, kFlags);
    bench::banner("Tables 1–3 — IPv4 scan (CW 20, 2023): overview, AS organizations, "
                  "spin-bit configuration",
                  options, kFlags);

    if (options.scales.empty()) {
        const auto trajectory = run_at_scale(options, options.scale, /*print_tables=*/true);
        bench::write_trajectory(options, trajectory);
        return 0;
    }

    // Scale sweep: largest downscale (fewest domains) first, so the process
    // peak-RSS high-water mark can only be pushed up by a later, larger
    // universe — the flatness bench_check.py gates (see trajectory.hpp).
    std::vector<double> scales = options.scales;
    std::sort(scales.begin(), scales.end(), std::greater<>{});
    std::vector<bench::Trajectory> rows;
    rows.reserve(scales.size());
    for (std::size_t i = 0; i < scales.size(); ++i) {
        bench::Options run = options;
        if (!run.journal_dir.empty()) {
            // Each scale is a different campaign geometry; journals must not
            // be shared across them.
            run.journal_dir += "-scale" + std::to_string(i);
        }
        rows.push_back(run_at_scale(run, scales[i], /*print_tables=*/i == 0));
    }
    if (!options.trajectory_path.empty() &&
        !bench::write_scale_sweep_file(options.trajectory_path, rows)) {
        return 1;
    }
    return 0;
}
