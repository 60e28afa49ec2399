// examples/campaign_mini.cpp
//
// A miniature version of the paper's full measurement campaign, end to end:
// synthesize a small web population, scan every domain over HTTP/3-mini,
// classify spin behaviour, and print an adoption overview plus the accuracy
// headlines — the whole §3 pipeline in one runnable program.
//
// The run is fully instrumented: a telemetry::MetricsRegistry collects
// simulator, link, QUIC and scanner metrics across every attempt, prints the
// campaign snapshot, and writes a machine-readable JSON sidecar
// (campaign_mini.telemetry.json) for offline attribution.

#include <charconv>
#include <cstdio>
#include <string_view>

#include "analysis/accuracy.hpp"
#include "analysis/adoption.hpp"
#include "core/accuracy.hpp"
#include "scanner/campaign.hpp"
#include "telemetry/export.hpp"
#include "web/population.hpp"

using namespace spinscope;

namespace {

int usage(const char* program) {
    std::fprintf(stderr, "usage: %s [scale=20000]\n", program);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    // 1:20000 scale keeps this example under a second; pass a different
    // divisor to look at larger universes.
    double scale = 20000.0;
    if (argc > 2) return usage(argv[0]);
    if (argc > 1) {
        const std::string_view text = argv[1];
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), scale);
        if (ec != std::errc{} || end != text.data() + text.size() ||
            !web::PopulationModel::valid_scale(scale)) {
            return usage(argv[0]);
        }
    }

    std::printf("building synthetic web population (1:%.0f of the paper's universe)...\n",
                scale);
    const web::PopulationModel population{{scale, 20230520}};
    std::printf("  %zu domains, %zu organizations, %zu webserver stacks\n\n",
                population.domain_count(), population.orgs().size(),
                population.stacks().size());

    scanner::ScanOptions options;
    options.week = 57;  // CW 20/2023
    scanner::Campaign campaign{population, options};

    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    campaign.set_progress(200, [](const scanner::CampaignStats& stats) {
        std::printf("  ...%llu domains scanned (%.0f domains/sec, QUIC-ok %.1f %%)\n",
                    static_cast<unsigned long long>(stats.domains_scanned),
                    stats.domains_per_sec(), stats.quic_ok_rate() * 100.0);
    });

    analysis::AdoptionAggregator adoption{population, false};
    analysis::AccuracyAggregator accuracy;
    std::uint64_t connections = 0;
    const scanner::CampaignStats stats =
        campaign.run([&](const web::Domain& domain, scanner::DomainScan&& scan) {
            const analysis::DomainVerdict verdict = adoption.add(domain, scan);
            connections += verdict.ok.size();
            for (const core::ConnectionAssessment& a : verdict.ok) accuracy.add(a);
        });
    std::printf("scanned %llu domains, %llu QUIC connections\n\n",
                static_cast<unsigned long long>(stats.domains_scanned),
                static_cast<unsigned long long>(connections));

    std::printf("--- adoption (Table 1 shape) ---\n%s\n",
                adoption.render_overview_table().c_str());
    std::printf("--- configuration (Table 3 shape) ---\n%s\n",
                adoption.render_config_table().c_str());
    std::printf("--- organizations (Table 2 shape) ---\n%s\n",
                adoption.render_org_table(5).c_str());
    std::printf("--- RTT accuracy (Figures 3/4 headlines) ---\n%s\n",
                accuracy.render_headlines().c_str());

    std::printf("--- campaign telemetry ---\n%s\n", stats.render().c_str());
    const char* sidecar = "campaign_mini.telemetry.json";
    if (telemetry::write_json_file(registry, sidecar)) {
        std::printf("wrote %s (%zu metrics)\n", sidecar, registry.size());
    } else {
        std::fprintf(stderr, "failed to write %s\n", sidecar);
        return 1;
    }
    return 0;
}
