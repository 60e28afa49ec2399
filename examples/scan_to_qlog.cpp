// examples/scan_to_qlog.cpp
//
// The "measurement machine" half of the paper's workflow: run a campaign
// sweep with its journal in <dir>. The journal is the dataset (the Appendix B
// artifact): every chunk record holds each connection trace in the journal's
// compact binary form, framed and checksummed, which decodes to exactly what
// its qlog JSON lines print (qlog::to_jsonl). Analysis happens later and
// elsewhere — see examples/analyze_qlog.cpp.
//
// usage: scan_to_qlog <dir> [scale] [week] [--ipv6]

#include <charconv>
#include <cstdio>
#include <exception>
#include <string_view>
#include <vector>

#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "web/population.hpp"

using namespace spinscope;

namespace {

int usage(const char* program) {
    std::fprintf(stderr, "usage: %s <dir> [scale=20000] [week=57] [--ipv6]\n", program);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::string_view> positional;
    bool ipv6 = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--ipv6") {
            ipv6 = true;
        } else if (arg.substr(0, 2) == "--") {
            return usage(argv[0]);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.empty() || positional.size() > 3) return usage(argv[0]);

    double scale = 20000.0;
    if (positional.size() > 1) {
        const std::string_view text = positional[1];
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), scale);
        if (ec != std::errc{} || end != text.data() + text.size() ||
            !web::PopulationModel::valid_scale(scale)) {
            return usage(argv[0]);
        }
    }
    int week = 57;
    if (positional.size() > 2) {
        const std::string_view text = positional[2];
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), week);
        if (ec != std::errc{} || end != text.data() + text.size()) return usage(argv[0]);
    }

    const web::PopulationModel population{{scale, 20230520}};
    scanner::ScanOptions options;
    options.week = week;
    options.ipv6 = ipv6;
    options.journal_dir = std::string{positional[0]};
    scanner::Campaign campaign{population, options};

    std::uint64_t traces = 0;
    scanner::CampaignStats stats;
    try {
        stats = campaign.run([&](const web::Domain&, scanner::DomainScan&& scan) {
            traces += scan.connections.size();
        });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign failed: %s\n", e.what());
        return 1;
    }
    if (stats.journal_degraded) {
        std::fprintf(stderr, "journal in %s is incomplete: %s\n", options.journal_dir.c_str(),
                     stats.journal_degraded_error.c_str());
        return 1;
    }

    std::printf("scanned %llu domains (scale 1:%.0f, week %d, %s)\n",
                static_cast<unsigned long long>(stats.domains_scanned), scale, week,
                ipv6 ? "IPv6" : "IPv4");
    std::printf("journaled %llu traces in %zu chunk file(s) to %s\n",
                static_cast<unsigned long long>(traces),
                scanner::list_map_batches(options.journal_dir).size(),
                options.journal_dir.c_str());
    return 0;
}
