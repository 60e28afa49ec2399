// examples/analyze_qlog.cpp
//
// The "analysis machine" half of the paper's workflow: read a campaign
// journal (written by scan_to_qlog, a journaled run, a run_procs map pass or
// a killed run) and re-derive the adoption and accuracy results purely from
// the recorded traces — no access to the population or simulator, exactly
// like analyzing the released measurement artifacts. Week and address family
// come from the journal's campaign header.
//
// usage: analyze_qlog <dir>

#include <array>
#include <cstdio>

#include "analysis/accuracy.hpp"
#include "analysis/adoption.hpp"
#include "core/accuracy.hpp"
#include "scanner/journal.hpp"
#include "util/format.hpp"

using namespace spinscope;
using analysis::DomainSpinClass;

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <dir>\n", argv[0]);
        return 1;
    }

    std::uint64_t domains = 0;
    std::uint64_t connections = 0;
    std::uint64_t ok_connections = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(DomainSpinClass::mixed) + 1> by_class{};
    analysis::AccuracyAggregator accuracy;
    const scanner::MapReplayResult journal =
        scanner::read_map_journal(argv[1], [&](scanner::ChunkRecord&& record) {
            for (const scanner::DomainScan& scan : record.scans) {
                ++domains;
                connections += scan.connections.size();
                const analysis::DomainVerdict verdict = analysis::assess_domain(scan);
                ok_connections += verdict.ok.size();
                for (const core::ConnectionAssessment& a : verdict.ok) accuracy.add(a);
                ++by_class[static_cast<std::size_t>(verdict.cls)];
            }
        });
    if (!journal.has_header) {
        std::fprintf(stderr, "no readable campaign header (header.rec) in %s\n", argv[1]);
        return 1;
    }

    const auto count = [&](DomainSpinClass c) { return by_class[static_cast<std::size_t>(c)]; };
    const std::uint64_t quic = domains - count(DomainSpinClass::not_quic);
    std::printf("dataset: week %d, %s; %llu of %llu domains in %llu chunk(s), %llu traces "
                "(%llu corrupt chunk(s) skipped)\n",
                journal.header.week, journal.header.ipv6 ? "IPv6" : "IPv4",
                static_cast<unsigned long long>(domains),
                static_cast<unsigned long long>(journal.header.domain_count),
                static_cast<unsigned long long>(journal.chunks_read),
                static_cast<unsigned long long>(connections),
                static_cast<unsigned long long>(journal.corrupt_chunks));
    std::printf("domains with QUIC: %llu; OK connections: %llu\n\n",
                static_cast<unsigned long long>(quic),
                static_cast<unsigned long long>(ok_connections));
    const auto row = [&](const char* label, DomainSpinClass c, int decimals) {
        const double share =
            quic == 0 ? 0.0 : static_cast<double>(count(c)) / static_cast<double>(quic);
        std::printf("  %-9s: %6llu (%s)\n", label, static_cast<unsigned long long>(count(c)),
                    util::percent(share, decimals).c_str());
    };
    std::printf("spin classification of QUIC domains (Table 1/3 shape):\n");
    row("spinning", DomainSpinClass::spinning, 1);
    row("greased", DomainSpinClass::greased, 2);
    row("all one", DomainSpinClass::all_one, 2);
    row("all zero", DomainSpinClass::all_zero, 1);
    row("mixed", DomainSpinClass::mixed, 2);
    std::printf("\naccuracy headlines (Figures 3/4 shape):\n%s\n",
                accuracy.render_headlines().c_str());
    return 0;
}
