// Golden-trace fixture helpers (tests/golden/).
//
// A golden fixture pins the exact bytes a fixed (population, ScanOptions)
// configuration must produce — scan streams, campaign stats, deterministic
// telemetry — so a future PR that silently perturbs simulation results fails
// tier-1 instead of drifting. The fixtures in tests/golden/ were captured
// from the sequential pre-sharding scanner; the sharded scanner must keep
// matching them bit for bit at every thread count.
//
// Regeneration (after an INTENTIONAL behaviour change, reviewed like a
// schema change): SPINSCOPE_REGEN_GOLDEN=1 ctest -R golden — the comparator
// then rewrites the fixture files in the source tree and fails the test so
// a regen run can never pass CI silently.

#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scanner/campaign.hpp"
#include "telemetry/metrics.hpp"

#ifndef SPINSCOPE_GOLDEN_DIR
#error "tests must be compiled with -DSPINSCOPE_GOLDEN_DIR=\"...\""
#endif

namespace spinscope::testing {

inline std::string golden_path(const std::string& filename) {
    return std::string{SPINSCOPE_GOLDEN_DIR} + "/" + filename;
}

/// Canonical text form of one domain's scan: a comment header, one comment
/// line per attempt (the error taxonomy), then the qlog JSONL of every
/// connection. This is the "DomainScan stream" the determinism suite and
/// the golden fixtures compare.
inline std::string render_scan_stream(const scanner::DomainScan& scan) {
    std::string out = "# domain " + std::to_string(scan.domain_id) +
                      " resolved=" + (scan.resolved ? "1" : "0") +
                      " redirects=" + std::to_string(scan.redirects_followed) + "\n";
    for (std::size_t i = 0; i < scan.connections.size(); ++i) {
        const auto& attempt = scan.attempts[i];
        out += "# attempt hop=" + std::to_string(attempt.redirect_hop) +
               " outcome=" + qlog::to_cstring(attempt.outcome) +
               " fault=" + faults::to_cstring(attempt.server_fault) + "\n";
        out += qlog::to_jsonl(scan.connections[i]);
    }
    return out;
}

/// CampaignStats::render() with the wall clock taken out entirely: the
/// wall-seconds value is zeroed BEFORE rendering (its digit count would
/// otherwise leak into the table's column alignment on a slow run — e.g.
/// under TSan) and the wall rows are then stripped from the text.
inline std::string deterministic_render(scanner::CampaignStats stats);

/// Drops the wall-clock rows ("wall seconds", "domains/sec") from a
/// CampaignStats::render(). Prefer deterministic_render for fixture
/// comparisons; this alone leaves the alignment wall-clock-dependent.
inline std::string strip_wall_rows(const std::string& rendered) {
    std::istringstream in{rendered};
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("wall seconds") != std::string::npos) continue;
        if (line.find("domains/sec") != std::string::npos) continue;
        out += line + "\n";
    }
    return out;
}

inline std::string deterministic_render(scanner::CampaignStats stats) {
    stats.wall_seconds = 0.0;
    return strip_wall_rows(stats.render());
}

/// The exported schema of a registry: one `kind name` line per present
/// instrument of every class, counters then gauges then histograms, each in
/// name order — what the golden run's registry exports, values aside.
inline std::string render_metric_names(const telemetry::MetricsRegistry& registry) {
    std::string out;
    for (const auto& m : telemetry::kCounters) {
        if (registry.find_counter(m.name) != nullptr) out += "counter " + std::string{m.name} + "\n";
    }
    for (const auto& m : telemetry::kGauges) {
        if (registry.find_gauge(m.name) != nullptr) out += "gauge " + std::string{m.name} + "\n";
    }
    for (const auto& m : telemetry::kHistograms) {
        if (registry.find_histogram(m.name) != nullptr) {
            out += "histogram " + std::string{m.name} + "\n";
        }
    }
    return out;
}

/// Compares `actual` against the fixture `filename`; on mismatch the failure
/// message points at the first differing line. With SPINSCOPE_REGEN_GOLDEN
/// set, rewrites the fixture and fails (regen runs must be reviewed).
inline ::testing::AssertionResult matches_golden(const std::string& filename,
                                                 const std::string& actual) {
    const std::string path = golden_path(filename);
    if (std::getenv("SPINSCOPE_REGEN_GOLDEN") != nullptr) {
        std::ofstream out{path, std::ios::trunc};
        out << actual;
        return ::testing::AssertionFailure()
               << "regenerated " << path << " (" << actual.size()
               << " bytes); review the diff and re-run without SPINSCOPE_REGEN_GOLDEN";
    }
    std::ifstream in{path};
    if (!in) {
        return ::testing::AssertionFailure()
               << "missing golden fixture " << path
               << " (run with SPINSCOPE_REGEN_GOLDEN=1 to create it)";
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();
    if (expected == actual) return ::testing::AssertionSuccess();

    std::istringstream a{expected};
    std::istringstream b{actual};
    std::string line_a;
    std::string line_b;
    std::size_t line_no = 1;
    for (;; ++line_no) {
        const bool more_a = static_cast<bool>(std::getline(a, line_a));
        const bool more_b = static_cast<bool>(std::getline(b, line_b));
        if (!more_a && !more_b) break;
        if (!more_a || !more_b || line_a != line_b) {
            return ::testing::AssertionFailure()
                   << filename << " drifted at line " << line_no << ":\n  golden: "
                   << (more_a ? line_a : std::string{"<eof>"})
                   << "\n  actual: " << (more_b ? line_b : std::string{"<eof>"})
                   << "\nSimulation output is part of the repo's golden contract; if "
                      "the change is intentional, regenerate with "
                      "SPINSCOPE_REGEN_GOLDEN=1 and review the fixture diff.";
        }
    }
    return ::testing::AssertionFailure() << filename << " differs (sizes "
                                         << expected.size() << " vs " << actual.size() << ")";
}

}  // namespace spinscope::testing
