// bench/progress.hpp
//
// Live campaign progress line for the table/figure harnesses, driven by
// Campaign::set_progress (merge-thread callbacks, monotonic stats snapshots):
// completion, scan rate, ETA, resident set and quarantine count. Written to
// stderr with carriage-return refresh so piped stdout (tables, CSV paths)
// stays clean.

#pragma once

#include <cstdio>

#include "scanner/campaign.hpp"
#include "telemetry/resource.hpp"

namespace spinscope::bench {

class ProgressReporter {
public:
    /// `total_domains` sizes the ETA (Campaign::domain_count()).
    explicit ProgressReporter(std::size_t total_domains, std::FILE* out = stderr)
        : total_{total_domains}, out_{out} {}

    /// One progress callback: overwrite the live line in place.
    void report(const scanner::CampaignStats& stats) {
        const double done = total_ > 0 ? static_cast<double>(stats.domains_scanned) /
                                             static_cast<double>(total_)
                                       : 0.0;
        const double rate = stats.domains_per_sec();
        const double remaining =
            total_ > stats.domains_scanned
                ? static_cast<double>(total_ - stats.domains_scanned)
                : 0.0;
        const double eta = rate > 0.0 ? remaining / rate : 0.0;
        const double rss_mb =
            static_cast<double>(telemetry::current_rss_bytes()) / (1024.0 * 1024.0);
        std::fprintf(out_,
                     "\r[%5.1f%%] %llu/%llu domains | %.0f dom/s | ETA %.1fs | "
                     "RSS %.0f MB | quarantined %llu",
                     done * 100.0,
                     static_cast<unsigned long long>(stats.domains_scanned),
                     static_cast<unsigned long long>(total_), rate, eta, rss_mb,
                     static_cast<unsigned long long>(stats.domains_quarantined));
        std::fflush(out_);
        dirty_ = true;
    }

    /// Terminates the live line after the run (no-op if report never fired).
    void finish(const scanner::CampaignStats& stats) {
        if (!dirty_) return;
        report(stats);
        std::fputc('\n', out_);
        std::fflush(out_);
        dirty_ = false;
    }

private:
    std::size_t total_;
    std::FILE* out_;
    bool dirty_ = false;
};

}  // namespace spinscope::bench
