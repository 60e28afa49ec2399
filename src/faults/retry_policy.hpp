// spinscope/faults/retry_policy.hpp
//
// Retry schedule of the campaign's supervisors: bounded attempts with capped
// exponential backoff and full jitter. It paces crashed-chunk restarts
// (scanner::Campaign::scan_chunk), worker process re-forks
// (scanner::ProcPoolOptions::proc_restart) and transient journal write
// errors (scanner::ScanOptions::journal_retry). Scans themselves never
// retry: the paper's scanner makes one attempt per hop (paper §3.2).
//
// The policy is deterministic given an RNG stream, so identically seeded
// campaigns schedule identical backoffs.

#pragma once

#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::faults {

using util::Duration;

/// Retry schedule for one supervised operation. The default of one attempt
/// never retries.
struct RetryPolicy {
    /// Total attempts, including the first (>= 1).
    int max_attempts = 1;
    /// Backoff before retry k (1-based) is drawn from
    /// [0, min(max_backoff, initial_backoff * multiplier^(k-1))] when
    /// full_jitter is set, or is exactly that cap otherwise.
    Duration initial_backoff = Duration::millis(200);
    double multiplier = 2.0;
    Duration max_backoff = Duration::seconds(5);
    bool full_jitter = true;

    /// Backoff before retry `retry_index` (1-based: the wait preceding the
    /// second attempt is retry_index 1). Deterministic in (policy, rng state).
    [[nodiscard]] Duration backoff_delay(int retry_index, util::Rng& rng) const;

    /// The restart-jitter RNG for one work chunk of one campaign: the chunk
    /// supervisor (scanner::Campaign::scan_chunk) draws crashed-chunk restart
    /// backoffs from a sub-stream keyed by (campaign seed, chunk index), so
    /// restart schedules never perturb any domain's scan stream.
    [[nodiscard]] static util::Rng restart_stream(std::uint64_t campaign_seed,
                                                  std::uint64_t chunk_index) noexcept;

    /// Throws std::invalid_argument on nonsensical knobs (NaN or < 1
    /// multiplier, negative durations, max_attempts < 1).
    void validate() const;
};

}  // namespace spinscope::faults
