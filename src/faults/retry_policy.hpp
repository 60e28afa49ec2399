// spinscope/faults/retry_policy.hpp
//
// Campaign retry policy: bounded attempts with capped exponential backoff
// and full jitter, in simulated time.
//
// "A First Look at QUIC in the Wild" re-probed failed hosts before
// classifying them as non-QUIC; the paper's scanner inherits that practice.
// The policy is deterministic given an RNG stream, so identically seeded
// campaigns schedule identical backoffs.

#pragma once

#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::faults {

using util::Duration;

/// Retry schedule for one target. The default (max_attempts = 1) disables
/// retrying entirely and is byte-identical to the pre-retry scanner.
struct RetryPolicy {
    /// Total connection attempts per hop, including the first (>= 1).
    int max_attempts = 1;
    /// Backoff before retry k (1-based) is drawn from
    /// [0, min(max_backoff, initial_backoff * multiplier^(k-1))] when
    /// full_jitter is set, or is exactly that cap otherwise.
    Duration initial_backoff = Duration::millis(200);
    double multiplier = 2.0;
    Duration max_backoff = Duration::seconds(5);
    bool full_jitter = true;

    /// True when `outcome_ok` is false and attempt `attempt` (0-based) was
    /// not the last one allowed.
    [[nodiscard]] bool should_retry(int attempt, bool outcome_ok) const noexcept {
        return !outcome_ok && attempt + 1 < max_attempts;
    }

    /// Simulated-time backoff before retry `retry_index` (1-based: the wait
    /// preceding the second attempt is retry_index 1). Deterministic in
    /// (policy, rng state).
    [[nodiscard]] Duration backoff_delay(int retry_index, util::Rng& rng) const;

    /// The backoff-jitter RNG for one domain of one campaign: an independent
    /// sub-stream keyed by (campaign seed, domain id) via
    /// util::derive_stream_seed. Part of the sharded determinism contract
    /// (DESIGN.md §9): retry schedules are a pure per-domain function, never
    /// a function of shard assignment, worker thread or scan order, and a
    /// policy that never retries never draws from the stream at all.
    [[nodiscard]] static util::Rng backoff_stream(std::uint64_t campaign_seed,
                                                  std::uint64_t domain_id) noexcept;

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
