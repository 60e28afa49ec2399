#include "faults/retry_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spinscope::faults {

void RetryPolicy::validate() const {
    if (max_attempts < 1) {
        throw std::invalid_argument("retry: max_attempts must be >= 1");
    }
    if (std::isnan(multiplier) || multiplier < 1.0) {
        throw std::invalid_argument("retry: multiplier must be >= 1");
    }
    if (initial_backoff.is_negative() || max_backoff.is_negative()) {
        throw std::invalid_argument("retry: backoff durations must be >= 0");
    }
}

util::Rng RetryPolicy::restart_stream(std::uint64_t campaign_seed,
                                      std::uint64_t chunk_index) noexcept {
    // 0x5afe ("safe") separates supervisor restart jitter from the domains'
    // attempt streams.
    return util::Rng{util::derive_stream_seed(campaign_seed, chunk_index) ^ 0x5afeULL};
}

Duration RetryPolicy::backoff_delay(int retry_index, util::Rng& rng) const {
    validate();
    const int exponent = std::max(0, retry_index - 1);
    // Grow in double space and cap before converting back, so large retry
    // counts saturate at max_backoff instead of overflowing nanoseconds.
    const double grown_ms =
        initial_backoff.as_ms() * std::pow(multiplier, static_cast<double>(exponent));
    const double cap_ms = std::min(grown_ms, max_backoff.as_ms());
    if (cap_ms <= 0.0) return Duration::zero();
    const double chosen_ms = full_jitter ? rng.uniform_double(0.0, cap_ms) : cap_ms;
    return Duration::from_ms(chosen_ms);
}

}  // namespace spinscope::faults
