// spinscope/telemetry/resource.hpp
//
// Host resource probes: allocation accounting, resident-set sampling and
// per-phase wall timers — the "what does this pipeline actually consume"
// half of the flight recorder (DESIGN.md §12).
//
// Allocation accounting works by interposition: a binary that wants heap
// counters includes telemetry/alloc_interpose.hpp in EXACTLY ONE translation
// unit, which defines global operator new/delete forwarding into the
// counters here. Each thread counts into a block only it writes, so the
// probe costs no locked instruction and no shared cache line; totals sum
// the blocks. Binaries without the interposer read zeros and
// alloc::active() == false — the probe never changes behaviour of code that
// does not opt in (libraries must NOT include the interpose header).
//
// RSS sampling reads /proc/self/status (VmHWM / VmRSS) and falls back to
// getrusage(RU_MAXRSS) for the peak; on platforms with neither, the probes
// return 0 and callers degrade gracefully.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace spinscope::telemetry {

namespace alloc {

/// Feed one allocation into the calling thread's counters (called by the
/// interposed operator new). The first call on a thread claims a counter
/// block from static storage, so this never allocates; the block goes back
/// with its counts when the thread exits, for the next thread to reuse.
void record(std::size_t bytes) noexcept;

/// Marks that an interposer is linked into this binary (called once by the
/// interpose header's static initializer).
void mark_active() noexcept;

/// True when telemetry/alloc_interpose.hpp is linked into this binary.
[[nodiscard]] bool active() noexcept;

/// Global totals since process start, exited threads included (0 without
/// an interposer). Exact once the threads that allocated are joined.
[[nodiscard]] std::uint64_t count() noexcept;
[[nodiscard]] std::uint64_t bytes() noexcept;

/// Counter blocks ever claimed: the peak number of allocating threads alive
/// at once, not the number of threads that ever ran (blocks are reused).
[[nodiscard]] std::size_t blocks_claimed() noexcept;

}  // namespace alloc

/// Point-in-time capture of the allocation counters; `*_since()` measures
/// the traffic between the capture and now. The unit benches report
/// (allocs_per_domain and friends) is `count_since() / work_items`.
struct AllocSnapshot {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;

    AllocSnapshot();  ///< captures the current totals

    [[nodiscard]] std::uint64_t count_since() const noexcept;
    [[nodiscard]] std::uint64_t bytes_since() const noexcept;
};

/// Peak resident set of this process, in bytes (VmHWM, getrusage fallback);
/// 0 when neither source is available.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Current resident set of this process, in bytes (VmRSS); 0 when
/// /proc/self/status is unavailable.
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Measures a campaign: wall time, allocation traffic and peak RSS between
/// construction and sample(). publish() writes the report as
/// `obs.resource.campaign.*` gauges — host observations, excluded from the
/// deterministic telemetry view (MetricClass::host).
class ResourceProbe {
public:
    ResourceProbe();

    struct Report {
        double wall_seconds = 0.0;
        std::uint64_t allocs = 0;       ///< 0 unless alloc::active()
        std::uint64_t alloc_bytes = 0;  ///< 0 unless alloc::active()
        std::uint64_t peak_rss = 0;     ///< process peak RSS in bytes
        bool alloc_active = false;
    };

    [[nodiscard]] Report sample() const;

    /// Publishes sample() under `obs.resource.campaign.`: wall_seconds,
    /// allocs, alloc_bytes (only when the interposer is linked) and
    /// peak_rss_bytes gauges.
    void publish(MetricsRegistry& registry) const;

private:
    AllocSnapshot start_;
    std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace spinscope::telemetry
