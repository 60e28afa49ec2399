// spinscope/analysis/observer.hpp
//
// On-path observer replay: re-runs the paper's Fig. 3/4 RTT-accuracy
// pipeline from the viewpoint of a passive device on the server→client
// path, under either observer model —
//
//   idealized    a perfect flow table: one core::SpinEdgeObserver per
//                connection (float EWMA, nothing lost)
//   constrained  core::ConstrainedMonitor (fixed slots, eviction, integer
//                EWMA, sampling — DESIGN.md §14)
//
// Campaign traces are endpoint-side records; a wire observer instead sees an
// interleaved datagram mix of every concurrent connection. The replay
// orders the union of every registered connection's received 1-RTT packets
// by observation time. The constrained run re-encodes that stream as
// short-header datagrams, each connection under a deterministic 8-byte DCID,
// so the monitor parses and hashes real wire bytes; the idealized run feeds
// each connection's observer directly. Accuracy is then scored with the same
// AccuracyAggregator the endpoint pipeline uses, so constrained-observer
// histograms are directly comparable with the paper's figures.

#pragma once

#include <cstdint>
#include <vector>

#include "analysis/accuracy.hpp"
#include "core/accuracy.hpp"
#include "core/constrained_monitor.hpp"
#include "core/observer.hpp"
#include "qlog/trace.hpp"

namespace spinscope::analysis {

/// Aggregate outcome of one replay run.
struct ObserverRunSummary {
    std::uint64_t connections = 0;  ///< registered connections (1-RTT traffic)
    /// Connections whose endpoint-side record yields spin RTT samples — the
    /// coverage denominator (an observer cannot beat full information).
    std::uint64_t candidates = 0;
    std::uint64_t measured = 0;    ///< flows the observer produced an estimate for
    std::uint64_t comparable = 0;  ///< measured flows with a QUIC stack baseline
    /// measured / candidates (0 when there are no candidates).
    double coverage = 0.0;
    /// Mean |observer estimate - stack mean| over comparable flows, ms.
    double mean_abs_err_ms = 0.0;
    /// Comparable flows whose |error| is within 25 ms (the Fig. 3 bucket).
    std::uint64_t within_25ms = 0;
    /// Table pressure counters; all zero for the idealized run.
    core::ConstrainedTableCounters table;
};

/// One replay run: the Fig. 3/4 aggregator plus the summary row.
struct ObserverRun {
    AccuracyAggregator aggregator;
    ObserverRunSummary summary;
};

/// Builds the interleaved wire stream from campaign traces and drives either
/// observer model over it.
class ObserverReplay {
public:
    explicit ObserverReplay(std::uint64_t seed = 0x0b5e'feedULL) : seed_{seed} {}

    /// Registers one connection's trace (ignored unless it received 1-RTT
    /// packets). The registration index keys the flow's synthetic DCID, so
    /// add order — not scan order — defines flow identity.
    void add(const qlog::Trace& trace);

    [[nodiscard]] std::size_t connection_count() const noexcept {
        return connections_.size();
    }

    /// Replays the stream through a perfect flow table.
    [[nodiscard]] ObserverRun run_idealized(core::ObserverConfig config = {}) const;

    /// Replays the stream through a ConstrainedMonitor with the given budget.
    [[nodiscard]] ObserverRun run_constrained(const core::ConstrainedConfig& config) const;

private:
    struct Connection {
        std::uint64_t key = 0;  ///< raw 8-byte DCID (packed big-endian)
        core::ConnectionAssessment assessment;  ///< endpoint-side baseline
    };
    struct Event {
        std::int64_t time_ns = 0;
        std::uint32_t conn = 0;
        std::uint32_t seq = 0;  ///< per-connection arrival index (tie order)
        core::SpinObservation obs;
    };

    /// Events sorted by (time, conn, seq) — the deterministic interleave.
    [[nodiscard]] std::vector<Event> sorted_events() const;
    /// Scores one run; `observed[i]` is the observer's result for
    /// connection i (empty when the observer lost the flow).
    [[nodiscard]] ObserverRun score(std::vector<core::SpinRttResult> observed) const;

    std::uint64_t seed_;
    std::vector<Connection> connections_;
    std::vector<Event> events_;
};

}  // namespace spinscope::analysis
