// spinscope/core/observer.hpp
//
// Passive spin-bit RTT measurement — the heart of the paper.
//
// An observer watching one direction of a QUIC flow sees the spin bit flip
// ("spin edges") once per round trip; the time between consecutive edges is
// an RTT estimate (paper §2.1). That rule lives in one place, SpinEdgeState,
// and every spin measurement in spinscope is built on it:
//
//  * batch measurement over a recorded packet sequence, in received order
//    ("R") or packet-number-sorted order ("S") — the paper's §5.1 method for
//    quantifying the impact of reordering;
//  * a streaming observer with the RFC 9312 robustness heuristics
//    (packet-number filtering, implausible-sample rejection) that the paper
//    calls out as untested at scale. It also works as an on-path wire tap
//    on one flow (paper §2.1), fed raw datagrams off a netsim::Link;
//  * the per-slot state of core::ConstrainedMonitor, the multi-flow table.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bytes/bytes.hpp"
#include "netsim/link.hpp"
#include "quic/types.hpp"
#include "util/time.hpp"

namespace spinscope::core {

using util::Duration;
using util::TimePoint;

/// One observed 1-RTT packet: arrival time, packet number, spin value.
/// This is exactly the triple the paper extracts from qlog (§3.3).
struct SpinObservation {
    TimePoint time;
    quic::PacketNumber packet_number = 0;
    bool spin = false;
    /// Valid Edge Counter (VEC extension); 0 for standard traffic.
    std::uint8_t vec = 0;
};

/// Packet iteration order for batch measurement (paper §5.1 terminology).
enum class PacketOrder : std::uint8_t {
    received,  ///< "R": order of arrival, reordering included
    sorted,    ///< "S": sorted by packet number, reordering corrected
};

/// The spin edge rule over one flow, in the integer state a switch register
/// can hold: a change of the spin value is an edge, and the time from one
/// edge to the next is one RTT sample. Times are int64 nanoseconds; the
/// first edge only starts the clock.
struct SpinEdgeState {
    std::int64_t last_edge_ns = 0;  ///< time of the latest edge, once edge_count > 0
    std::uint32_t edge_count = 0;
    bool have_value = false;
    bool value = false;  ///< current spin value, once have_value
    bool saw_zero = false;
    bool saw_one = false;

    /// The paper's §3.3 candidate criterion: both spin values observed.
    [[nodiscard]] bool spin_candidate() const noexcept { return saw_zero && saw_one; }
    /// True when `spin` would change the current value.
    [[nodiscard]] bool changes(bool spin) const noexcept { return have_value && spin != value; }

    /// Feeds one packet. A value change is an edge only when `admit` holds
    /// (a caller's pre-edge gates; ignored when the value does not change).
    /// Returns the interval in ns since the previous edge when this packet's
    /// edge closes one.
    std::optional<std::int64_t> on_packet(std::int64_t time_ns, bool spin,
                                          bool admit = true) noexcept {
        (spin ? saw_one : saw_zero) = true;
        if (!have_value) {
            have_value = true;
            value = spin;
            return std::nullopt;
        }
        if (spin == value || !admit) return std::nullopt;
        value = spin;
        const std::int64_t previous = last_edge_ns;
        last_edge_ns = time_ns;
        if (edge_count++ == 0) return std::nullopt;
        return time_ns - previous;
    }
};

/// Result of a batch spin-RTT measurement over one connection: the edge
/// state the packets left behind plus the samples it produced.
struct SpinRttResult : SpinEdgeState {
    /// Edge-to-edge intervals, milliseconds, in edge order.
    std::vector<double> samples_ms;

    [[nodiscard]] bool has_samples() const noexcept { return !samples_ms.empty(); }
    [[nodiscard]] double mean_ms() const noexcept;
    [[nodiscard]] double min_ms() const noexcept;
};

/// Computes spin RTT samples over a full packet record: the packets in the
/// chosen order through one SpinEdgeState, every interval converted to ms.
/// Duplicate packet numbers are skipped in sorted order.
[[nodiscard]] SpinRttResult measure_spin_rtt(std::span<const SpinObservation> packets,
                                             PacketOrder order);

/// Robustness heuristics for the streaming observer (RFC 9312 §4.2/4.3).
struct ObserverConfig {
    /// Only treat a value change as an edge if it appears on a packet with a
    /// higher packet number than the packet that set the current value.
    /// This is the RFC's reordering defence (needs PN visibility, i.e. an
    /// endpoint-side observer; a mid-network one cannot read PNs).
    bool packet_number_filter = false;
    /// Reject samples below this floor (static plausibility check).
    Duration min_plausible_rtt = Duration::zero();
    /// Reject samples smaller than `dynamic_reject_ratio` times the current
    /// smoothed spin RTT (0 disables). Accepted samples update the smoothed
    /// value with weight 1/8 (RFC 9002's smoothing weight).
    double dynamic_reject_ratio = 0.0;
    /// Valid Edge Counter mode (De Vaere et al. extension): treat a value
    /// change as an edge only if the packet carries VEC > 0, and record a
    /// sample only when the edge is fully validated (VEC == 3). Requires
    /// VEC-enabled endpoints; standard traffic yields no samples.
    bool require_vec = false;
};

/// Streaming spin observer: a SpinEdgeState behind the RFC 9312 gates, with
/// sample rejection and a float EWMA. Feed packets in arrival order.
class SpinEdgeObserver {
public:
    explicit SpinEdgeObserver(ObserverConfig config = {}) : config_{config} {}

    /// Processes one observed packet.
    void on_packet(const SpinObservation& packet);

    /// Processes one observed datagram, the way an on-path device sees it
    /// (a borrowed view; nothing is copied). Long-header and non-QUIC
    /// datagrams are ignored. Packet numbers are header-protected on the
    /// wire, so the arrival index stands in for one; it strictly increases,
    /// so the packet-number filter never fires on this path.
    void on_datagram(TimePoint at, bytes::ConstByteSpan datagram);

    /// Adapter usable directly as a netsim::Link tap.
    [[nodiscard]] netsim::Link::Tap tap() {
        return [this](TimePoint at, bytes::ConstByteSpan dg) { on_datagram(at, dg); };
    }

    [[nodiscard]] const SpinRttResult& result() const noexcept { return result_; }
    /// Short-header datagrams seen by on_datagram.
    [[nodiscard]] std::size_t short_header_packets() const noexcept {
        return short_header_packets_;
    }
    /// Samples rejected by the plausibility heuristics.
    [[nodiscard]] std::size_t rejected_samples() const noexcept { return rejected_; }

private:
    ObserverConfig config_;
    SpinRttResult result_;
    /// PN of the packet that set the current value, advanced by newer
    /// packets of the same value.
    quic::PacketNumber value_set_by_pn_ = 0;
    std::size_t rejected_ = 0;
    double smoothed_ms_ = 0.0;
    bool have_smoothed_ = false;
    std::size_t short_header_packets_ = 0;
};

}  // namespace spinscope::core
