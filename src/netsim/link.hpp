// spinscope/netsim/link.hpp
//
// Unidirectional network link with configurable propagation delay, jitter,
// serialization rate, random loss and reordering, plus passive taps for
// on-path observers.
//
// Reordering matters to this study: RFC 9312 warns that reordering near spin
// edges produces ultra-short RTT samples (paper Fig. 1b), and §5.2 of the
// paper quantifies how rarely that bites in practice. The link therefore
// models reordering explicitly: a reorder event delays one datagram by an
// extra random amount and exempts it from the FIFO clamp, so later datagrams
// can overtake it.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "bytes/bytes.hpp"
#include "faults/faults.hpp"
#include "netsim/simulator.hpp"
#include "util/rng.hpp"

namespace spinscope::netsim {

/// A UDP-datagram-sized payload travelling the link: a move-only,
/// pool-recyclable byte buffer. Endpoints acquire one from their chunk's
/// bytes::BufferPool (or construct an unpooled one), encode in place, and
/// move it into send(); the link moves it through the event queue and the
/// storage returns to the pool when the delivery (or drop) destroys it.
using Datagram = bytes::Buffer;

/// Static link behaviour. All probabilities in [0, 1].
struct LinkConfig {
    /// One-way propagation delay (base, before jitter).
    Duration base_delay = Duration::millis(10);
    /// Lognormal jitter added to each datagram: exp(N(mu, sigma)) - 1,
    /// scaled by `jitter_scale`. Zero scale disables jitter.
    Duration jitter_scale = Duration::zero();
    double jitter_sigma = 0.5;
    /// Independent per-datagram drop probability.
    double loss_probability = 0.0;
    /// Probability that a datagram is hit by a reorder event: it receives an
    /// extra delay in [reorder_extra_min, reorder_extra_max] and is exempted
    /// from the FIFO clamp, so subsequent datagrams may overtake it.
    double reorder_probability = 0.0;
    Duration reorder_extra_min = Duration::micros(100);
    Duration reorder_extra_max = Duration::millis(4);
    /// Serialization rate in bits/s; 0 means infinitely fast.
    double bandwidth_bps = 0.0;
    /// When true (default), non-reordered datagrams are delivered in FIFO
    /// order even under jitter (arrival clamped to the previous arrival).
    bool enforce_fifo = true;
};

/// Sanitizes a LinkConfig in place: NaN probabilities and an inverted
/// reorder-delay range throw std::invalid_argument (configuration bugs);
/// finite out-of-range probabilities and negative scales are clamped into
/// their valid domain. Link's constructor applies this to its copy, so no
/// downstream sampling ever sees an invalid knob.
void validate_link_config(LinkConfig& config);

/// Statistics a link keeps about itself (ground truth for tests/benches).
struct LinkStats {
    std::uint64_t sent = 0;             ///< datagrams handed to the link
    std::uint64_t delivered = 0;        ///< datagrams delivered to the receiver
    std::uint64_t dropped = 0;          ///< datagrams lost
    std::uint64_t reordered = 0;        ///< datagrams that overtook or were overtaken
    std::uint64_t delivered_bytes = 0;  ///< payload bytes of delivered datagrams
    std::uint64_t dropped_bytes = 0;    ///< payload bytes of lost datagrams
    // Injected-fault accounting (all zero unless a FaultPlan is attached).
    std::uint64_t fault_burst_dropped = 0;      ///< Gilbert–Elliott losses
    std::uint64_t fault_blackhole_dropped = 0;  ///< losses in outage windows
    std::uint64_t fault_delay_spiked = 0;       ///< datagrams hit by a spike
    std::uint64_t fault_duplicated = 0;         ///< extra copies injected
};

/// Unidirectional link.
class Link {
public:
    /// Receiver invoked at delivery time (simulator clock already advanced).
    /// Receives a borrowed view of the wire bytes; the backing buffer lives
    /// until the delivery event returns, then recycles to its pool.
    using Receiver = std::function<void(bytes::ConstByteSpan)>;
    /// Passive tap invoked at the observation point with a borrowed view of
    /// the wire bytes (an on-path observer owns nothing). Taps see every
    /// datagram that will be delivered (not lost ones), at its delivery time
    /// — this matches an observer colocated with the receiving endpoint,
    /// which is the paper's vantage (qlog of received packets).
    using Tap = std::function<void(TimePoint, bytes::ConstByteSpan)>;

    Link(Simulator& sim, LinkConfig config, util::Rng rng);

    /// Sets the delivering endpoint. Must be set before send().
    void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

    /// Adds a passive observer tap; taps run before the receiver.
    void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

    /// Queues one datagram for transmission at the current simulated time.
    /// Takes the datagram by value and moves it end to end — through fault
    /// verdicts, the serializer and the delivery event — so a send never
    /// copies payload bytes (fault duplication clones explicitly).
    void send(Datagram datagram);

    /// Attaches an adversarial fault plan. `rng` must be a stream
    /// independent of the link's own (the injector never touches the link's
    /// draws, so an empty plan — or no plan — yields byte-identical
    /// schedules). Re-attaching replaces the previous plan and its state.
    void attach_faults(faults::FaultPlan plan, util::Rng rng) {
        injector_.emplace(std::move(plan), rng);
    }

    /// The active injector, if a plan is attached (stats introspection).
    [[nodiscard]] const faults::FaultInjector* fault_injector() const noexcept {
        return injector_ ? &*injector_ : nullptr;
    }

    [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

    /// Adds this link's stats into `registry` as counters `<prefix>.sent`,
    /// `.delivered`, `.dropped`, `.reordered`, `.delivered_bytes`,
    /// `.dropped_bytes` (additive, so per-attempt links aggregate into
    /// campaign-wide totals).
    void publish_metrics(telemetry::MetricsRegistry& registry, std::string_view prefix) const;

private:
    [[nodiscard]] Duration sample_jitter();
    void schedule_delivery(Datagram datagram, TimePoint arrival);

    Simulator* sim_;
    LinkConfig config_;
    util::Rng rng_;
    Receiver receiver_;
    std::vector<Tap> taps_;
    LinkStats stats_;
    std::optional<faults::FaultInjector> injector_;
    TimePoint last_scheduled_arrival_ = TimePoint::origin();
    TimePoint serializer_free_at_ = TimePoint::origin();
};

/// Symmetric duplex path between a client and a server: a forward
/// (client->server) and a return (server->client) link built from one
/// profile. The paper's spin observer sits on the return path at the client
/// side; `return_link().add_tap(...)` is where it attaches.
class Path {
public:
    Path(Simulator& sim, const LinkConfig& forward, const LinkConfig& ret, util::Rng& rng);

    [[nodiscard]] Link& forward_link() noexcept { return forward_; }
    [[nodiscard]] Link& return_link() noexcept { return return_; }

    /// Base (no jitter / queueing) network round-trip time of the path.
    [[nodiscard]] Duration base_rtt() const noexcept {
        return forward_.config().base_delay + return_.config().base_delay;
    }

private:
    Link forward_;
    Link return_;
};

}  // namespace spinscope::netsim
