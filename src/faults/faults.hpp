// spinscope/faults/faults.hpp
//
// Adversarial fault model for the measurement pipeline.
//
// The paper's scanner survived the real Internet: bursty loss, stalled
// handshakes, mid-connection blackholes and plainly misbehaving servers.
// RFC 9312 §4 stresses that spin-signal quality degrades exactly under such
// pathologies, so a faithful §5 accuracy reproduction needs them injectable
// and measurable. This module defines
//
//   * FaultPlan     — declarative per-link network faults: Gilbert–Elliott
//                     two-state burst loss (opt-in replacement for the
//                     i.i.d. model), scheduled blackhole windows (link
//                     flaps), one-shot delay spikes and duplicate delivery;
//   * FaultInjector — the per-link runtime that executes a plan with its own
//                     deterministic RNG stream, so an attached-but-empty
//                     plan consumes no randomness and perturbs nothing;
//   * ServerFaultMode / ServerFaultProfile — the hostile-server taxonomy the
//                     web population assigns to hosts and the scanner
//                     exercises (handshake stall, mid-transfer abort,
//                     garbage payloads, never-ACK).
//
// netsim::Link owns a FaultInjector when a plan is attached; web::PopulationModel
// hands out ServerFaultProfiles; scanner::Campaign wires both together.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::faults {

using util::Duration;
using util::TimePoint;

/// Gilbert–Elliott two-state burst-loss channel. The chain starts in the
/// good state and transitions once per datagram *before* the loss draw:
///
///     good --p_good_to_bad--> bad        bad --p_bad_to_good--> good
///
/// Loss is Bernoulli(loss_good) in good and Bernoulli(loss_bad) in bad.
/// Stationary loss rate is pi_bad * loss_bad + pi_good * loss_good with
/// pi_bad = p_gb / (p_gb + p_bg); the mean sojourn in the bad state (and so
/// the mean loss-burst scale) is 1 / p_bad_to_good datagrams.
struct GilbertElliottConfig {
    bool enabled = false;
    double p_good_to_bad = 0.0005;  ///< per-datagram entry into the burst state
    double p_bad_to_good = 0.25;    ///< per-datagram burst exit (mean burst 4)
    double loss_good = 0.0;         ///< residual loss outside bursts
    double loss_bad = 0.6;          ///< loss inside bursts
};

/// Total outage of the link: every datagram handed to it during
/// [start, end) is dropped. Models link flaps and mid-connection blackholes.
struct BlackholeWindow {
    TimePoint start;
    TimePoint end;  ///< exclusive
};

/// One-shot latency excursion: the first datagram sent at or after `at`
/// receives `extra` additional one-way delay (bufferbloat spike, reroute).
/// Each spike fires exactly once.
struct DelaySpike {
    TimePoint at;
    Duration extra;
};

/// Declarative fault description attachable to one netsim::Link direction.
/// An empty (default-constructed) plan is an explicit no-op: the injector
/// draws no randomness for it, so attaching one is byte-identical to
/// attaching none.
struct FaultPlan {
    GilbertElliottConfig burst_loss{};
    std::vector<BlackholeWindow> blackholes;  ///< need not be sorted
    std::vector<DelaySpike> delay_spikes;     ///< consumed in time order
    /// Per-datagram probability of delivering a second copy.
    double duplicate_probability = 0.0;

    [[nodiscard]] bool empty() const noexcept {
        return !burst_loss.enabled && blackholes.empty() && delay_spikes.empty() &&
               duplicate_probability <= 0.0;
    }

    /// Throws std::invalid_argument on NaN knobs or inverted windows; clamps
    /// finite probabilities into [0, 1]. Mirrors netsim's LinkConfig rules.
    void validate();
};

/// What the injector did, for LinkStats/telemetry aggregation.
struct FaultStats {
    std::uint64_t burst_dropped = 0;      ///< Gilbert–Elliott losses
    std::uint64_t blackhole_dropped = 0;  ///< losses inside outage windows
    std::uint64_t delay_spiked = 0;       ///< datagrams hit by a spike
    std::uint64_t duplicated = 0;         ///< extra copies injected
    std::uint64_t burst_entries = 0;      ///< good->bad transitions taken
};

/// Per-link runtime state of a FaultPlan. One instance per link direction;
/// all randomness comes from the injector's own RNG stream so the host
/// link's draws (loss, jitter, reordering) are untouched.
class FaultInjector {
public:
    /// `plan` is copied; `rng` should be a stream independent of the link's.
    FaultInjector(FaultPlan plan, util::Rng rng);

    /// Verdict for one datagram handed to the link at time `now`.
    struct Verdict {
        bool drop = false;
        bool blackholed = false;       ///< drop cause was an outage window
        Duration extra_delay{};        ///< additive one-way delay
        bool duplicate = false;        ///< deliver a second copy
    };

    /// Advances the fault state machine and classifies one send. Draws RNG
    /// only for features the plan enables, so an empty plan is draw-free.
    [[nodiscard]] Verdict on_send(TimePoint now);

    [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
    /// True while the Gilbert–Elliott chain sits in the bad (burst) state.
    [[nodiscard]] bool in_burst() const noexcept { return in_bad_state_; }

private:
    FaultPlan plan_;
    util::Rng rng_;
    FaultStats stats_;
    bool in_bad_state_ = false;
    std::size_t next_spike_ = 0;
};

// --- hostile servers --------------------------------------------------------

/// How a misbehaving server fails its clients (scanner §3.3 reality check:
/// classifying a host needs every one of these to terminate in a defined
/// ConnectionOutcome, never a crash or silent hang).
enum class ServerFaultMode : std::uint8_t {
    none,                ///< healthy server
    handshake_stall,     ///< receives Initials, never answers
    mid_transfer_abort,  ///< closes with an error after response headers
    garbage_payload,     ///< emits undecodable 1-RTT frame payloads
    never_ack,           ///< completes the handshake, then goes deaf in 1-RTT
};

/// Number of ServerFaultMode values (for mode-indexed tables).
inline constexpr std::size_t kServerFaultModeCount = 5;

[[nodiscard]] constexpr const char* to_cstring(ServerFaultMode m) noexcept {
    switch (m) {
        case ServerFaultMode::none: return "none";
        case ServerFaultMode::handshake_stall: return "handshake_stall";
        case ServerFaultMode::mid_transfer_abort: return "mid_transfer_abort";
        case ServerFaultMode::garbage_payload: return "garbage_payload";
        case ServerFaultMode::never_ack: return "never_ack";
    }
    return "?";
}

/// A host's failure disposition. `per_attempt_probability` < 1 models
/// transient faults (overload, flapping middlebox) that fire on some
/// attempts only; 1.0 models a persistently broken host.
struct ServerFaultProfile {
    ServerFaultMode mode = ServerFaultMode::none;
    double per_attempt_probability = 0.0;

    [[nodiscard]] bool healthy() const noexcept {
        return mode == ServerFaultMode::none || per_attempt_probability <= 0.0;
    }
};

}  // namespace spinscope::faults
