// spinscope/quic/connection.hpp
//
// A QUIC v1 endpoint connection running on the spinscope simulator.
//
// Implements the protocol machinery the spin-bit study depends on:
//  * a three-flight handshake over Initial/Handshake packet-number spaces
//    (TLS is simulated by opaque CRYPTO payloads — see DESIGN.md §7);
//  * 1-RTT application streams with offset reassembly;
//  * delayed acknowledgements (every-Nth immediate, max_ack_delay timer);
//  * RFC 9002 RTT estimation, packet-threshold loss detection and PTO;
//  * slow-start/AIMD congestion window (ack-clocked flights — responses
//    larger than one window are what make spin edges observable at all);
//  * the RFC 9000 §17.4 spin bit on every short-header packet;
//  * qlog trace recording of every packet sent/received.
//
// One datagram carries one packet (no coalescing); the handshake flights are
// therefore one packet each, which preserves RTT-relevant sequencing.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "qlog/trace.hpp"
#include "quic/ack_tracker.hpp"
#include "quic/frame.hpp"
#include "quic/packet.hpp"
#include "quic/rtt_estimator.hpp"
#include "quic/spin.hpp"
#include "quic/stream.hpp"
#include "quic/types.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {

/// Subset of RFC 9000 §18.2 transport parameters spinscope models.
struct TransportParams {
    Duration max_ack_delay = Duration::millis(25);
    std::uint8_t ack_delay_exponent = 3;
};

/// Per-connection endpoint configuration.
struct ConnectionConfig {
    Role role = Role::client;
    Version version = Version::v1;
    SpinConfig spin{};
    TransportParams params{};
    /// The peer's max_ack_delay, used to cap reported ack delays in RTT
    /// adjustment (normally learned from transport parameters).
    Duration peer_max_ack_delay = Duration::millis(25);
    /// Acknowledge immediately once this many ack-eliciting packets are
    /// pending (RFC 9002 recommends 2).
    std::uint32_t ack_eliciting_threshold = 2;
    std::size_t mtu = 1200;
    std::uint32_t initial_cwnd_packets = 10;
    Duration initial_rtt = Duration::millis(100);
    /// Send a MAX_DATA flow-control update after receiving this many stream
    /// bytes since the last update (0 disables). Mirrors real stacks, which
    /// extend credit continuously during a download; these ack-eliciting
    /// client packets are what keep the spin wave moving on transfers that
    /// fit into a single congestion window.
    std::size_t flow_update_interval = 12 * 1024;
    /// Host emission latency: packets produced in reaction to received data
    /// (ACKs, flow updates, ack-clocked stream data) leave this much later
    /// than the triggering datagram — OS scheduling and stack processing.
    /// Strictly positive and inside every spin period exactly once per
    /// direction, it biases spin samples above the true RTT instead of
    /// letting symmetric jitter produce impossible sub-RTT samples.
    Duration emission_latency_min = Duration::micros(250);
    Duration emission_latency_max = Duration::micros(1200);
    /// Client gives up if the handshake has not completed by then.
    Duration handshake_timeout = Duration::seconds(5);
    /// Connection fails after this long without receiving anything.
    Duration idle_timeout = Duration::seconds(15);
    std::uint32_t max_pto_count = 5;

    // --- hostile-endpoint fault knobs (faults::ServerFaultMode wiring) -----
    /// Server receives Initials but never answers (handshake stall): the
    /// peer observes a silent host and times out.
    bool fault_stall_handshake = false;
    /// Endpoint goes deaf in 1-RTT: received short-header packets are
    /// dropped before tracking, so nothing post-handshake is ever
    /// acknowledged or processed (broken stack / deaf middlebox).
    bool fault_never_ack = false;
};

/// Counters exposed for analysis and tests.
struct ConnectionCounters {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;   // declared lost by loss detection
    std::uint64_t pto_count = 0;      // consecutive, resets on forward progress
    std::uint64_t pto_fired_total = 0;  // cumulative over the connection's life
    std::uint64_t one_rtt_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
};

/// One endpoint of a QUIC connection.
///
/// Lifecycle: construct with a datagram sink, call connect() (client) or
/// just feed on_datagram() (server). Completion/failure is signalled via the
/// callback members. The object must outlive the simulation run.
class Connection {
public:
    using SendFn = std::function<void(netsim::Datagram)>;

    /// `pool` (optional) supplies datagram storage: packets are encoded in
    /// place into pooled buffers and the storage recycles once the link
    /// delivery event drops it. The pool must outlive the connection and be
    /// owned by the same thread (pools are chunk-private, like the sharded
    /// campaign's MetricsRegistry). nullptr falls back to plain allocation.
    Connection(netsim::Simulator& sim, ConnectionConfig config, util::Rng rng, SendFn send_fn,
               qlog::Trace* trace = nullptr, bytes::BufferPool* pool = nullptr);

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Client: initiates the handshake (first Initial flight).
    void connect();

    /// Queues `data` on stream `id` (copied into the stream's send queue);
    /// sent once the handshake completes, subject to the congestion window.
    /// `fin` closes the stream.
    void send_stream(std::uint64_t id, bytes::ConstByteSpan data, bool fin);

    /// Sends CONNECTION_CLOSE and tears the connection down locally.
    void close(std::uint64_t error_code, const std::string& reason, bool application = true);

    /// Hostile-server hook: emits a correctly addressed 1-RTT packet whose
    /// payload is `payload` verbatim — no frame encoding, no reliability
    /// tracking. Used to model servers that produce garbage or truncated
    /// frame payloads; the receiving peer must classify this as a protocol
    /// error, never crash or hang.
    void send_raw_payload(std::vector<std::uint8_t> payload);

    /// Feeds one received datagram as a borrowed view (wired to
    /// netsim::Link's receiver); everything retained past the call is copied
    /// out during decoding.
    void on_datagram(bytes::ConstByteSpan datagram);

    // --- events ------------------------------------------------------------
    /// Fired once when the handshake completes (1-RTT send allowed).
    std::function<void()> on_handshake_complete;
    /// Fired when a peer stream is fully received (FIN + contiguous).
    std::function<void(std::uint64_t stream_id, std::vector<std::uint8_t> data)>
        on_stream_complete;
    /// Fired when the connection closes cleanly (sent or received CLOSE).
    std::function<void()> on_closed;
    /// Fired on handshake timeout, idle timeout or PTO exhaustion.
    std::function<void()> on_failed;

    // --- introspection -----------------------------------------------------
    [[nodiscard]] bool handshake_complete() const noexcept { return handshake_complete_; }
    [[nodiscard]] bool closed() const noexcept { return closed_; }
    [[nodiscard]] bool failed() const noexcept { return failed_; }
    /// True when the connection was torn down because the peer sent
    /// undecodable or protocol-violating data (FRAME_ENCODING_ERROR et al.).
    [[nodiscard]] bool protocol_error() const noexcept { return protocol_error_; }
    [[nodiscard]] const RttEstimator& rtt() const noexcept { return rtt_; }
    [[nodiscard]] const SpinState& spin_state() const noexcept { return spin_; }
    [[nodiscard]] const ConnectionCounters& counters() const noexcept { return counters_; }
    [[nodiscard]] Role role() const noexcept { return config_.role; }

    /// Writes final recovery metrics into the attached trace (call once the
    /// connection is done; the scanner does this for every attempt).
    void finalize_trace();

    /// Adds this connection's transport-level telemetry into `registry`
    /// under `<prefix>.*`: attempt/handshake/failure counters, cumulative
    /// PTO fires, loss, spin edges observed, a per-packet-grease suspicion
    /// counter, and RTT histograms. Call once, when the connection is done.
    void publish_metrics(telemetry::MetricsRegistry& registry,
                         std::string_view prefix = "quic.conn") const;

private:
    struct SentPacket {
        PacketNumber pn = 0;
        TimePoint sent_at;
        std::size_t bytes = 0;
        std::vector<Frame> retransmittable;  // CRYPTO/STREAM frames for loss recovery
    };

    struct Space {
        explicit Space(AckTracker::Config cfg) : tracker{cfg} {}
        PacketNumber next_pn = 0;
        PacketNumber largest_acked = kInvalidPacketNumber;
        PacketNumber largest_received = kInvalidPacketNumber;
        AckTracker tracker;
        std::vector<SentPacket> in_flight;  // ack-eliciting, unacked
        bool open = true;  // discarded once keys would be dropped
    };

    Space& space(PnSpace s) noexcept { return *spaces_[static_cast<std::size_t>(s)]; }

    // --- send path ---------------------------------------------------------
    void send_packet(PnSpace pn_space, std::vector<Frame> frames, bool pad_to_mtu = false);
    void pump();                       ///< flush acks + stream data within cwnd
    void send_ack_only(PnSpace pn_space);
    [[nodiscard]] std::size_t cwnd_available() const noexcept;

    // --- receive path ------------------------------------------------------
    void handle_packet(const DecodedPacket& packet);
    void handle_frames(PnSpace pn_space, const std::vector<Frame>& frames);
    void handle_ack(PnSpace pn_space, const AckFrame& ack);
    void handle_crypto(PnSpace pn_space, const CryptoFrame& crypto);
    void handle_stream(const StreamFrame& stream);

    /// Schedules the deferred post-receive flush (acks + pump) after the
    /// emission latency; coalesces multiple triggers.
    void schedule_flush();
    void flush_now();

    /// Tears the connection down as a transport-level protocol error
    /// (CONNECTION_CLOSE with `error_code`); finalize_trace() records the
    /// protocol_error outcome.
    void on_protocol_error(std::uint64_t error_code, const std::string& reason);

    // --- timers / teardown -------------------------------------------------
    void arm_pto();
    void on_pto();
    void arm_ack_timer();
    void arm_idle_timer();
    void fail();
    void teardown();
    void detect_losses(PnSpace pn_space, TimePoint now);
    void discard_space(PnSpace pn_space);

    /// Pool-backed when attached, plain otherwise; always empty with
    /// `config_.mtu` bytes reserved.
    [[nodiscard]] netsim::Datagram acquire_datagram() const;

    netsim::Simulator* sim_;
    ConnectionConfig config_;
    util::Rng rng_;
    SendFn send_fn_;
    qlog::Trace* trace_;
    bytes::BufferPool* pool_;

    SpinState spin_;
    RttEstimator rtt_;
    ConnectionCounters counters_;

    std::array<std::unique_ptr<Space>, kPnSpaceCount> spaces_;
    ConnectionId local_cid_;
    ConnectionId remote_cid_;

    std::map<std::uint64_t, SendQueue> send_streams_;
    std::map<std::uint64_t, ReassemblyBuffer> recv_streams_;

    // Congestion state (bytes).
    std::size_t cwnd_ = 0;
    std::size_t ssthresh_ = SIZE_MAX;
    std::size_t bytes_in_flight_ = 0;

    netsim::Timer pto_timer_;
    netsim::Timer ack_timer_;
    netsim::Timer handshake_timer_;
    netsim::Timer idle_timer_;

    bool flush_scheduled_ = false;
    std::uint64_t stream_bytes_received_ = 0;
    std::uint64_t flow_credit_granted_ = 0;
    bool flow_update_pending_ = false;

    bool handshake_complete_ = false;
    bool handshake_confirmed_ = false;
    bool closed_ = false;
    bool failed_ = false;
    bool protocol_error_ = false;
    bool server_saw_chlo_ = false;
};

}  // namespace spinscope::quic
