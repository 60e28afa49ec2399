// spinscope/qlog/trace.hpp
//
// qlog-flavoured connection traces.
//
// The paper's scanner extends quic-go's qlog output with the spin-bit state
// of every received packet and analyzes those logs offline (§3.2-3.3). This
// module is the equivalent: endpoints record per-packet events and final
// recovery metrics into a Trace; the analysis pipeline consumes Traces.
// Two serializations: JSON lines (to_jsonl, the human-readable export, with
// a strict reader of its exact field order) and the compact binary form the
// campaign journal stores (write_binary / read_binary). The binary form keeps
// exactly what to_jsonl prints, so a decoded trace equals
// parse_jsonl(to_jsonl(trace)).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "quic/packet.hpp"
#include "quic/types.hpp"
#include "util/time.hpp"

namespace spinscope::bytes {
class ByteReader;
class ByteWriter;
}  // namespace spinscope::bytes

namespace spinscope::qlog {

using util::Duration;
using util::TimePoint;

/// One packet-level event (sent or received).
struct PacketEvent {
    TimePoint time;
    quic::PacketType type = quic::PacketType::one_rtt;
    quic::PacketNumber packet_number = 0;
    /// Spin-bit value; meaningful only for 1-RTT packets.
    bool spin = false;
    /// Total datagram size in bytes.
    std::uint32_t size = 0;
    bool ack_eliciting = false;
    /// Valid Edge Counter from the reserved bits (VEC extension; 0 for
    /// standard RFC 9000 traffic).
    std::uint8_t vec = 0;
};

/// Final recovery metrics of a connection, mirroring qlog's
/// "recovery:metrics_updated" stream in condensed form.
struct RecoveryMetrics {
    /// Ack-delay-adjusted RTT samples (ms) in arrival order — the paper's
    /// "QUIC stack estimates" baseline.
    std::vector<double> rtt_samples_ms;
    double min_rtt_ms = 0.0;
    double smoothed_rtt_ms = 0.0;
    std::uint64_t packets_lost = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
};

/// How a connection attempt ended.
enum class ConnectionOutcome : std::uint8_t {
    ok,                 ///< handshake + request/response completed
    handshake_timeout,  ///< peer silent / not QUIC-capable
    aborted,            ///< closed with error before completing
    attempt_timeout,    ///< scanner's per-attempt deadline hit with the event
                        ///< queue still busy (neither completed nor failed)
    protocol_error,     ///< peer sent undecodable or protocol-violating data
                        ///< (e.g. garbage frame payloads) and the connection
                        ///< was torn down with a transport error
};

/// Number of ConnectionOutcome values (for outcome-indexed tables).
inline constexpr std::size_t kConnectionOutcomeCount = 5;

[[nodiscard]] constexpr const char* to_cstring(ConnectionOutcome o) noexcept {
    switch (o) {
        case ConnectionOutcome::ok: return "ok";
        case ConnectionOutcome::handshake_timeout: return "handshake_timeout";
        case ConnectionOutcome::aborted: return "aborted";
        case ConnectionOutcome::attempt_timeout: return "attempt_timeout";
        case ConnectionOutcome::protocol_error: return "protocol_error";
    }
    return "?";
}

/// Hard cap on recorded packet events per direction of one trace. A healthy
/// scan attempt records a few dozen events; a pathological retransmission storm
/// or a hung simulation must not be able to grow a trace without bound. Overflow
/// is counted in Trace::events_truncated instead of being recorded.
inline constexpr std::size_t kMaxTraceEventsPerDirection = 1u << 16;

/// Trace of a single connection from one vantage (spinscope records the
/// client side, like the paper's scanner).
struct Trace {
    std::string host;        ///< target domain (with "www." prefix as queried)
    std::string ip;          ///< server address string
    quic::Version version = quic::Version::v1;
    ConnectionOutcome outcome = ConnectionOutcome::aborted;
    std::vector<PacketEvent> sent;
    std::vector<PacketEvent> received;
    RecoveryMetrics metrics;
    /// Packet events dropped because a direction hit
    /// kMaxTraceEventsPerDirection (0 for every sane connection).
    std::uint64_t events_truncated = 0;

    void record_sent(const PacketEvent& ev) {
        if (sent.size() < kMaxTraceEventsPerDirection) {
            sent.push_back(ev);
        } else {
            ++events_truncated;
        }
    }
    void record_received(const PacketEvent& ev) {
        if (received.size() < kMaxTraceEventsPerDirection) {
            received.push_back(ev);
        } else {
            ++events_truncated;
        }
    }
};

/// Serializes a trace to JSON-lines (one event object per line, preceded by
/// a header line). Deterministic field order; round-trips via parse_jsonl().
[[nodiscard]] std::string to_jsonl(const Trace& trace);

/// Parses the to_jsonl() representation in one forward pass: fields in the
/// writer's order, integers as exact integers, the rtt fields as doubles.
/// Returns nullopt on anything to_jsonl() would not emit.
[[nodiscard]] std::optional<Trace> parse_jsonl(std::string_view text);

/// Appends the journal's binary form of `trace` (DESIGN.md §11.1): host and
/// ip, version, outcome and truncation count, then the sent and received
/// events, each delta-coded against the one before it (time and packet
/// number), then the recovery metrics. Like to_jsonl it drops control bytes
/// from host and ip and keeps each RTT value to six decimals of a
/// millisecond (integer nanoseconds; non-finite values are escaped).
void write_binary(bytes::ByteWriter& out, const Trace& trace);

/// Reads one write_binary() trace into `out`, overwriting every field and
/// keeping the storage of its strings and vectors. False, with
/// `out` in an unspecified state, on anything write_binary would not emit:
/// overlong varints, out-of-range enums or integers, counts past the bytes
/// left, control bytes in a name, a non-canonical RTT value. Never throws.
[[nodiscard]] bool read_binary(bytes::ByteReader& in, Trace& out);

}  // namespace spinscope::qlog
