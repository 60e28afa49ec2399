// spinscope/quic/ack_tracker.hpp
//
// Receive-side acknowledgement bookkeeping for one packet-number space:
// which packet numbers arrived, when an ACK must be emitted, and ACK frame
// construction with the host-delay field.
//
// The delayed-ACK policy (ack every `ack_eliciting_threshold`-th packet
// immediately, otherwise after max_ack_delay — RFC 9002 §6.1) is a first-
// order driver of the paper's results: the receiver's ack delay rides on
// every spin period but is subtracted from the stack's own RTT samples.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "quic/frame.hpp"
#include "quic/types.hpp"
#include "util/time.hpp"

namespace spinscope::quic {

using util::Duration;
using util::TimePoint;

/// Tracks received packets and decides when to acknowledge.
class AckTracker {
public:
    struct Config {
        /// Send an immediate ACK once this many ack-eliciting packets are
        /// pending (RFC 9002 recommends every second packet).
        std::uint32_t ack_eliciting_threshold = 2;
        /// Otherwise delay the ACK at most this long (transport parameter
        /// max_ack_delay, default 25 ms — RFC 9000 §18.2).
        Duration max_ack_delay = Duration::millis(25);
    };

    explicit AckTracker(Config config) : config_{config} {}

    /// Records an incoming packet. Duplicates are detected and ignored.
    /// Returns false if `pn` was seen before.
    bool on_packet_received(PacketNumber pn, bool ack_eliciting, TimePoint now);

    /// True once at least one packet has been received.
    [[nodiscard]] bool any_received() const noexcept { return !ranges_.empty(); }

    /// Largest packet number received so far; kInvalidPacketNumber if none.
    [[nodiscard]] PacketNumber largest_received() const noexcept;

    /// True if an ACK should be sent right now (threshold reached).
    [[nodiscard]] bool ack_due_immediately() const noexcept;

    /// Deadline by which an ACK must go out; never() when nothing pending.
    [[nodiscard]] TimePoint ack_deadline() const noexcept;

    /// True when an ack-eliciting packet awaits acknowledgement.
    [[nodiscard]] bool ack_pending() const noexcept { return pending_ack_eliciting_ > 0; }

    /// Builds the ACK frame for everything received and resets the pending
    /// state. `now` stamps the ack_delay field (time since the largest
    /// ack-eliciting packet arrived). The frame views this tracker's ranges,
    /// so encode it before the next on_packet_received(). Returns nullopt if
    /// nothing to ack.
    [[nodiscard]] std::optional<AckFrame> build_ack(TimePoint now);

private:
    Config config_;
    /// Received ranges, descending by packet number (ACK frame order).
    std::vector<AckRange> ranges_;
    std::uint32_t pending_ack_eliciting_ = 0;
    TimePoint oldest_unacked_eliciting_ = TimePoint::never();
    TimePoint largest_received_at_ = TimePoint::never();
};

}  // namespace spinscope::quic
