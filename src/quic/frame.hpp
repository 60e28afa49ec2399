// spinscope/quic/frame.hpp
//
// QUIC v1 frame encoding/decoding (RFC 9000 §19) for the frame subset the
// spinscope endpoints exchange: PADDING, PING, ACK, CRYPTO, NEW_TOKEN-free
// handshake, STREAM, CONNECTION_CLOSE and HANDSHAKE_DONE.

#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "quic/types.hpp"
#include "quic/varint.hpp"
#include "util/time.hpp"

namespace spinscope::quic {

using util::Duration;

/// Run of PADDING frames (type 0x00), collapsed into one count.
struct PaddingFrame {
    std::size_t length = 1;
};

/// PING (type 0x01): ack-eliciting no-op.
struct PingFrame {};

/// One contiguous acknowledged range, inclusive on both ends.
struct AckRange {
    PacketNumber smallest = 0;
    PacketNumber largest = 0;
};

/// ACK frame (type 0x02). `ranges` are ordered descending by packet number;
/// ranges[0].largest is the largest acknowledged packet. They are a view:
/// into the AckTracker's range list on the send side (encoded before the
/// tracker changes again) and into DecodedFrames::ack_ranges on receipt.
/// `ack_delay` is the decoded host delay between receiving the largest
/// acknowledged packet and sending this ACK (the field the QUIC stack's RTT
/// estimator subtracts and the spin bit cannot, which is one root of the
/// paper's overestimation findings).
struct AckFrame {
    std::span<const AckRange> ranges;
    Duration ack_delay = Duration::zero();

    [[nodiscard]] PacketNumber largest_acked() const noexcept {
        return ranges.empty() ? kInvalidPacketNumber : ranges.front().largest;
    }
    /// True if `pn` falls inside any acknowledged range.
    [[nodiscard]] bool acknowledges(PacketNumber pn) const noexcept;
};

// Frame payloads below are views, never copies: into the datagram being
// decoded on receipt, into a stream's SendQueue or a static handshake token
// when sending. A frame lives no longer than the packet it is encoded into
// or decoded from.

/// CRYPTO frame (type 0x06): carries the simulated TLS handshake bytes.
struct CryptoFrame {
    std::uint64_t offset = 0;
    std::span<const std::uint8_t> data;
};

/// STREAM frame (types 0x08-0x0f): application data. spinscope uses client
/// bidi stream 0 for the HTTP/3-mini request/response.
struct StreamFrame {
    std::uint64_t stream_id = 0;
    std::uint64_t offset = 0;
    bool fin = false;
    std::span<const std::uint8_t> data;
};

/// MAX_DATA (type 0x10): connection flow-control credit. spinscope does not
/// enforce flow control, but the frame matters for the spin bit: clients
/// send credit updates while receiving a response, and those ack-eliciting
/// packets keep the spin wave advancing even on single-flight transfers.
struct MaxDataFrame {
    std::uint64_t maximum = 0;
};

/// CONNECTION_CLOSE (0x1c transport / 0x1d application).
struct ConnectionCloseFrame {
    std::uint64_t error_code = 0;
    bool application = false;
    std::string_view reason;
};

/// HANDSHAKE_DONE (type 0x1e), server -> client only.
struct HandshakeDoneFrame {};

using Frame = std::variant<PaddingFrame, PingFrame, AckFrame, CryptoFrame, StreamFrame,
                           MaxDataFrame, ConnectionCloseFrame, HandshakeDoneFrame>;

/// True for frames that elicit an acknowledgement (everything but ACK,
/// PADDING and CONNECTION_CLOSE — RFC 9002 §2).
[[nodiscard]] bool is_ack_eliciting(const Frame& frame) noexcept;

/// True if any frame in `frames` is ack-eliciting.
[[nodiscard]] bool any_ack_eliciting(std::span<const Frame> frames) noexcept;

/// The frames of one outgoing packet, stored inline. A packet carries at
/// most an ACK, a MAX_DATA and one STREAM or CRYPTO frame, so building one
/// never touches the heap.
class SendFrames {
public:
    static constexpr std::size_t kCapacity = 3;

    SendFrames() = default;
    SendFrames(std::initializer_list<Frame> frames) {
        for (const Frame& frame : frames) push(frame);
    }

    /// Throws std::out_of_range past kCapacity (a packet-building bug).
    void push(const Frame& frame) {
        frames_.at(size_) = frame;
        ++size_;
    }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::span<const Frame> span() const noexcept { return {frames_.data(), size_}; }

private:
    std::array<Frame, kCapacity> frames_{};
    std::size_t size_ = 0;
};

/// Receive-side scratch: the frames of the last decoded packet and the ACK
/// ranges they view. Reused packet after packet, so its storage grows to
/// the largest packet seen and then stops allocating.
struct DecodedFrames {
    std::vector<Frame> frames;
    std::vector<AckRange> ack_ranges;
};

/// Encodes one frame through a writer (which may target a pooled
/// bytes::Buffer — the hot path appends frames in place, no intermediate
/// vector). ACK delays are encoded in units of 2^ack_delay_exponent
/// microseconds (RFC 9000 §18.2, default exponent 3).
void encode_frame(Writer& w, const Frame& frame, std::uint8_t ack_delay_exponent);

/// Appends a frame sequence through `w`.
void encode_frames(Writer& w, std::span<const Frame> frames,
                   std::uint8_t ack_delay_exponent);

/// Decodes all frames in a packet payload into `out` (cleared first). The
/// CRYPTO, STREAM and CONNECTION_CLOSE payloads view `payload`, which must
/// outlive their use. Returns false on malformed input (unknown frame type,
/// truncation); `out` then holds no meaningful frames.
[[nodiscard]] bool decode_frames(std::span<const std::uint8_t> payload,
                                 std::uint8_t ack_delay_exponent, DecodedFrames& out);

}  // namespace spinscope::quic
