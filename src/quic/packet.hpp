// spinscope/quic/packet.hpp
//
// QUIC v1 packet header encoding and decoding (RFC 9000 §17), including the
// latency spin bit in the short-header first byte, plus packet-number
// truncation/expansion (RFC 9000 Appendix A).
//
// Crypto note: spinscope does not apply AEAD or header protection — payloads
// travel in the clear inside the simulator. The spin bit is the one short-
// header field that is *not* protected in real QUIC, so every observable
// this study relies on has the same wire semantics as the real protocol.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "quic/types.hpp"
#include "quic/varint.hpp"

namespace spinscope::quic {

/// Wire packet categories.
enum class PacketType : std::uint8_t {
    initial,
    zero_rtt,
    handshake,
    retry,
    one_rtt,
    version_negotiation,
};

[[nodiscard]] constexpr const char* to_cstring(PacketType t) noexcept {
    switch (t) {
        case PacketType::initial: return "initial";
        case PacketType::zero_rtt: return "0rtt";
        case PacketType::handshake: return "handshake";
        case PacketType::retry: return "retry";
        case PacketType::one_rtt: return "1rtt";
        case PacketType::version_negotiation: return "version_negotiation";
    }
    return "?";
}

/// Maps a packet type to the packet-number space it lives in.
[[nodiscard]] constexpr PnSpace pn_space_of(PacketType t) noexcept {
    switch (t) {
        case PacketType::initial: return PnSpace::initial;
        case PacketType::handshake: return PnSpace::handshake;
        default: return PnSpace::application;
    }
}

/// Parsed header of one packet. For encoding, fill in the fields relevant to
/// `type`; irrelevant ones are ignored.
struct PacketHeader {
    PacketType type = PacketType::one_rtt;
    Version version = Version::v1;   // long header only
    ConnectionId dcid;
    ConnectionId scid;               // long header only
    PacketNumber packet_number = 0;  // full (expanded) number
    bool spin = false;               // 1-RTT only: the latency spin bit
    bool key_phase = false;          // 1-RTT only
    /// Valid Edge Counter (0-3), the De Vaere et al. extension carried in
    /// the two short-header reserved bits (0x18). RFC 9000 requires those
    /// bits to be zero, which is exactly what a VEC-disabled endpoint sends;
    /// spinscope implements the three-bit proposal as an opt-in extension.
    std::uint8_t vec = 0;
};

/// Result of decoding one packet from a datagram.
struct DecodedPacket {
    PacketHeader header;
    std::size_t pn_length = 0;           ///< encoded packet-number bytes (1..4)
    std::span<const std::uint8_t> payload;  ///< frame bytes
    std::size_t total_size = 0;          ///< bytes consumed from the datagram
};

/// Chooses the shortest packet-number encoding (1..4 bytes) that a receiver
/// which has acknowledged `largest_acked` can unambiguously expand
/// (RFC 9000 Appendix A.2). `largest_acked == kInvalidPacketNumber` means
/// nothing acknowledged yet.
[[nodiscard]] std::size_t packet_number_length(PacketNumber full,
                                               PacketNumber largest_acked) noexcept;

/// Expands a truncated packet number given the largest packet number
/// successfully processed so far (RFC 9000 Appendix A.3).
/// `largest_received == kInvalidPacketNumber` means no packet yet.
[[nodiscard]] PacketNumber expand_packet_number(PacketNumber largest_received,
                                                std::uint64_t truncated,
                                                std::size_t pn_length) noexcept;

/// Encodes header + payload through `w` (which may target a pooled
/// bytes::Buffer datagram). `largest_acked` drives packet-number truncation.
/// Long headers carry an explicit Length field; 1-RTT payloads extend to the
/// end of the datagram.
void encode_packet(Writer& w, const PacketHeader& header,
                   std::span<const std::uint8_t> payload, PacketNumber largest_acked);

/// Vector-compat overload (tests, benches).
inline void encode_packet(std::vector<std::uint8_t>& out, const PacketHeader& header,
                          std::span<const std::uint8_t> payload, PacketNumber largest_acked) {
    Writer w{out};
    encode_packet(w, header, payload, largest_acked);
}

/// Buffer overload: encodes straight into pooled datagram storage.
inline void encode_packet(bytes::Buffer& out, const PacketHeader& header,
                          std::span<const std::uint8_t> payload, PacketNumber largest_acked) {
    Writer w{out};
    encode_packet(w, header, payload, largest_acked);
}

/// Writes only the 1-RTT short header (first byte, DCID, truncated packet
/// number). A 1-RTT payload extends to the end of the datagram, so the
/// connection hot path writes this header into the pooled datagram and then
/// appends frames in place — no intermediate payload vector exists.
/// `header.type` must be PacketType::one_rtt.
void encode_short_header(Writer& w, const PacketHeader& header, PacketNumber largest_acked);

/// Decodes the packet at the front of `datagram`.
///
/// `short_dcid_length` is the connection-ID length the receiving endpoint
/// uses (short headers do not self-describe it); `largest_received` is the
/// largest packet number processed in the matching PN space, for expansion.
/// Returns nullopt on malformed input.
[[nodiscard]] std::optional<DecodedPacket> decode_packet(
    std::span<const std::uint8_t> datagram, std::size_t short_dcid_length,
    PacketNumber largest_received) noexcept;

/// Lightweight wire view of a 1-RTT short header as seen by an *on-path*
/// observer: only the fields that are readable without packet-protection
/// keys. This is what a real middlebox (and our on-path observers) can see.
struct ShortHeaderView {
    bool spin = false;
    std::uint8_t vec = 0;         ///< Valid Edge Counter (reserved bits)
    std::size_t dcid_offset = 1;  ///< byte offset of the DCID
};

/// Peeks at a datagram and, if it starts with a short-header packet, returns
/// the unprotected view. Long-header and malformed datagrams yield nullopt.
[[nodiscard]] std::optional<ShortHeaderView> peek_short_header(
    std::span<const std::uint8_t> datagram) noexcept;

}  // namespace spinscope::quic
