// spinscope/quic/types.hpp
//
// Fundamental QUIC protocol types shared across the quic library:
// versions, connection IDs, packet numbers and packet-number spaces.

#pragma once

#include <array>
#include <compare>
#include <cstdint>

namespace spinscope::quic {

/// QUIC wire versions this stack knows about. The paper's scanner supported
/// QUICv1 plus draft versions 27, 29, 32 and 34 (quic-go's set at the time).
enum class Version : std::uint32_t {
    v1 = 0x00000001,
    draft27 = 0xff00001b,
    draft29 = 0xff00001d,
    draft32 = 0xff000020,
    draft34 = 0xff000022,
};

[[nodiscard]] constexpr bool is_known_version(std::uint32_t wire) noexcept {
    switch (static_cast<Version>(wire)) {
        case Version::v1:
        case Version::draft27:
        case Version::draft29:
        case Version::draft32:
        case Version::draft34:
            return true;
    }
    return false;
}

/// Monotone 62-bit packet number (RFC 9000 §12.3).
using PacketNumber = std::uint64_t;

/// Sentinel for "no packet number yet".
inline constexpr PacketNumber kInvalidPacketNumber = ~0ULL;

/// Packet-number spaces (RFC 9002 Appendix A.2).
enum class PnSpace : std::uint8_t { initial = 0, handshake = 1, application = 2 };
inline constexpr std::size_t kPnSpaceCount = 3;

[[nodiscard]] constexpr const char* to_cstring(PnSpace space) noexcept {
    switch (space) {
        case PnSpace::initial: return "initial";
        case PnSpace::handshake: return "handshake";
        case PnSpace::application: return "application";
    }
    return "?";
}

/// Connection ID: up to 20 bytes (RFC 9000 §17.2). Value type with inline
/// storage; spinscope endpoints use 8-byte IDs by default.
class ConnectionId {
public:
    static constexpr std::size_t kMaxLength = 20;

    constexpr ConnectionId() = default;

    /// Builds an 8-byte ID from a 64-bit value (big-endian).
    [[nodiscard]] static constexpr ConnectionId from_u64(std::uint64_t v) noexcept {
        ConnectionId id;
        id.length_ = 8;
        for (int i = 7; i >= 0; --i) {
            id.bytes_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
            v >>= 8;
        }
        return id;
    }

    [[nodiscard]] constexpr std::size_t size() const noexcept { return length_; }
    [[nodiscard]] constexpr bool empty() const noexcept { return length_ == 0; }
    [[nodiscard]] constexpr const std::uint8_t* data() const noexcept { return bytes_.data(); }

    constexpr void assign(const std::uint8_t* data, std::size_t len) noexcept {
        length_ = len > kMaxLength ? kMaxLength : len;
        for (std::size_t i = 0; i < length_; ++i) bytes_[i] = data[i];
    }

    friend constexpr bool operator==(const ConnectionId& a, const ConnectionId& b) noexcept {
        if (a.length_ != b.length_) return false;
        for (std::size_t i = 0; i < a.length_; ++i) {
            if (a.bytes_[i] != b.bytes_[i]) return false;
        }
        return true;
    }

private:
    std::array<std::uint8_t, kMaxLength> bytes_{};
    std::size_t length_ = 0;
};

/// Endpoint role. The spin bit is role-asymmetric: the client inverts, the
/// server reflects (RFC 9000 §17.4).
enum class Role : std::uint8_t { client, server };

[[nodiscard]] constexpr const char* to_cstring(Role r) noexcept {
    return r == Role::client ? "client" : "server";
}

}  // namespace spinscope::quic
