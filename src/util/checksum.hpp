// spinscope/util/checksum.hpp
//
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for record-level
// integrity checks: the campaign journal frames every record with a length
// and a checksum so that a torn write is detectable and bit rot in a
// published record file never replays as valid data.
//
// Header-only and constexpr: the slicing-by-8 lookup tables are generated at
// compile time and checksums of compile-time constants can be folded into
// constants.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace spinscope::util {

namespace detail {

/// Slicing-by-8 tables: kCrc32Tables[0] is the classic byte-at-a-time
/// table; kCrc32Tables[k][b] is the CRC state contribution of byte `b`
/// followed by k zero bytes, so eight input bytes fold into the state with
/// eight independent lookups.
[[nodiscard]] constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32_tables() noexcept {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
        }
        tables[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

/// Little-endian 32-bit load built from bytes (constexpr-safe; compilers
/// fuse it into one load).
[[nodiscard]] constexpr std::uint32_t load_le32(const char* p) noexcept {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
           static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
           static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
           static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
}

}  // namespace detail

/// Incremental form: feed `data` into a running CRC state. Start from
/// crc32_init(), finish with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

[[nodiscard]] constexpr std::uint32_t crc32_update(std::uint32_t state,
                                                   const char* data,
                                                   std::size_t size) noexcept {
    const auto& t = detail::kCrc32Tables;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = state ^ detail::load_le32(data);
        const std::uint32_t hi = detail::load_le32(data + 4);
        state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
                t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
                t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size) {
        const auto byte = static_cast<std::uint8_t>(*data);
        state = (state >> 8) ^ t[0][(state ^ byte) & 0xFFu];
    }
    return state;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
    return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte string. crc32("123456789") == 0xCBF43926.
[[nodiscard]] constexpr std::uint32_t crc32(std::string_view data) noexcept {
    return crc32_final(crc32_update(crc32_init(), data.data(), data.size()));
}

[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
    return crc32_final(crc32_update(
        crc32_init(), reinterpret_cast<const char*>(data.data()), data.size()));
}

}  // namespace spinscope::util
