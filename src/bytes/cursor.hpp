// spinscope/bytes/cursor.hpp
//
// Sequential byte cursors over std::span, plus the RFC 9000 §16
// variable-length integer codec every wire format in this library uses.
// Relocated here from quic/varint.hpp so the cursors can write straight
// into pooled bytes::Buffer storage without a dependency cycle; quic/
// re-exports the old names.
//
// Varint wire format: the two most significant bits of the first byte
// select the encoded length (1, 2, 4 or 8 bytes); the remaining bits carry
// the value big-endian. Maximum representable value is 2^62 - 1.
//
// Record fields (the journal's binary payloads) build on it: uvarint carries
// any uint64 (values from kVarintMax up escape to the 8-byte varint
// kVarintMax and the value as u64), svarint a zigzag-mapped int64, f64 the
// IEEE-754 bits, text a uvarint length and the bytes. Their readers accept
// only the writers' form: overlong varints, an escape below kVarintMax and
// counts past the bytes left are rejected.

#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "bytes/bytes.hpp"

namespace spinscope::bytes {

/// Largest value a QUIC varint can carry.
inline constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

/// Number of bytes encode_varint() will use for `value` (1, 2, 4 or 8).
/// Values above kVarintMax are not encodable; callers must check first.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) noexcept {
    if (value < (1ULL << 6)) return 1;
    if (value < (1ULL << 14)) return 2;
    if (value < (1ULL << 30)) return 4;
    return 8;
}

/// Appends the minimal-length varint encoding of `value` (<= kVarintMax).
void encode_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// The bytes of `s` (a record payload held in a std::string) as a byte view.
[[nodiscard]] inline ConstByteSpan byte_view(std::string_view s) noexcept {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Zigzag mapping of signed values onto unsigned ones (0, -1, 1, -2, ... →
/// 0, 1, 2, 3, ...), so small magnitudes of either sign encode short.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
    return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t u) noexcept {
    return static_cast<std::int64_t>((u >> 1) ^ (0 - (u & 1)));
}

/// Decodes a varint from the front of `in`. Returns the value and the number
/// of bytes consumed, or nullopt if `in` is too short.
struct VarintDecode {
    std::uint64_t value;
    std::size_t consumed;
};
[[nodiscard]] std::optional<VarintDecode> decode_varint(ConstByteSpan in) noexcept;

/// Sequential byte writer appending to a growable byte sink — an external
/// vector, a (pooled) Buffer, or an internally owned vector.
class ByteWriter {
public:
    ByteWriter() = default;
    explicit ByteWriter(std::vector<std::uint8_t>& out) : out_{&out} {}
    /// Appends into the buffer's storage in place (a pooled datagram is
    /// encoded without any intermediate vector).
    explicit ByteWriter(Buffer& out) : out_{&out.storage_} {}

    void u8(std::uint8_t v) { buffer().push_back(v); }
    /// Big-endian fixed-width writes (network byte order).
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// Big-endian truncated write of the low `width` bytes (1..8) of `v`;
    /// used for packet-number encoding.
    void be_truncated(std::uint64_t v, std::size_t width);
    void varint(std::uint64_t v) { encode_varint(buffer(), v); }
    void bytes(ConstByteSpan data);

    /// Record fields (see the file comment).
    void uvarint(std::uint64_t v) {
        if (v < 0x40) {
            buffer().push_back(static_cast<std::uint8_t>(v));
        } else if (v < kVarintMax) {
            varint(v);
        } else {
            varint(kVarintMax);
            u64(v);
        }
    }
    void svarint(std::int64_t v) { uvarint(zigzag(v)); }
    /// uvarint for unsigned types, svarint for signed ones.
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void integer(T v) {
        if constexpr (std::is_signed_v<T>) {
            svarint(v);
        } else {
            uvarint(v);
        }
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void text(std::string_view s) {
        uvarint(s.size());
        auto& b = buffer();
        b.insert(b.end(), s.begin(), s.end());
    }
    /// Appends `n` copies of `fill` (PADDING frames).
    void fill(std::size_t n, std::uint8_t fill);

    /// Bytes in the target sink so far (not just bytes this writer wrote).
    [[nodiscard]] std::size_t size() const noexcept {
        return out_ != nullptr ? out_->size() : owned_.size();
    }

    [[nodiscard]] std::vector<std::uint8_t>& buffer() noexcept {
        return out_ != nullptr ? *out_ : owned_;
    }
    [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(owned_); }

private:
    std::vector<std::uint8_t>* out_ = nullptr;
    std::vector<std::uint8_t> owned_;
};

/// Sequential bounds-checked byte reader over a fixed span. All accessors
/// return nullopt past the end instead of throwing; wire input is untrusted.
class ByteReader {
public:
    explicit ByteReader(ConstByteSpan data) noexcept : data_{data} {}

    [[nodiscard]] std::optional<std::uint8_t> u8() noexcept {
        if (pos_ == data_.size()) return std::nullopt;
        return data_[pos_++];
    }
    [[nodiscard]] std::optional<std::uint32_t> u32() noexcept;
    [[nodiscard]] std::optional<std::uint64_t> u64() noexcept;
    /// Big-endian read of `width` bytes (1..8) into the low bits.
    [[nodiscard]] std::optional<std::uint64_t> be_truncated(std::size_t width) noexcept;
    [[nodiscard]] std::optional<std::uint64_t> varint() noexcept;
    /// Like varint(), but rejects non-minimal ("overlong") encodings —
    /// required for frame types (RFC 9000 §12.4). Does not advance on
    /// failure.
    [[nodiscard]] std::optional<std::uint64_t> varint_minimal() noexcept;
    /// Returns a view of the next `n` bytes and advances, or nullopt.
    [[nodiscard]] std::optional<ConstByteSpan> bytes(std::size_t n) noexcept;

    /// Record fields (see the file comment); nullopt on anything their
    /// writers would not emit.
    [[nodiscard]] std::optional<std::uint64_t> uvarint() noexcept {
        if (pos_ == data_.size()) return std::nullopt;
        const std::uint8_t* p = data_.data() + pos_;
        const std::size_t width = std::size_t{1} << (p[0] >> 6);
        if (width > remaining()) return std::nullopt;
        std::uint64_t v = p[0] & 0x3f;
        for (std::size_t i = 1; i < width; ++i) v = (v << 8) | p[i];
        if (width != varint_size(v)) return std::nullopt;
        if (v == kVarintMax) return wide_uvarint();
        pos_ += width;
        return v;
    }
    [[nodiscard]] std::optional<std::int64_t> svarint() noexcept {
        const auto u = uvarint();
        if (!u) return std::nullopt;
        return unzigzag(*u);
    }
    /// integer()'s value into `out` when it is in T's range; false
    /// otherwise, `out` unchanged.
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    [[nodiscard]] bool integer(T& out) noexcept {
        if constexpr (std::is_signed_v<T>) {
            const auto v = svarint();
            if (!v || *v < std::numeric_limits<T>::min() || *v > std::numeric_limits<T>::max()) {
                return false;
            }
            out = static_cast<T>(*v);
        } else {
            const auto v = uvarint();
            if (!v || *v > std::numeric_limits<T>::max()) return false;
            out = static_cast<T>(*v);
        }
        return true;
    }
    [[nodiscard]] std::optional<double> f64() noexcept {
        const auto bits = u64();
        if (!bits) return std::nullopt;
        return std::bit_cast<double>(*bits);
    }
    [[nodiscard]] std::optional<std::string_view> text() noexcept;
    /// A uvarint element count, rejected when it exceeds the bytes left (every
    /// element of a record takes at least one byte).
    [[nodiscard]] std::optional<std::size_t> count() noexcept {
        const auto n = uvarint();
        if (!n || *n > remaining()) return std::nullopt;
        return static_cast<std::size_t>(*n);
    }

    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
    [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }
    [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
    /// Remaining bytes as a view without advancing.
    [[nodiscard]] ConstByteSpan peek_rest() const noexcept { return data_.subspan(pos_); }
    /// Advances past `n` bytes the caller read through peek_rest(); `n` must
    /// not exceed remaining().
    void skip(std::size_t n) noexcept { pos_ += n; }

private:
    /// uvarint() at its escape: the 8-byte varint kVarintMax, then a u64 of
    /// at least kVarintMax.
    [[nodiscard]] std::optional<std::uint64_t> wide_uvarint() noexcept;

    ConstByteSpan data_;
    std::size_t pos_ = 0;
};

}  // namespace spinscope::bytes
