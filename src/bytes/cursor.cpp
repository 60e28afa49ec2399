#include "bytes/cursor.hpp"

#include <cassert>

namespace spinscope::bytes {

void encode_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
    assert(value <= kVarintMax);
    const std::size_t width = varint_size(value);
    switch (width) {
        case 1:
            out.push_back(static_cast<std::uint8_t>(value));
            break;
        case 2:
            out.push_back(static_cast<std::uint8_t>(0x40 | (value >> 8)));
            out.push_back(static_cast<std::uint8_t>(value & 0xff));
            break;
        case 4:
            out.push_back(static_cast<std::uint8_t>(0x80 | (value >> 24)));
            out.push_back(static_cast<std::uint8_t>((value >> 16) & 0xff));
            out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xff));
            out.push_back(static_cast<std::uint8_t>(value & 0xff));
            break;
        default:
            out.push_back(static_cast<std::uint8_t>(0xc0 | (value >> 56)));
            for (int shift = 48; shift >= 0; shift -= 8) {
                out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
            }
            break;
    }
}

std::optional<VarintDecode> decode_varint(ConstByteSpan in) noexcept {
    if (in.empty()) return std::nullopt;
    const std::size_t width = static_cast<std::size_t>(1) << (in[0] >> 6);
    if (in.size() < width) return std::nullopt;
    std::uint64_t value = in[0] & 0x3f;
    for (std::size_t i = 1; i < width; ++i) value = (value << 8) | in[i];
    return VarintDecode{value, width};
}

void ByteWriter::u32(std::uint32_t v) {
    auto& b = buffer();
    for (int shift = 24; shift >= 0; shift -= 8) {
        b.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
}

void ByteWriter::u64(std::uint64_t v) {
    auto& b = buffer();
    for (int shift = 56; shift >= 0; shift -= 8) {
        b.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
}

void ByteWriter::be_truncated(std::uint64_t v, std::size_t width) {
    assert(width >= 1 && width <= 8);
    auto& b = buffer();
    for (std::size_t i = width; i-- > 0;) {
        b.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
}

void ByteWriter::bytes(ConstByteSpan data) {
    auto& b = buffer();
    b.insert(b.end(), data.begin(), data.end());
}

void ByteWriter::fill(std::size_t n, std::uint8_t fill) {
    auto& b = buffer();
    b.insert(b.end(), n, fill);
}

std::optional<std::uint32_t> ByteReader::u32() noexcept {
    const auto v = be_truncated(4);
    if (!v) return std::nullopt;
    return static_cast<std::uint32_t>(*v);
}

std::optional<std::uint64_t> ByteReader::u64() noexcept { return be_truncated(8); }

std::optional<std::uint64_t> ByteReader::be_truncated(std::size_t width) noexcept {
    if (width < 1 || width > 8 || remaining() < width) return std::nullopt;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += width;
    return v;
}

std::optional<std::uint64_t> ByteReader::varint() noexcept {
    const auto decoded = decode_varint(data_.subspan(pos_));
    if (!decoded) return std::nullopt;
    pos_ += decoded->consumed;
    return decoded->value;
}

std::optional<std::uint64_t> ByteReader::varint_minimal() noexcept {
    const auto decoded = decode_varint(data_.subspan(pos_));
    if (!decoded || decoded->consumed != varint_size(decoded->value)) return std::nullopt;
    pos_ += decoded->consumed;
    return decoded->value;
}

std::optional<ConstByteSpan> ByteReader::bytes(std::size_t n) noexcept {
    if (remaining() < n) return std::nullopt;
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
}

std::optional<std::uint64_t> ByteReader::wide_uvarint() noexcept {
    if (remaining() < 16) return std::nullopt;
    std::uint64_t wide = 0;
    for (std::size_t i = 8; i < 16; ++i) wide = (wide << 8) | data_[pos_ + i];
    if (wide < kVarintMax) return std::nullopt;
    pos_ += 16;
    return wide;
}

std::optional<std::string_view> ByteReader::text() noexcept {
    const std::size_t start = pos_;
    const auto n = uvarint();
    const auto data = n && *n <= remaining() ? bytes(static_cast<std::size_t>(*n)) : std::nullopt;
    if (!data) {
        pos_ = start;
        return std::nullopt;
    }
    return std::string_view{reinterpret_cast<const char*>(data->data()), data->size()};
}

}  // namespace spinscope::bytes
