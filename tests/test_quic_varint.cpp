// Unit tests for the RFC 9000 §16 varint codec and the Reader/Writer
// helpers, including the RFC's worked examples (Appendix A.1).

#include <gtest/gtest.h>

#include <vector>

#include "quic/varint.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {
namespace {

TEST(Varint, SizeSelection) {
    EXPECT_EQ(varint_size(0), 1u);
    EXPECT_EQ(varint_size(63), 1u);
    EXPECT_EQ(varint_size(64), 2u);
    EXPECT_EQ(varint_size(16383), 2u);
    EXPECT_EQ(varint_size(16384), 4u);
    EXPECT_EQ(varint_size((1ULL << 30) - 1), 4u);
    EXPECT_EQ(varint_size(1ULL << 30), 8u);
    EXPECT_EQ(varint_size(kVarintMax), 8u);
}

TEST(Varint, Rfc9000Examples) {
    // RFC 9000 A.1: the four canonical encodings.
    struct Example {
        std::uint64_t value;
        std::vector<std::uint8_t> wire;
    };
    const Example examples[] = {
        {37, {0x25}},
        {15293, {0x7b, 0xbd}},
        {494878333, {0x9d, 0x7f, 0x3e, 0x7d}},
        {151288809941952652ULL, {0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c}},
    };
    for (const auto& ex : examples) {
        std::vector<std::uint8_t> out;
        encode_varint(out, ex.value);
        EXPECT_EQ(out, ex.wire);
        const auto decoded = decode_varint(ex.wire);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->value, ex.value);
        EXPECT_EQ(decoded->consumed, ex.wire.size());
    }
}

TEST(Varint, TwoByteEncodingOfSmallValue) {
    // RFC 9000 A.1: 37 can also arrive as the two-byte sequence 0x40 0x25.
    const std::vector<std::uint8_t> wire{0x40, 0x25};
    const auto decoded = decode_varint(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value, 37u);
    EXPECT_EQ(decoded->consumed, 2u);
}

TEST(Varint, DecodeRejectsTruncation) {
    EXPECT_FALSE(decode_varint({}).has_value());
    const std::vector<std::uint8_t> truncated{0x7b};  // declares 2 bytes, has 1
    EXPECT_FALSE(decode_varint(truncated).has_value());
    const std::vector<std::uint8_t> truncated8{0xc2, 0x19, 0x7c};
    EXPECT_FALSE(decode_varint(truncated8).has_value());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodeDecodeIdentity) {
    const std::uint64_t value = GetParam();
    std::vector<std::uint8_t> out;
    encode_varint(out, value);
    EXPECT_EQ(out.size(), varint_size(value));
    const auto decoded = decode_varint(out);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value, value);
    EXPECT_EQ(decoded->consumed, out.size());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 63ULL, 64ULL, 16383ULL, 16384ULL,
                                           (1ULL << 30) - 1, 1ULL << 30, kVarintMax));

TEST(Varint, RandomRoundTripSweep) {
    util::Rng rng{0xabcd};
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t value = rng.uniform_u64(kVarintMax + 1);
        std::vector<std::uint8_t> out;
        encode_varint(out, value);
        const auto decoded = decode_varint(out);
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->value, value);
    }
}

// --- Property-based sweeps ---------------------------------------------------
//
// Seeded (fully deterministic) random exploration of the codec. Values are
// drawn per size class rather than uniformly over [0, 2^62): a uniform draw
// lands in the 8-byte class with probability ~1 - 2^-32, so the short
// encodings — where the interesting boundary behaviour lives — would
// effectively never be exercised.

std::uint64_t random_varint_value(util::Rng& rng) {
    switch (rng.uniform_u64(4)) {
        case 0: return rng.uniform_u64(1ULL << 6);
        case 1: return rng.uniform_u64(1ULL << 14);
        case 2: return rng.uniform_u64(1ULL << 30);
        default: return rng.uniform_u64(kVarintMax + 1);
    }
}

TEST(VarintProperty, EncodeDecodeIdentityAcrossSizeClasses) {
    util::Rng rng{0x7a91ce11};
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t value = random_varint_value(rng);
        std::vector<std::uint8_t> out;
        encode_varint(out, value);
        ASSERT_EQ(out.size(), varint_size(value)) << "value=" << value;
        // Minimal-length invariant: the declared size class is the smallest
        // that fits, so re-encoding can never shrink.
        const auto decoded = decode_varint(out);
        ASSERT_TRUE(decoded.has_value()) << "value=" << value;
        ASSERT_EQ(decoded->value, value);
        ASSERT_EQ(decoded->consumed, out.size());
        // Reader::varint and the minimal-only reader agree on minimal wire.
        Reader r{out};
        ASSERT_EQ(r.varint_minimal(), value);
        ASSERT_TRUE(r.done());
    }
}

TEST(VarintProperty, TrailingBytesDoNotLeakIntoTheDecode) {
    // A varint is self-delimiting: whatever follows it must not change the
    // decoded value or the consumed count.
    util::Rng rng{0x7a91ce12};
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t value = random_varint_value(rng);
        std::vector<std::uint8_t> wire;
        encode_varint(wire, value);
        const std::size_t varint_bytes = wire.size();
        const std::size_t junk = 1 + rng.uniform_u64(8);
        for (std::size_t j = 0; j < junk; ++j) {
            wire.push_back(static_cast<std::uint8_t>(rng.uniform_u64(256)));
        }
        const auto decoded = decode_varint(wire);
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->value, value);
        ASSERT_EQ(decoded->consumed, varint_bytes);
    }
}

// Builds the `width`-byte (non-minimal when width > varint_size) encoding of
// `value`; width must be 1, 2, 4 or 8 and the value must fit its 2 low bits
// short of width*8.
std::vector<std::uint8_t> encode_with_width(std::uint64_t value, std::size_t width) {
    std::vector<std::uint8_t> out(width);
    for (std::size_t i = width; i-- > 0;) {
        out[i] = static_cast<std::uint8_t>(value & 0xff);
        value >>= 8;
    }
    const std::uint8_t length_bits[9] = {0, 0x00, 0x40, 0, 0x80, 0, 0, 0, 0xc0};
    out[0] = static_cast<std::uint8_t>(out[0] | length_bits[width]);
    return out;
}

TEST(VarintProperty, OverlongEncodingsDecodeButFailMinimalReads) {
    // RFC 9000 §16: a value may arrive in a longer-than-necessary encoding;
    // generic decodes accept it, frame-type reads (§12.4) must reject it.
    util::Rng rng{0x7a91ce13};
    int overlong_cases = 0;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t value = random_varint_value(rng);
        const std::size_t minimal = varint_size(value);
        // Pick any representable width; larger than minimal makes it overlong.
        std::size_t width = minimal;
        for (const std::size_t candidate : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            if (candidate > minimal && rng.chance(0.5)) width = candidate;
        }
        const auto wire = encode_with_width(value, width);
        const auto decoded = decode_varint(wire);
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->value, value);
        ASSERT_EQ(decoded->consumed, width);

        Reader minimal_reader{wire};
        if (width == minimal) {
            ASSERT_EQ(minimal_reader.varint_minimal(), value);
        } else {
            ++overlong_cases;
            ASSERT_FALSE(minimal_reader.varint_minimal().has_value());
            ASSERT_EQ(minimal_reader.consumed(), 0u) << "failed read must not advance";
            // The permissive reader still accepts the same bytes.
            ASSERT_EQ(minimal_reader.varint(), value);
        }
    }
    EXPECT_GT(overlong_cases, 2000) << "sweep must actually exercise overlong wire";
}

TEST(Writer, BigEndianFixedWidths) {
    Writer w;
    w.u8(0x01);
    w.u32(0x04050607);
    w.u64(0x08090a0b0c0d0e0fULL);
    const auto& buf = w.buffer();
    ASSERT_EQ(buf.size(), 13u);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(buf[1], 0x04);
    EXPECT_EQ(buf[4], 0x07);
    EXPECT_EQ(buf[5], 0x08);
    EXPECT_EQ(buf[12], 0x0f);
}

TEST(Writer, TruncatedBigEndian) {
    Writer w;
    w.be_truncated(0x11223344, 3);
    const auto& buf = w.buffer();
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0], 0x22);
    EXPECT_EQ(buf[1], 0x33);
    EXPECT_EQ(buf[2], 0x44);
}

TEST(Writer, ExternalBuffer) {
    std::vector<std::uint8_t> out{0xff};
    Writer w{out};
    w.u8(0x01);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1], 0x01);
}

TEST(Reader, SequentialReads) {
    const std::vector<std::uint8_t> data{0x01, 0x25, 0xaa, 0xbb};
    Reader r{data};
    EXPECT_EQ(*r.u8(), 0x01);
    EXPECT_EQ(*r.varint(), 37u);
    const auto rest = r.bytes(2);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ((*rest)[0], 0xaa);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(r.consumed(), 4u);
}

TEST(Reader, OutOfBoundsReturnsNullopt) {
    const std::vector<std::uint8_t> data{0x01};
    Reader r{data};
    EXPECT_FALSE(r.u32().has_value());
    EXPECT_FALSE(r.u64().has_value());
    EXPECT_FALSE(r.bytes(2).has_value());
    EXPECT_EQ(*r.u8(), 0x01);  // failed reads do not consume
    EXPECT_FALSE(r.u8().has_value());
}

TEST(Reader, PeekRestDoesNotAdvance) {
    const std::vector<std::uint8_t> data{0x01, 0x02, 0x03};
    Reader r{data};
    (void)r.u8();
    EXPECT_EQ(r.peek_rest().size(), 2u);
    EXPECT_EQ(r.remaining(), 2u);
}

TEST(Reader, BeTruncatedWidthValidation) {
    const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
    Reader r{data};
    EXPECT_FALSE(r.be_truncated(0).has_value());
    EXPECT_FALSE(r.be_truncated(9).has_value());
    EXPECT_EQ(*r.be_truncated(2), 0x0102u);
}

}  // namespace
}  // namespace spinscope::quic
