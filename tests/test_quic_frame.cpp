// Unit tests for the QUIC frame codec (RFC 9000 §19 subset).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "quic/frame.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {
namespace {

constexpr std::uint8_t kExp = 3;  // default ack_delay_exponent

std::vector<std::uint8_t> encode(std::span<const Frame> frames) {
    std::vector<std::uint8_t> wire;
    Writer w{wire};
    encode_frames(w, frames, kExp);
    return wire;
}

/// A payload and the frames decoded from it, which view it.
struct Decoded {
    std::vector<std::uint8_t> wire;
    DecodedFrames out;
    bool ok = false;

    [[nodiscard]] std::size_t size() const { return out.frames.size(); }
    [[nodiscard]] const Frame& front() const { return out.frames.front(); }
    [[nodiscard]] const Frame& operator[](std::size_t i) const { return out.frames[i]; }
};

Decoded decode(std::vector<std::uint8_t> wire) {
    Decoded decoded;
    decoded.wire = std::move(wire);
    decoded.ok = decode_frames(decoded.wire, kExp, decoded.out);
    return decoded;
}

Decoded round_trip(const Frame& frame) { return decode(encode({&frame, 1})); }

TEST(Frames, PingRoundTrip) {
    const auto decoded = round_trip(PingFrame{});
    ASSERT_TRUE(decoded.ok);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_TRUE(std::holds_alternative<PingFrame>(decoded.front()));
}

TEST(Frames, PaddingRunsCollapse) {
    const auto decoded = decode(std::vector<std::uint8_t>(17, 0x00));
    ASSERT_TRUE(decoded.ok);
    ASSERT_EQ(decoded.size(), 1u);
    const auto& pad = std::get<PaddingFrame>(decoded.front());
    EXPECT_EQ(pad.length, 17u);
}

TEST(Frames, PaddingEncodesAsZeros) {
    const Frame padding = PaddingFrame{5};
    EXPECT_EQ(encode({&padding, 1}), std::vector<std::uint8_t>(5, 0x00));
}

TEST(Frames, AckSingleRangeRoundTrip) {
    const AckRange ranges[] = {{3, 17}};
    AckFrame ack;
    ack.ranges = ranges;
    ack.ack_delay = Duration::micros(800);
    const auto decoded = round_trip(Frame{ack});
    ASSERT_TRUE(decoded.ok);
    const auto& out = std::get<AckFrame>(decoded.front());
    ASSERT_EQ(out.ranges.size(), 1u);
    EXPECT_EQ(out.ranges[0].smallest, 3u);
    EXPECT_EQ(out.ranges[0].largest, 17u);
    EXPECT_EQ(out.largest_acked(), 17u);
    EXPECT_EQ(out.ack_delay, Duration::micros(800));
}

TEST(Frames, AckDelayQuantizedByExponent) {
    const AckRange ranges[] = {{0, 0}};
    AckFrame ack;
    ack.ranges = ranges;
    ack.ack_delay = Duration::micros(1234);  // 1234 >> 3 = 154; 154 << 3 = 1232
    const auto decoded = round_trip(Frame{ack});
    const auto& out = std::get<AckFrame>(decoded.front());
    EXPECT_EQ(out.ack_delay, Duration::micros(1232));
}

TEST(Frames, AckMultiRangeRoundTrip) {
    const AckRange ranges[] = {{20, 25}, {10, 15}, {0, 3}};
    AckFrame ack;
    ack.ranges = ranges;
    const auto decoded = round_trip(Frame{ack});
    ASSERT_TRUE(decoded.ok);
    const auto& out = std::get<AckFrame>(decoded.front());
    ASSERT_EQ(out.ranges.size(), 3u);
    EXPECT_EQ(out.ranges[0].largest, 25u);
    EXPECT_EQ(out.ranges[0].smallest, 20u);
    EXPECT_EQ(out.ranges[1].largest, 15u);
    EXPECT_EQ(out.ranges[1].smallest, 10u);
    EXPECT_EQ(out.ranges[2].largest, 3u);
    EXPECT_EQ(out.ranges[2].smallest, 0u);
}

TEST(Frames, AckAcknowledgesMembership) {
    const AckRange ranges[] = {{10, 15}, {0, 3}};
    AckFrame ack;
    ack.ranges = ranges;
    EXPECT_TRUE(ack.acknowledges(0));
    EXPECT_TRUE(ack.acknowledges(3));
    EXPECT_TRUE(ack.acknowledges(12));
    EXPECT_FALSE(ack.acknowledges(4));
    EXPECT_FALSE(ack.acknowledges(9));
    EXPECT_FALSE(ack.acknowledges(16));
}

TEST(Frames, CryptoRoundTrip) {
    const std::uint8_t data[] = {0xde, 0xad, 0xbe, 0xef};
    CryptoFrame crypto;
    crypto.offset = 42;
    crypto.data = data;
    const auto decoded = round_trip(Frame{crypto});
    const auto& out = std::get<CryptoFrame>(decoded.front());
    EXPECT_EQ(out.offset, 42u);
    EXPECT_TRUE(std::ranges::equal(out.data, data));
    // The payload is a view into the decoded packet, not a copy.
    EXPECT_GE(out.data.data(), decoded.wire.data());
    EXPECT_LE(out.data.data() + out.data.size(), decoded.wire.data() + decoded.wire.size());
}

TEST(Frames, StreamRoundTripVariants) {
    for (const std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{5000}}) {
        for (const bool fin : {false, true}) {
            StreamFrame stream;
            stream.stream_id = 4;
            stream.offset = offset;
            stream.fin = fin;
            const std::uint8_t data[] = {1, 2, 3, 4, 5};
            stream.data = data;
            const auto decoded = round_trip(Frame{stream});
            ASSERT_TRUE(decoded.ok);
            const auto& out = std::get<StreamFrame>(decoded.front());
            EXPECT_EQ(out.stream_id, 4u);
            EXPECT_EQ(out.offset, offset);
            EXPECT_EQ(out.fin, fin);
            EXPECT_TRUE(std::ranges::equal(out.data, data));
        }
    }
}

TEST(Frames, EmptyFinStreamRoundTrip) {
    StreamFrame stream;
    stream.stream_id = 0;
    stream.offset = 100;
    stream.fin = true;
    const auto decoded = round_trip(Frame{stream});
    const auto& out = std::get<StreamFrame>(decoded.front());
    EXPECT_TRUE(out.fin);
    EXPECT_TRUE(out.data.empty());
    EXPECT_EQ(out.offset, 100u);
}

TEST(Frames, MaxDataRoundTrip) {
    const auto decoded = round_trip(Frame{MaxDataFrame{123456}});
    const auto& out = std::get<MaxDataFrame>(decoded.front());
    EXPECT_EQ(out.maximum, 123456u);
}

TEST(Frames, ConnectionCloseRoundTrip) {
    for (const bool application : {false, true}) {
        ConnectionCloseFrame close;
        close.application = application;
        close.error_code = 7;
        close.reason = "done";
        const auto decoded = round_trip(Frame{close});
        const auto& out = std::get<ConnectionCloseFrame>(decoded.front());
        EXPECT_EQ(out.application, application);
        EXPECT_EQ(out.error_code, 7u);
        EXPECT_EQ(out.reason, "done");
    }
}

TEST(Frames, HandshakeDoneRoundTrip) {
    const auto decoded = round_trip(Frame{HandshakeDoneFrame{}});
    EXPECT_TRUE(std::holds_alternative<HandshakeDoneFrame>(decoded.front()));
}

TEST(Frames, MultipleFramesInOnePayload) {
    const AckRange ranges[] = {{0, 5}};
    AckFrame ack;
    ack.ranges = ranges;
    const std::uint8_t data[] = {9, 9};
    StreamFrame stream;
    stream.stream_id = 0;
    stream.data = data;
    const std::vector<Frame> frames{Frame{ack}, Frame{MaxDataFrame{100}}, Frame{stream}};
    const auto decoded = decode(encode(frames));
    ASSERT_TRUE(decoded.ok);
    ASSERT_EQ(decoded.size(), 3u);
    EXPECT_TRUE(std::holds_alternative<AckFrame>(decoded[0]));
    EXPECT_TRUE(std::holds_alternative<MaxDataFrame>(decoded[1]));
    EXPECT_TRUE(std::holds_alternative<StreamFrame>(decoded[2]));
}

TEST(Frames, EachAckKeepsItsRangesWhenTheStorageGrows) {
    // The second ACK's ranges outgrow the scratch storage the first ACK's
    // ranges were decoded into; both must still read back their own.
    const AckRange first_ranges[] = {{7, 9}};
    std::vector<AckRange> second_ranges;
    for (std::uint64_t i = 0; i < 40; ++i) second_ranges.push_back({1000 - 4 * i - 1, 1000 - 4 * i});
    AckFrame first;
    first.ranges = first_ranges;
    AckFrame second;
    second.ranges = second_ranges;
    const std::vector<Frame> frames{Frame{first}, Frame{PingFrame{}}, Frame{second}};
    const auto decoded = decode(encode(frames));
    ASSERT_TRUE(decoded.ok);
    ASSERT_EQ(decoded.size(), 3u);
    const auto& a = std::get<AckFrame>(decoded[0]);
    const auto& b = std::get<AckFrame>(decoded[2]);
    ASSERT_EQ(a.ranges.size(), 1u);
    EXPECT_EQ(a.ranges[0].smallest, 7u);
    EXPECT_EQ(a.ranges[0].largest, 9u);
    ASSERT_EQ(b.ranges.size(), second_ranges.size());
    for (std::size_t i = 0; i < second_ranges.size(); ++i) {
        EXPECT_EQ(b.ranges[i].smallest, second_ranges[i].smallest);
        EXPECT_EQ(b.ranges[i].largest, second_ranges[i].largest);
    }
}

TEST(Frames, ScratchIsClearedBetweenPackets) {
    Decoded decoded = round_trip(Frame{MaxDataFrame{5}});
    const std::vector<std::uint8_t> ping = encode(std::vector<Frame>{Frame{PingFrame{}}});
    ASSERT_TRUE(decode_frames(ping, kExp, decoded.out));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_TRUE(std::holds_alternative<PingFrame>(decoded.front()));
}

TEST(Frames, UnknownTypeRejected) {
    std::vector<std::uint8_t> wire;
    encode_varint(wire, 0x33);  // not implemented
    EXPECT_FALSE(decode(wire).ok);
}

TEST(Frames, TruncatedStreamRejected) {
    const std::uint8_t data[] = {1, 2, 3, 4};
    StreamFrame stream;
    stream.stream_id = 0;
    stream.data = data;
    const Frame frame = stream;
    auto wire = encode({&frame, 1});
    wire.pop_back();
    EXPECT_FALSE(decode(wire).ok);
}

TEST(Frames, MalformedAckRejected) {
    // first_range > largest is impossible.
    std::vector<std::uint8_t> wire;
    encode_varint(wire, 0x02);  // ACK
    encode_varint(wire, 5);     // largest
    encode_varint(wire, 0);     // delay
    encode_varint(wire, 0);     // range count
    encode_varint(wire, 9);     // first range length > largest
    EXPECT_FALSE(decode(wire).ok);
}

TEST(Frames, AckElicitingClassification) {
    EXPECT_TRUE(is_ack_eliciting(Frame{PingFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{CryptoFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{StreamFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{MaxDataFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{HandshakeDoneFrame{}}));
    EXPECT_FALSE(is_ack_eliciting(Frame{PaddingFrame{}}));
    EXPECT_FALSE(is_ack_eliciting(Frame{AckFrame{}}));
    EXPECT_FALSE(is_ack_eliciting(Frame{ConnectionCloseFrame{}}));

    const std::vector<Frame> ack_only{Frame{AckFrame{}}, Frame{PaddingFrame{}}};
    EXPECT_FALSE(any_ack_eliciting(ack_only));
    const std::vector<Frame> with_ping{Frame{AckFrame{}}, Frame{PingFrame{}}};
    EXPECT_TRUE(any_ack_eliciting(with_ping));
}

// Property sweep: ACK frames with random descending ranges round-trip.
class AckRangesProperty : public ::testing::TestWithParam<int> {};

TEST_P(AckRangesProperty, RandomRangesRoundTrip) {
    util::Rng rng{static_cast<std::uint64_t>(GetParam())};
    for (int iteration = 0; iteration < 200; ++iteration) {
        std::vector<AckRange> ranges;
        // Build descending ranges with gaps >= 2.
        std::uint64_t cursor = 1'000'000 + rng.uniform_u64(1'000'000);
        const int range_count = 1 + static_cast<int>(rng.uniform_u64(6));
        for (int i = 0; i < range_count && cursor > 100; ++i) {
            const std::uint64_t largest = cursor;
            const std::uint64_t length = rng.uniform_u64(20);
            const std::uint64_t smallest = largest - length;
            ranges.push_back(AckRange{smallest, largest});
            cursor = smallest - 2 - rng.uniform_u64(50);
        }
        AckFrame ack;
        ack.ranges = ranges;
        const auto decoded = round_trip(Frame{ack});
        ASSERT_TRUE(decoded.ok);
        const auto& out = std::get<AckFrame>(decoded.front());
        ASSERT_EQ(out.ranges.size(), ack.ranges.size());
        for (std::size_t i = 0; i < out.ranges.size(); ++i) {
            EXPECT_EQ(out.ranges[i].largest, ack.ranges[i].largest);
            EXPECT_EQ(out.ranges[i].smallest, ack.ranges[i].smallest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckRangesProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace spinscope::quic
