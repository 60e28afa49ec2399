// Robustness and failure-injection tests: malformed input never crashes or
// wedges an endpoint, duplicates are harmless, and the codecs survive fuzzed
// bytes (wire input is untrusted).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "quic/frame.hpp"
#include "quic/packet.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {
namespace {

using netsim::Datagram;
using util::Duration;
using util::Rng;
using util::TimePoint;

/// Minimal pair on a clean 10 ms-one-way path with a transfer workload.
struct Pair {
    Pair() : rng{0xbeef}, path{sim, link_config(), link_config(), rng} {
        ConnectionConfig ccfg;
        ccfg.role = Role::client;
        client = std::make_unique<Connection>(
            sim, ccfg, rng.fork(1),
            [this](Datagram dg) { path.forward_link().send(std::move(dg)); }, &trace);
        ConnectionConfig scfg;
        scfg.role = Role::server;
        server = std::make_unique<Connection>(
            sim, scfg, rng.fork(2),
            [this](Datagram dg) { path.return_link().send(std::move(dg)); });
        path.forward_link().set_receiver(
            [this](spinscope::bytes::ConstByteSpan dg) { server->on_datagram(dg); });
        path.return_link().set_receiver(
            [this](spinscope::bytes::ConstByteSpan dg) { client->on_datagram(dg); });
        server->on_stream_complete = [this](std::uint64_t, std::span<const std::uint8_t>) {
            server->send_stream(0, std::vector<std::uint8_t>(30'000, 1), true);
        };
        client->on_handshake_complete = [this] {
            client->send_stream(0, std::vector<std::uint8_t>(100, 2), true);
        };
        client->on_stream_complete = [this](std::uint64_t, std::span<const std::uint8_t> data) {
            response_size = data.size();
            client->close(0, "done");
        };
    }

    static netsim::LinkConfig link_config() {
        netsim::LinkConfig link;
        link.base_delay = Duration::millis(10);
        return link;
    }

    void run() { sim.run_until(TimePoint::origin() + Duration::seconds(60)); }

    netsim::Simulator sim;
    Rng rng;
    netsim::Path path;
    qlog::Trace trace;
    std::unique_ptr<Connection> client;
    std::unique_ptr<Connection> server;
    std::size_t response_size = 0;
};

TEST(Robustness, GarbageDatagramsAreIgnored) {
    Pair pair;
    // Inject junk into both endpoints throughout the exchange.
    Rng fuzz{1};
    pair.sim.schedule_after(Duration::millis(1), [&] {
        for (int i = 0; i < 50; ++i) {
            Datagram junk(fuzz.uniform_u64(64) + 1);
            for (auto& b : junk) b = static_cast<std::uint8_t>(fuzz.next());
            pair.client->on_datagram(junk);
            pair.server->on_datagram(junk);
        }
    });
    pair.client->connect();
    pair.run();
    EXPECT_EQ(pair.response_size, 30'000u);
}

TEST(Robustness, EmptyAndTinyDatagrams) {
    Pair pair;
    pair.client->connect();
    pair.sim.schedule_after(Duration::millis(30), [&] {
        pair.client->on_datagram(spinscope::bytes::ConstByteSpan{});
        pair.client->on_datagram(std::vector<std::uint8_t>{0x40});           // short header, missing DCID
        pair.client->on_datagram(std::vector<std::uint8_t>{0x00, 0x00});     // fixed bit clear
        pair.server->on_datagram(std::vector<std::uint8_t>{0xc0});           // truncated long header
    });
    pair.run();
    EXPECT_EQ(pair.response_size, 30'000u);
}

TEST(Robustness, DuplicatedDatagramsAreDeduplicated) {
    Pair pair;
    // Duplicate every server->client datagram.
    pair.path.return_link().set_receiver([&pair](spinscope::bytes::ConstByteSpan dg) {
        pair.client->on_datagram(dg);
        pair.client->on_datagram(dg);
    });
    pair.client->connect();
    pair.run();
    EXPECT_EQ(pair.response_size, 30'000u);
    // Trace records only deduplicated packets: packet numbers are unique.
    std::set<std::pair<int, quic::PacketNumber>> seen;
    for (const auto& ev : pair.trace.received) {
        const auto key = std::make_pair(static_cast<int>(ev.type), ev.packet_number);
        EXPECT_TRUE(seen.insert(key).second)
            << "duplicate pn " << ev.packet_number << " recorded";
    }
}

TEST(Robustness, VersionNegotiationPacketIgnored) {
    Pair pair;
    pair.client->connect();
    pair.sim.schedule_after(Duration::millis(5), [&] {
        pair.client->on_datagram(std::vector<std::uint8_t>{0xc0, 0x00, 0x00, 0x00, 0x00, 0x08});
    });
    pair.run();
    EXPECT_EQ(pair.response_size, 30'000u);
}

TEST(Robustness, MalformedFramePayloadDropsPacketOnly) {
    Pair pair;
    pair.client->connect();
    pair.sim.schedule_after(Duration::millis(25), [&] {
        // Valid short header carrying an unknown frame type.
        PacketHeader header;
        header.type = PacketType::one_rtt;
        header.dcid = ConnectionId::from_u64(0);  // wrong CID is fine, parse-only
        header.packet_number = 9999;
        std::vector<std::uint8_t> payload;
        encode_varint(payload, 0x3f);  // unimplemented frame type
        Datagram wire;
        encode_packet(wire, header, payload, kInvalidPacketNumber);
        pair.client->on_datagram(wire);
    });
    pair.run();
    EXPECT_EQ(pair.response_size, 30'000u);
}

// Tiny helper so the fuzz loop's results are observed.
void benchmarkish_use(bool) {}

TEST(Robustness, CodecFuzzNeverCrashes) {
    Rng rng{0xf00d};
    for (int i = 0; i < 20000; ++i) {
        Datagram bytes(rng.uniform_u64(80));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
        auto packet = decode_packet(bytes, 8, rng.uniform_u64(1000));
        if (packet) {
            DecodedFrames frames;
            benchmarkish_use(decode_frames(packet->payload, 3, frames));
        }
        auto view = peek_short_header(bytes);
        benchmarkish_use(view.has_value());
    }
    SUCCEED();
}

TEST(Robustness, DecodedPacketsReencodeConsistently) {
    // Round-trip property on structured random packets.
    Rng rng{0xc0de};
    for (int i = 0; i < 2000; ++i) {
        PacketHeader header;
        header.type = rng.coin() ? PacketType::one_rtt
                                 : (rng.coin() ? PacketType::initial : PacketType::handshake);
        header.dcid = ConnectionId::from_u64(rng.next());
        header.scid = ConnectionId::from_u64(rng.next());
        header.packet_number = rng.uniform_u64(1 << 20);
        header.spin = rng.coin();
        header.vec = static_cast<std::uint8_t>(rng.uniform_u64(4));
        std::vector<std::uint8_t> payload(rng.uniform_u64(64) + 1, 0x01);  // PING frames

        Datagram wire;
        const PacketNumber largest_acked =
            header.packet_number == 0 ? kInvalidPacketNumber : header.packet_number - 1;
        encode_packet(wire, header, payload, largest_acked);
        const auto decoded = decode_packet(
            wire, 8, header.packet_number == 0 ? kInvalidPacketNumber
                                               : header.packet_number - 1);
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(decoded->header.type, header.type);
        ASSERT_EQ(decoded->header.packet_number, header.packet_number);
        if (header.type == PacketType::one_rtt) {
            ASSERT_EQ(decoded->header.spin, header.spin);
            ASSERT_EQ(decoded->header.vec, header.vec);
        }
        ASSERT_EQ(decoded->payload.size(), payload.size());
    }
}

TEST(Robustness, StreamsOnManyIdsConcurrently) {
    Pair pair;
    std::map<std::uint64_t, std::size_t> received;
    pair.server->on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t> data) {
        received[id] = data.size();
        if (received.size() == 4) {
            pair.server->send_stream(0, std::vector<std::uint8_t>(500, 1), true);
        }
    };
    pair.client->on_handshake_complete = [&] {
        for (std::uint64_t id : {0, 4, 8, 12}) {
            pair.client->send_stream(id, std::vector<std::uint8_t>(1000 + id * 100, 2), true);
        }
    };
    pair.client->connect();
    pair.run();
    ASSERT_EQ(received.size(), 4u);
    EXPECT_EQ(received[0], 1000u);
    EXPECT_EQ(received[12], 1000u + 1200u);
    EXPECT_EQ(pair.response_size, 500u);
}

TEST(Robustness, SurvivesExtremeLoss) {
    netsim::Simulator sim;
    Rng rng{0xbad};
    netsim::LinkConfig lossy;
    lossy.base_delay = Duration::millis(10);
    lossy.loss_probability = 0.25;
    netsim::Path path{sim, lossy, lossy, rng};
    ConnectionConfig ccfg;
    ccfg.role = Role::client;
    ccfg.max_pto_count = 10;
    ccfg.idle_timeout = Duration::seconds(40);
    Connection client{sim, ccfg, rng.fork(1),
                      [&path](Datagram dg) { path.forward_link().send(std::move(dg)); }};
    ConnectionConfig scfg;
    scfg.role = Role::server;
    scfg.max_pto_count = 10;
    scfg.idle_timeout = Duration::seconds(40);
    Connection server{sim, scfg, rng.fork(2),
                      [&path](Datagram dg) { path.return_link().send(std::move(dg)); }};
    path.forward_link().set_receiver(
        [&server](spinscope::bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver(
        [&client](spinscope::bytes::ConstByteSpan dg) { client.on_datagram(dg); });
    std::size_t got = 0;
    server.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        server.send_stream(0, std::vector<std::uint8_t>(15'000, 1), true);
    };
    client.on_handshake_complete = [&] {
        client.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    client.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t> data) {
        got = data.size();
        client.close(0, "done");
    };
    client.connect();
    sim.run_until(TimePoint::origin() + Duration::seconds(120));
    // At 25 % bidirectional loss either the transfer completes (usual case,
    // thanks to PTO + loss recovery) or the endpoint reports failure — it
    // must never hang in between.
    EXPECT_TRUE(got == 15'000u || client.failed());
    // Recovery machinery was exercised: the link dropped traffic in both
    // directions (pto_count itself resets on forward progress, so assert on
    // the link's ground truth instead).
    EXPECT_GT(path.forward_link().stats().dropped + path.return_link().stats().dropped, 0u);
}

TEST(Robustness, GarbagePayloadFromPeerIsProtocolError) {
    // A hostile server answers the request with an undecodable 1-RTT packet
    // (correct connection ID, junk frames). The client must classify this as
    // a protocol error — close cleanly, never crash or hang.
    Pair pair;
    pair.server->on_stream_complete = [&pair](std::uint64_t, std::span<const std::uint8_t>) {
        std::vector<std::uint8_t> junk(48, 0xAA);
        junk[0] = 0x21;  // unknown frame type
        pair.server->send_raw_payload(std::move(junk));
    };
    pair.client->connect();
    pair.run();
    EXPECT_TRUE(pair.client->protocol_error());
    EXPECT_TRUE(pair.client->closed());
    EXPECT_EQ(pair.response_size, 0u);
    pair.client->finalize_trace();
    EXPECT_EQ(pair.trace.outcome, qlog::ConnectionOutcome::protocol_error);
}

TEST(Robustness, HostileStreamOffsetIsBoundedNotAllocated) {
    // A STREAM offset of 2^30 passes the frame-level varint checks but must
    // trip the connection's reassembly bound (protocol error), not reserve a
    // gigabyte of buffer.
    Pair pair;
    pair.server->on_stream_complete = [&pair](std::uint64_t, std::span<const std::uint8_t>) {
        static constexpr std::uint8_t kData[] = {1, 2, 3};
        StreamFrame poison;
        poison.stream_id = 0;
        poison.offset = 1ULL << 30;
        poison.data = kData;
        std::vector<std::uint8_t> payload;
        Writer w{payload};
        encode_frame(w, Frame{poison}, 3);
        pair.server->send_raw_payload(std::move(payload));
    };
    pair.client->connect();
    pair.run();
    EXPECT_TRUE(pair.client->protocol_error());
    EXPECT_EQ(pair.response_size, 0u);
}

TEST(Robustness, OverlongFrameTypeEncodingRejected) {
    // RFC 9000 §12.4: frame types use the minimal varint encoding. 0x4001 is
    // an overlong PING and must not alias it.
    DecodedFrames frames;
    const std::vector<std::uint8_t> overlong{0x40, 0x01};
    EXPECT_FALSE(decode_frames(overlong, 3, frames));
    const std::vector<std::uint8_t> minimal{0x01};
    ASSERT_TRUE(decode_frames(minimal, 3, frames));
    ASSERT_EQ(frames.frames.size(), 1u);
    EXPECT_TRUE(std::holds_alternative<PingFrame>(frames.frames.front()));
}

TEST(Robustness, HugeAckDelayIsClampedNotOverflowed) {
    // delay_units = kVarintMax with a large exponent would shift far past
    // int64 without the clamp; the decoded delay must stay finite and sane.
    std::vector<std::uint8_t> wire;
    Writer w{wire};
    w.varint(0x02);        // ACK
    w.varint(5);           // largest acked
    w.varint(kVarintMax);  // ack delay units
    w.varint(0);           // extra range count
    w.varint(1);           // first range
    DecodedFrames frames;
    ASSERT_TRUE(decode_frames(wire, /*ack_delay_exponent=*/20, frames));
    const auto* ack = std::get_if<AckFrame>(&frames.frames.front());
    ASSERT_NE(ack, nullptr);
    EXPECT_FALSE(ack->ack_delay.is_negative());
    EXPECT_LE(ack->ack_delay.count_micros(), static_cast<std::int64_t>(1ULL << 42));
}

TEST(Robustness, FrameOffsetsNearVarintMaxRejected) {
    // STREAM: offset + length may not exceed the varint ceiling (§19.8).
    std::vector<std::uint8_t> stream_wire;
    Writer sw{stream_wire};
    sw.varint(0x0e);  // STREAM | OFF | LEN
    sw.varint(0);     // stream id
    sw.varint(kVarintMax);
    sw.varint(1);
    sw.u8(0xAB);
    DecodedFrames frames;
    EXPECT_FALSE(decode_frames(stream_wire, 3, frames));

    // CRYPTO: same rule (§19.6).
    std::vector<std::uint8_t> crypto_wire;
    Writer cw{crypto_wire};
    cw.varint(0x06);
    cw.varint(kVarintMax);
    cw.varint(2);
    cw.u8(0x01);
    cw.u8(0x02);
    EXPECT_FALSE(decode_frames(crypto_wire, 3, frames));
}

TEST(Robustness, TruncatedFramesNeverOverread) {
    // Every prefix of a valid multi-frame payload either decodes or fails
    // cleanly — no crash, no over-read (run under ASan to enforce).
    const std::vector<std::uint8_t> data(32, 0x5c);
    StreamFrame stream;
    stream.stream_id = 4;
    stream.offset = 100;
    stream.data = data;
    const AckRange ranges[] = {{3, 9}};
    AckFrame ack;
    ack.ranges = ranges;
    ack.ack_delay = Duration::millis(5);
    const std::vector<Frame> frames{Frame{stream}, Frame{ack}, Frame{PingFrame{}}};
    std::vector<std::uint8_t> payload;
    Writer w{payload};
    encode_frames(w, frames, 3);
    DecodedFrames decoded;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        const std::span<const std::uint8_t> prefix{payload.data(), cut};
        benchmarkish_use(decode_frames(prefix, 3, decoded));
    }
    ASSERT_TRUE(decode_frames(payload, 3, decoded));
}

}  // namespace
}  // namespace spinscope::quic
