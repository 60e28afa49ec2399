// Tests for the Valid Edge Counter extension (De Vaere et al.): wire
// encoding in the reserved bits, the endpoint saturation logic, and the
// VEC-aware observer's robustness to reordering.

#include <gtest/gtest.h>

#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "quic/packet.hpp"
#include "quic/spin.hpp"

namespace spinscope {
namespace {

using quic::Role;
using quic::SpinConfig;
using quic::SpinPolicy;
using quic::SpinState;
using util::Duration;
using util::TimePoint;

SpinConfig vec_config() {
    SpinConfig config{SpinPolicy::spin, 0, SpinPolicy::always_zero};
    config.enable_vec = true;
    return config;
}

TEST(VecWire, ReservedBitsRoundTrip) {
    for (std::uint8_t vec = 0; vec <= 3; ++vec) {
        quic::PacketHeader header;
        header.type = quic::PacketType::one_rtt;
        header.dcid = quic::ConnectionId::from_u64(1);
        header.packet_number = 5;
        header.spin = true;
        header.vec = vec;
        std::vector<std::uint8_t> wire;
        quic::encode_packet(wire, header, {}, quic::kInvalidPacketNumber);
        const auto decoded = quic::decode_packet(wire, 8, 4);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->header.vec, vec);
        const auto view = quic::peek_short_header(wire);
        ASSERT_TRUE(view.has_value());
        EXPECT_EQ(view->vec, vec);
    }
}

TEST(VecWire, StandardTrafficKeepsReservedBitsZero) {
    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(1);
    header.spin = true;
    std::vector<std::uint8_t> wire;
    quic::encode_packet(wire, header, {}, quic::kInvalidPacketNumber);
    EXPECT_EQ(wire[0] & 0x18, 0);  // RFC 9000: reserved bits zero
}

TEST(VecState, NonEdgePacketsCarryZero) {
    util::Rng rng{1};
    SpinState client{Role::client, vec_config(), rng};
    // First packet: value 0, not an edge relative to the wave baseline.
    auto bits = client.outgoing(rng);
    EXPECT_FALSE(bits.spin);
    EXPECT_EQ(bits.vec, 0);
    // Repeat without new input: same value, still no edge.
    bits = client.outgoing(rng);
    EXPECT_EQ(bits.vec, 0);
}

TEST(VecState, WaveSaturatesAtThree) {
    util::Rng rng{2};
    SpinState client{Role::client, vec_config(), rng};
    SpinState server{Role::server, vec_config(), rng};

    // Client sends 0 (baseline); server reflects 0.
    auto c = client.outgoing(rng);
    server.on_packet_received(0, c.spin, c.vec);
    auto s = server.outgoing(rng);
    EXPECT_EQ(s.vec, 0);  // reflecting 0 with no edge

    // Client sees 0, inverts -> first real edge, VEC 1.
    client.on_packet_received(0, s.spin, s.vec);
    c = client.outgoing(rng);
    EXPECT_TRUE(c.spin);
    EXPECT_EQ(c.vec, 1);

    // Server reflects the edge -> VEC 2.
    server.on_packet_received(1, c.spin, c.vec);
    s = server.outgoing(rng);
    EXPECT_TRUE(s.spin);
    EXPECT_EQ(s.vec, 2);

    // Client inverts again -> VEC 3 (saturated).
    client.on_packet_received(1, s.spin, s.vec);
    c = client.outgoing(rng);
    EXPECT_FALSE(c.spin);
    EXPECT_EQ(c.vec, 3);

    // And the wave stays saturated from here on.
    server.on_packet_received(2, c.spin, c.vec);
    s = server.outgoing(rng);
    EXPECT_EQ(s.vec, 3);
}

TEST(VecState, DisabledMeansAlwaysZero) {
    util::Rng rng{3};
    SpinConfig config{SpinPolicy::spin, 0, SpinPolicy::always_zero};  // enable_vec false
    SpinState client{Role::client, config, rng};
    client.on_packet_received(0, false, 0);
    const auto bits = client.outgoing(rng);
    EXPECT_TRUE(bits.spin);
    EXPECT_EQ(bits.vec, 0);
}

TEST(VecObserver, RejectsFabricatedEdges) {
    core::ObserverConfig config;
    config.require_vec = true;
    core::SpinEdgeObserver observer{config};
    const auto at = [](std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); };

    observer.on_packet({at(0), 0, false, 0});
    observer.on_packet({at(40), 1, true, 3});    // valid edge
    observer.on_packet({at(80), 3, false, 3});   // valid edge -> 40 ms sample
    observer.on_packet({at(81), 2, true, 0});    // reordered packet: NOT an edge
    observer.on_packet({at(120), 4, true, 3});   // valid edge -> 40 ms sample
    EXPECT_EQ(observer.result().edge_count, 3u);
    ASSERT_EQ(observer.result().samples_ms.size(), 2u);
    EXPECT_DOUBLE_EQ(observer.result().samples_ms[0], 40.0);
    EXPECT_DOUBLE_EQ(observer.result().samples_ms[1], 40.0);
}

TEST(VecObserver, UnvalidatedEdgesDoNotProduceSamples) {
    core::ObserverConfig config;
    config.require_vec = true;
    core::SpinEdgeObserver observer{config};
    const auto at = [](std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); };
    observer.on_packet({at(0), 0, false, 0});
    observer.on_packet({at(40), 1, true, 1});   // wave starting: vec 1
    observer.on_packet({at(80), 2, false, 2});  // vec 2: edge counted, sample rejected
    EXPECT_EQ(observer.result().edge_count, 2u);
    EXPECT_TRUE(observer.result().samples_ms.empty());
    EXPECT_EQ(observer.rejected_samples(), 1u);
}

TEST(VecEndToEnd, ConnectionsCarrySaturatedVec) {
    netsim::Simulator sim;
    util::Rng rng{7};
    netsim::LinkConfig link;
    link.base_delay = Duration::millis(10);
    netsim::Path path{sim, link, link, rng};

    qlog::Trace trace;
    quic::ConnectionConfig client_cfg;
    client_cfg.role = Role::client;
    client_cfg.spin = vec_config();
    quic::Connection client{sim, client_cfg, rng.fork(1),
                            [&path](netsim::Datagram dg) {
                                path.forward_link().send(std::move(dg));
                            },
                            &trace};
    quic::ConnectionConfig server_cfg;
    server_cfg.role = Role::server;
    server_cfg.spin = vec_config();
    quic::Connection server{sim, server_cfg, rng.fork(2), [&path](netsim::Datagram dg) {
                                path.return_link().send(std::move(dg));
                            }};
    path.forward_link().set_receiver(
        [&server](spinscope::bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver(
        [&client](spinscope::bytes::ConstByteSpan dg) { client.on_datagram(dg); });

    server.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        server.send_stream(0, std::vector<std::uint8_t>(80'000, 1), true);
    };
    client.on_handshake_complete = [&] {
        client.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    client.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        client.close(0, "done");
    };
    client.connect();
    sim.run_until(TimePoint::origin() + Duration::seconds(30));

    // The received stream contains saturated edges and zero-VEC non-edges.
    int saturated_edges = 0;
    int nonzero_nonedges = 0;
    bool last = false;
    bool have_last = false;
    for (const auto& ev : trace.received) {
        if (ev.type != quic::PacketType::one_rtt) continue;
        const bool is_edge = have_last && ev.spin != last;
        if (is_edge && ev.vec == 3) ++saturated_edges;
        if (!is_edge && have_last && ev.vec != 0) ++nonzero_nonedges;
        last = ev.spin;
        have_last = true;
    }
    EXPECT_GE(saturated_edges, 1);
    EXPECT_EQ(nonzero_nonedges, 0);

    // A VEC-aware assessment of the same trace yields plausible samples.
    core::ObserverConfig vec_observer_config;
    vec_observer_config.require_vec = true;
    core::SpinEdgeObserver vec_observer{vec_observer_config};
    for (const auto& ev : trace.received) {
        if (ev.type != quic::PacketType::one_rtt) continue;
        vec_observer.on_packet({ev.time, ev.packet_number, ev.spin, ev.vec});
    }
    ASSERT_TRUE(vec_observer.result().has_samples());
    EXPECT_GT(vec_observer.result().min_ms(), 19.0);
}

}  // namespace
}  // namespace spinscope
