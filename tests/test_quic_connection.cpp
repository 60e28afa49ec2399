// Integration tests for quic::Connection: handshake, transfer, spin wave,
// loss recovery, timeouts and teardown — all over the simulated network.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"

namespace spinscope::quic {
namespace {

using netsim::Datagram;
using netsim::LinkConfig;
using netsim::Path;
using netsim::Simulator;
using util::Duration;
using util::Rng;
using util::TimePoint;

/// Client/server pair over a configurable path with optional datagram
/// filtering (for targeted loss injection).
class ConnectionPair {
public:
    explicit ConnectionPair(LinkConfig link = default_link(), ConnectionConfig client_cfg = {},
                            ConnectionConfig server_cfg = {})
        : rng_{0xfeed},
          path_{sim_, link, link, rng_},
          client_{sim_, with_role(client_cfg, Role::client), rng_.fork(1),
                  [this](Datagram dg) { path_.forward_link().send(std::move(dg)); },
                  &client_trace_},
          server_{sim_, with_role(server_cfg, Role::server), rng_.fork(2),
                  [this](Datagram dg) { path_.return_link().send(std::move(dg)); },
                  &server_trace_} {
        path_.forward_link().set_receiver([this](spinscope::bytes::ConstByteSpan dg) {
            ++forward_count_;
            if (drop_forward_ && drop_forward_(forward_count_, dg)) return;
            server_.on_datagram(dg);
        });
        path_.return_link().set_receiver([this](spinscope::bytes::ConstByteSpan dg) {
            ++return_count_;
            if (drop_return_ && drop_return_(return_count_, dg)) return;
            client_.on_datagram(dg);
        });
    }

    static LinkConfig default_link() {
        LinkConfig link;
        link.base_delay = Duration::millis(10);
        return link;
    }

    static ConnectionConfig with_role(ConnectionConfig cfg, Role role) {
        cfg.role = role;
        if (cfg.spin.policy == SpinPolicy::spin && cfg.spin.lottery_one_in == 16) {
            cfg.spin.lottery_one_in = 0;  // deterministic tests
        }
        return cfg;
    }

    void run(Duration limit = Duration::seconds(60)) {
        sim_.run_until(TimePoint::origin() + limit);
    }

    Simulator sim_;
    Rng rng_;
    Path path_;
    qlog::Trace client_trace_;
    qlog::Trace server_trace_;
    Connection client_;
    Connection server_;
    int forward_count_ = 0;
    int return_count_ = 0;
    std::function<bool(int, spinscope::bytes::ConstByteSpan)> drop_forward_;
    std::function<bool(int, spinscope::bytes::ConstByteSpan)> drop_return_;
};

TEST(Connection, HandshakeCompletesOnBothSides) {
    ConnectionPair pair;
    pair.client_.connect();
    // Stop before the idle timeout: a connection with no application traffic
    // (and no CONNECTION_CLOSE) idles out by design.
    pair.run(Duration::seconds(2));
    EXPECT_TRUE(pair.client_.handshake_complete());
    EXPECT_TRUE(pair.server_.handshake_complete());
    EXPECT_FALSE(pair.client_.failed());
    EXPECT_FALSE(pair.server_.failed());
}

TEST(Connection, HandshakeTakesOneAndAHalfRtts) {
    ConnectionPair pair;
    TimePoint done = TimePoint::never();
    pair.client_.on_handshake_complete = [&] { done = pair.sim_.now(); };
    pair.client_.connect();
    pair.run();
    // CHLO -> (SHLO, SFIN) -> complete: one full RTT plus emission latency.
    ASSERT_FALSE(done.is_never());
    EXPECT_GE((done - TimePoint::origin()).count_millis(), 20);
    EXPECT_LE((done - TimePoint::origin()).count_millis(), 24);
}

TEST(Connection, FirstInitialIsPaddedToMtu) {
    ConnectionPair pair;
    std::size_t first_size = 0;
    pair.drop_forward_ = [&](int n, spinscope::bytes::ConstByteSpan dg) {
        if (n == 1) first_size = dg.size();
        return false;
    };
    pair.client_.connect();
    pair.run();
    EXPECT_GE(first_size, 1150u);  // ~MTU minus header margin
}

TEST(Connection, RequestResponseTransfer) {
    ConnectionPair pair;
    std::vector<std::uint8_t> request(300, 0x42);
    std::vector<std::uint8_t> response(50'000, 0x24);
    std::vector<std::uint8_t> received_request;
    std::vector<std::uint8_t> received_response;

    pair.server_.on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t> data) {
        ASSERT_EQ(id, 0u);
        received_request.assign(data.begin(), data.end());
        pair.server_.send_stream(0, response, true);
    };
    pair.client_.on_handshake_complete = [&] { pair.client_.send_stream(0, request, true); };
    pair.client_.on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t> data) {
        ASSERT_EQ(id, 0u);
        received_response.assign(data.begin(), data.end());
    };
    pair.client_.connect();
    pair.run();
    EXPECT_EQ(received_request, request);
    EXPECT_EQ(received_response, response);
}

TEST(Connection, SpinWaveVisibleOnLargeTransfer) {
    ConnectionPair pair;
    pair.server_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        pair.server_.send_stream(0, std::vector<std::uint8_t>(80'000, 1), true);
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    pair.client_.connect();
    pair.run();
    bool saw_zero = false;
    bool saw_one = false;
    for (const auto& ev : pair.client_trace_.received) {
        if (ev.type != PacketType::one_rtt) continue;
        (ev.spin ? saw_one : saw_zero) = true;
    }
    EXPECT_TRUE(saw_zero);
    EXPECT_TRUE(saw_one);
}

TEST(Connection, ClientRttEstimateTracksPathRtt) {
    ConnectionPair pair;
    pair.server_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        pair.server_.send_stream(0, std::vector<std::uint8_t>(20'000, 1), true);
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    pair.client_.connect();
    pair.run();
    ASSERT_TRUE(pair.client_.rtt().has_samples());
    // Path RTT is 20 ms; estimates include sub-ms emission latencies.
    EXPECT_GE(pair.client_.rtt().min_rtt().count_millis(), 20);
    EXPECT_LE(pair.client_.rtt().min_rtt().count_millis(), 23);
    EXPECT_LE(pair.client_.rtt().smoothed_rtt().count_millis(), 60);
}

TEST(Connection, LostServerFlightIsRetransmitted) {
    ConnectionPair pair;
    // Drop three consecutive server datagrams mid-response.
    pair.drop_return_ = [](int n, spinscope::bytes::ConstByteSpan) { return n >= 12 && n < 15; };
    std::vector<std::uint8_t> response(40'000, 7);
    std::vector<std::uint8_t> got;
    pair.server_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        pair.server_.send_stream(0, response, true);
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    pair.client_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t> data) {
        got.assign(data.begin(), data.end());
    };
    pair.client_.connect();
    pair.run();
    EXPECT_EQ(got, response);
}

TEST(Connection, LostRequestRecoveredByPto) {
    ConnectionPair pair;
    // Drop the client's first 1-RTT flight (request); PTO must resend it.
    int one_rtt_seen = 0;
    pair.drop_forward_ = [&](int, spinscope::bytes::ConstByteSpan dg) {
        if (!dg.empty() && (dg[0] & 0x80) == 0) {
            ++one_rtt_seen;
            return one_rtt_seen <= 2;
        }
        return false;
    };
    std::vector<std::uint8_t> got;
    pair.server_.on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t> data) {
        if (id == 0) got.assign(data.begin(), data.end());
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(200, 5), true);
    };
    pair.client_.connect();
    pair.run();
    EXPECT_EQ(got.size(), 200u);
    EXPECT_GT(pair.client_.counters().pto_count + pair.client_.counters().packets_lost, 0u);
}

TEST(Connection, HandshakeTimeoutWithoutServer) {
    Simulator sim;
    Rng rng{1};
    qlog::Trace trace;
    ConnectionConfig cfg;
    cfg.role = Role::client;
    cfg.handshake_timeout = Duration::seconds(3);
    Connection client{sim, cfg, rng, [](Datagram) {}, &trace};
    bool failed = false;
    client.on_failed = [&] { failed = true; };
    client.connect();
    sim.run();
    EXPECT_TRUE(failed);
    EXPECT_TRUE(client.failed());
    EXPECT_FALSE(client.handshake_complete());
    client.finalize_trace();
    EXPECT_EQ(trace.outcome, qlog::ConnectionOutcome::handshake_timeout);
    // Initial was retransmitted via PTO before giving up.
    EXPECT_GT(client.counters().packets_sent, 1u);
}

TEST(Connection, CloseReachesPeer) {
    ConnectionPair pair;
    bool server_closed = false;
    pair.server_.on_closed = [&] { server_closed = true; };
    pair.client_.on_handshake_complete = [&] { pair.client_.close(0, "bye"); };
    pair.client_.connect();
    pair.run();
    EXPECT_TRUE(pair.client_.closed());
    EXPECT_TRUE(server_closed);
    EXPECT_TRUE(pair.server_.closed());
}

TEST(Connection, NoTrafficAfterClose) {
    ConnectionPair pair;
    pair.client_.on_handshake_complete = [&] { pair.client_.close(0, "bye"); };
    pair.client_.connect();
    pair.run();
    const auto packets = pair.client_.counters().packets_sent;
    pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 1), true);
    pair.run();
    EXPECT_EQ(pair.client_.counters().packets_sent, packets);
}

TEST(Connection, FlowControlUpdatesEmittedDuringDownload) {
    ConnectionPair pair;
    pair.server_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        pair.server_.send_stream(0, std::vector<std::uint8_t>(60'000, 1), true);
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    pair.client_.connect();
    pair.run();
    // 60 kB at a 12 kB update interval -> several ack-eliciting client
    // packets beyond request + handshake.
    int eliciting_one_rtt = 0;
    for (const auto& ev : pair.client_trace_.sent) {
        if (ev.type == PacketType::one_rtt && ev.ack_eliciting) ++eliciting_one_rtt;
    }
    EXPECT_GE(eliciting_one_rtt, 3);
}

TEST(Connection, IdleTimeoutFiresWhenPeerVanishes) {
    ConnectionPair pair;
    bool vanished = false;
    pair.drop_return_ = [&](int, spinscope::bytes::ConstByteSpan) { return vanished; };
    pair.drop_forward_ = [&](int, spinscope::bytes::ConstByteSpan) { return vanished; };
    pair.client_.on_handshake_complete = [&] {
        vanished = true;  // the server stops answering after the handshake
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 1), true);
    };
    bool failed = false;
    pair.client_.on_failed = [&] { failed = true; };
    pair.client_.connect();
    pair.run(Duration::seconds(120));
    EXPECT_TRUE(failed);
}

TEST(Connection, ServerHonoursDraftVersionInHeaders) {
    ConnectionConfig client_cfg;
    client_cfg.version = Version::draft29;
    ConnectionPair pair{ConnectionPair::default_link(), client_cfg, {}};
    pair.client_.connect();
    pair.run();
    EXPECT_TRUE(pair.client_.handshake_complete());
    ASSERT_FALSE(pair.client_trace_.sent.empty());
}

TEST(Connection, CountersAreConsistent) {
    ConnectionPair pair;
    pair.server_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        pair.server_.send_stream(0, std::vector<std::uint8_t>(30'000, 1), true);
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    pair.client_.connect();
    pair.run();
    EXPECT_EQ(pair.client_.counters().packets_sent, pair.client_trace_.sent.size());
    EXPECT_EQ(pair.client_.counters().packets_received, pair.client_trace_.received.size());
    // Lossless link: everything the client sent, the server received.
    EXPECT_EQ(pair.server_.counters().packets_received, pair.client_.counters().packets_sent);
}

TEST(Connection, GreasingServerShowsRandomSpin) {
    ConnectionConfig server_cfg;
    server_cfg.spin = {SpinPolicy::grease_per_packet, 0, SpinPolicy::always_zero};
    ConnectionPair pair{ConnectionPair::default_link(), {}, server_cfg};
    pair.server_.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        pair.server_.send_stream(0, std::vector<std::uint8_t>(40'000, 1), true);
    };
    pair.client_.on_handshake_complete = [&] {
        pair.client_.send_stream(0, std::vector<std::uint8_t>(100, 2), true);
    };
    pair.client_.connect();
    pair.run();
    int ones = 0;
    int total = 0;
    for (const auto& ev : pair.client_trace_.received) {
        if (ev.type != PacketType::one_rtt) continue;
        ++total;
        if (ev.spin) ++ones;
    }
    ASSERT_GT(total, 20);
    EXPECT_GT(ones, total / 5);
    EXPECT_LT(ones, total * 4 / 5);
}

}  // namespace
}  // namespace spinscope::quic
