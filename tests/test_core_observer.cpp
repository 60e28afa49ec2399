// Unit tests for the spin-bit observer: batch measurement in received and
// sorted order, the streaming observer, the RFC 9312 heuristics, and the
// observer as an on-path wire tap (middlebox view).

#include <gtest/gtest.h>

#include <vector>

#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/packet.hpp"

namespace spinscope::core {
namespace {

using util::Duration;
using util::TimePoint;

SpinObservation obs(std::int64_t ms, quic::PacketNumber pn, bool spin) {
    return {TimePoint::origin() + Duration::millis(ms), pn, spin};
}

/// A clean square wave: value flips every `period_ms`, one packet per flip.
std::vector<SpinObservation> square_wave(int flips, std::int64_t period_ms) {
    std::vector<SpinObservation> packets;
    bool value = false;
    for (int i = 0; i < flips; ++i) {
        packets.push_back(obs(i * period_ms, static_cast<quic::PacketNumber>(i), value));
        value = !value;
    }
    return packets;
}

TEST(MeasureSpinRtt, EmptyInput) {
    const auto result = measure_spin_rtt({}, PacketOrder::received);
    EXPECT_FALSE(result.spin_candidate());
    EXPECT_FALSE(result.has_samples());
    EXPECT_EQ(result.edge_count, 0u);
    EXPECT_DOUBLE_EQ(result.mean_ms(), 0.0);
    EXPECT_DOUBLE_EQ(result.min_ms(), 0.0);
}

TEST(MeasureSpinRtt, ConstantValueIsNotACandidate) {
    std::vector<SpinObservation> packets;
    for (int i = 0; i < 10; ++i) packets.push_back(obs(i, static_cast<unsigned>(i), true));
    const auto result = measure_spin_rtt(packets, PacketOrder::received);
    EXPECT_TRUE(result.saw_one);
    EXPECT_FALSE(result.saw_zero);
    EXPECT_FALSE(result.spin_candidate());
    EXPECT_EQ(result.edge_count, 0u);
}

TEST(MeasureSpinRtt, SquareWaveYieldsPeriod) {
    const auto packets = square_wave(6, 40);
    const auto result = measure_spin_rtt(packets, PacketOrder::received);
    EXPECT_TRUE(result.spin_candidate());
    EXPECT_EQ(result.edge_count, 5u);
    ASSERT_EQ(result.samples_ms.size(), 4u);
    for (const double s : result.samples_ms) EXPECT_DOUBLE_EQ(s, 40.0);
    EXPECT_DOUBLE_EQ(result.mean_ms(), 40.0);
    EXPECT_DOUBLE_EQ(result.min_ms(), 40.0);
}

TEST(MeasureSpinRtt, MultiplePacketsPerHalfPeriod) {
    // Several packets with the same value between flips must not create
    // extra edges.
    std::vector<SpinObservation> packets;
    packets.push_back(obs(0, 0, false));
    packets.push_back(obs(5, 1, false));
    packets.push_back(obs(30, 2, true));   // edge 1
    packets.push_back(obs(35, 3, true));
    packets.push_back(obs(60, 4, false));  // edge 2
    const auto result = measure_spin_rtt(packets, PacketOrder::received);
    EXPECT_EQ(result.edge_count, 2u);
    ASSERT_EQ(result.samples_ms.size(), 1u);
    EXPECT_DOUBLE_EQ(result.samples_ms[0], 30.0);
}

TEST(MeasureSpinRtt, ReorderingCreatesUltraShortSampleInReceivedOrder) {
    // Paper Fig. 1b: a reordered packet near a spin edge produces a bogus
    // ultra-short spin period in received order...
    std::vector<SpinObservation> packets;
    packets.push_back(obs(0, 0, false));
    packets.push_back(obs(40, 1, true));
    packets.push_back(obs(80, 3, false));  // pn 3 overtook pn 2
    packets.push_back(obs(81, 2, true));   // stale packet: spurious edges
    packets.push_back(obs(82, 4, false));
    const auto received = measure_spin_rtt(packets, PacketOrder::received);
    EXPECT_EQ(received.edge_count, 4u);
    EXPECT_LT(received.min_ms(), 2.0);

    // ... which sorting by packet number repairs (§5.1 "S"): pn order is
    // 0(f) 1(t) 2(t) 3(f) 4(f), i.e. two clean edges and one ~40 ms sample.
    const auto sorted = measure_spin_rtt(packets, PacketOrder::sorted);
    EXPECT_EQ(sorted.edge_count, 2u);
    ASSERT_EQ(sorted.samples_ms.size(), 1u);
    EXPECT_GE(sorted.min_ms(), 39.0);
}

TEST(MeasureSpinRtt, SortedDropsDuplicatePacketNumbers) {
    std::vector<SpinObservation> packets;
    packets.push_back(obs(0, 0, false));
    packets.push_back(obs(40, 1, true));
    packets.push_back(obs(41, 1, true));  // duplicate (retransmission)
    packets.push_back(obs(80, 2, false));
    const auto sorted = measure_spin_rtt(packets, PacketOrder::sorted);
    EXPECT_EQ(sorted.edge_count, 2u);
    ASSERT_EQ(sorted.samples_ms.size(), 1u);
    EXPECT_DOUBLE_EQ(sorted.samples_ms[0], 40.0);
}

TEST(MeasureSpinRtt, SingleEdgeYieldsNoSample) {
    std::vector<SpinObservation> packets;
    packets.push_back(obs(0, 0, false));
    packets.push_back(obs(30, 1, true));
    const auto result = measure_spin_rtt(packets, PacketOrder::received);
    EXPECT_TRUE(result.spin_candidate());
    EXPECT_EQ(result.edge_count, 1u);
    EXPECT_FALSE(result.has_samples());
}

TEST(StreamingObserver, MatchesBatchReceivedOrder) {
    const auto packets = square_wave(8, 25);
    SpinEdgeObserver streaming;
    for (const auto& p : packets) streaming.on_packet(p);
    const auto batch = measure_spin_rtt(packets, PacketOrder::received);
    EXPECT_EQ(streaming.result().samples_ms, batch.samples_ms);
    EXPECT_EQ(streaming.result().edge_count, batch.edge_count);
    EXPECT_EQ(streaming.rejected_samples(), 0u);
}

TEST(StreamingObserver, StaticFloorRejectsShortSamples) {
    ObserverConfig config;
    config.min_plausible_rtt = Duration::millis(5);
    SpinEdgeObserver observer{config};
    observer.on_packet(obs(0, 0, false));
    observer.on_packet(obs(40, 1, true));
    observer.on_packet(obs(41, 2, false));  // 1 ms sample -> rejected
    observer.on_packet(obs(80, 3, true));
    EXPECT_EQ(observer.rejected_samples(), 1u);
    ASSERT_EQ(observer.result().samples_ms.size(), 1u);
    EXPECT_DOUBLE_EQ(observer.result().samples_ms[0], 39.0);
}

TEST(StreamingObserver, DynamicRatioRejectsOutliers) {
    ObserverConfig config;
    config.dynamic_reject_ratio = 0.25;
    SpinEdgeObserver observer{config};
    // Establish a ~40 ms smoothed estimate, then present a 2 ms sample.
    bool value = false;
    std::int64_t t = 0;
    quic::PacketNumber pn = 0;
    for (int i = 0; i < 6; ++i) {
        observer.on_packet(obs(t, pn++, value));
        value = !value;
        t += 40;
    }
    observer.on_packet(obs(t - 40 + 2, pn++, value));  // 2 ms after last edge
    EXPECT_EQ(observer.rejected_samples(), 1u);
    // The 2 ms outlier is not among the samples.
    EXPECT_EQ(observer.result().samples_ms, std::vector<double>(4, 40.0));
}

TEST(StreamingObserver, PacketNumberFilterSuppressesStaleEdges) {
    ObserverConfig config;
    config.packet_number_filter = true;
    SpinEdgeObserver observer{config};
    observer.on_packet(obs(0, 0, false));
    observer.on_packet(obs(40, 1, true));
    observer.on_packet(obs(80, 3, false));
    observer.on_packet(obs(81, 2, true));   // stale pn: ignored as edge
    observer.on_packet(obs(120, 4, true));  // consistent with pn 2? no: current is false
    // Edges: pn1 (0->1), pn3 (1->0), pn4 (0->1). The stale pn2 is skipped.
    EXPECT_EQ(observer.result().edge_count, 3u);
    ASSERT_EQ(observer.result().samples_ms.size(), 2u);
    EXPECT_DOUBLE_EQ(observer.result().samples_ms[0], 40.0);
    EXPECT_DOUBLE_EQ(observer.result().samples_ms[1], 40.0);
}

TEST(StreamingObserver, WithoutPnFilterStaleEdgeCorruptsSamples) {
    SpinEdgeObserver observer;  // defaults: no filtering
    observer.on_packet(obs(0, 0, false));
    observer.on_packet(obs(40, 1, true));
    observer.on_packet(obs(80, 3, false));
    observer.on_packet(obs(81, 2, true));
    observer.on_packet(obs(82, 4, false));
    EXPECT_EQ(observer.result().edge_count, 4u);
    EXPECT_LT(observer.result().min_ms(), 2.0);
}

// Property: for a clean square wave of any period, every sample equals the
// period regardless of heuristics.
class SquareWavePeriod : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SquareWavePeriod, AllSamplesEqualPeriod) {
    const std::int64_t period = GetParam();
    const auto packets = square_wave(10, period);
    for (const auto order : {PacketOrder::received, PacketOrder::sorted}) {
        const auto result = measure_spin_rtt(packets, order);
        ASSERT_EQ(result.samples_ms.size(), 8u);
        for (const double s : result.samples_ms) {
            EXPECT_DOUBLE_EQ(s, static_cast<double>(period));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Periods, SquareWavePeriod, ::testing::Values(1, 10, 25, 100, 400));

// --- on-path wire tap (on_datagram) ------------------------------------------

netsim::Datagram short_packet(bool spin, quic::PacketNumber pn) {
    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(0x42);
    header.packet_number = pn;
    header.spin = spin;
    netsim::Datagram wire;
    quic::encode_packet(wire, header, {}, quic::kInvalidPacketNumber);
    return wire;
}

netsim::Datagram long_packet() {
    quic::PacketHeader header;
    header.type = quic::PacketType::initial;
    header.dcid = quic::ConnectionId::from_u64(1);
    header.scid = quic::ConnectionId::from_u64(2);
    netsim::Datagram wire;
    const std::vector<std::uint8_t> payload{0x01};
    quic::encode_packet(wire, header, payload, quic::kInvalidPacketNumber);
    return wire;
}

TimePoint at_ms(std::int64_t ms) { return TimePoint::origin() + Duration::millis(ms); }

TEST(WireObserver, CountsPacketCategories) {
    SpinEdgeObserver tap;
    tap.on_datagram(at_ms(0), long_packet());
    tap.on_datagram(at_ms(1), short_packet(false, 0));
    tap.on_datagram(at_ms(2), short_packet(false, 1));
    tap.on_datagram(at_ms(3), spinscope::bytes::ConstByteSpan{});  // empty datagram
    EXPECT_EQ(tap.short_header_packets(), 2u);
    // The long-header and empty datagrams left no trace in the spin state.
    EXPECT_TRUE(tap.result().saw_zero);
    EXPECT_FALSE(tap.result().saw_one);
    EXPECT_EQ(tap.result().edge_count, 0u);
}

TEST(WireObserver, MeasuresSpinPeriodFromRawDatagrams) {
    SpinEdgeObserver tap;
    bool value = false;
    for (int i = 0; i < 8; ++i) {
        tap.on_datagram(at_ms(i * 30), short_packet(value, static_cast<unsigned>(i)));
        value = !value;
    }
    ASSERT_EQ(tap.result().samples_ms.size(), 6u);
    for (const double s : tap.result().samples_ms) EXPECT_DOUBLE_EQ(s, 30.0);
}

TEST(WireObserver, HeuristicsApplyButPnFilterForcedOff) {
    // The third datagram carries a stale packet number, which the RFC 9312
    // filter would drop if it could read it. On the wire the observer only
    // has the arrival index, so the filter changes nothing.
    const auto feed = [](SpinEdgeObserver& tap) {
        tap.on_datagram(at_ms(0), short_packet(false, 0));
        tap.on_datagram(at_ms(30), short_packet(true, 2));
        tap.on_datagram(at_ms(31), short_packet(false, 1));  // 1 ms: rejected
        tap.on_datagram(at_ms(60), short_packet(true, 3));
    };
    ObserverConfig config;
    config.min_plausible_rtt = Duration::millis(5);
    SpinEdgeObserver unfiltered{config};
    config.packet_number_filter = true;  // impossible on the wire
    SpinEdgeObserver filtered{config};
    feed(unfiltered);
    feed(filtered);
    EXPECT_EQ(filtered.rejected_samples(), 1u);
    EXPECT_EQ(filtered.result().edge_count, 3u);
    EXPECT_EQ(filtered.rejected_samples(), unfiltered.rejected_samples());
    EXPECT_EQ(filtered.result().edge_count, unfiltered.result().edge_count);
    EXPECT_EQ(filtered.result().samples_ms, unfiltered.result().samples_ms);
}

TEST(WireObserver, AttachesToLinkAsTap) {
    netsim::Simulator sim;
    netsim::LinkConfig config;
    config.base_delay = Duration::millis(2);
    netsim::Link link{sim, config, util::Rng{1}};
    SpinEdgeObserver tap;
    link.add_tap(tap.tap());
    link.set_receiver([](spinscope::bytes::ConstByteSpan) {});
    link.send(short_packet(false, 0));
    sim.run_until(TimePoint::origin() + Duration::millis(20));
    link.send(short_packet(true, 1));
    sim.run();
    EXPECT_EQ(tap.short_header_packets(), 2u);
    EXPECT_EQ(tap.result().edge_count, 1u);
}

}  // namespace
}  // namespace spinscope::core
