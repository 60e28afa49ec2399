// Differential suite for the constrained on-path observer (DESIGN.md §14).
//
// The contract under test: core::ConstrainedMonitor with its constraints
// lifted (a table far larger than the flow universe, eviction off, sampling
// 1:1) agrees flow-for-flow with a perfect flow table — one
// core::SpinEdgeObserver per flow key, fed the same stream — exactly on
// every counter, and within the documented integer-EWMA precision bound on
// the RTT estimate. Under constraints, every packet the constrained monitor
// loses relative to the reference is explained, to the packet, by its
// collision / eviction / sampling counters (the seeded ~10k-case property
// sweep).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/accuracy.hpp"
#include "core/constrained_monitor.hpp"
#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "quic/packet.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::core {
namespace {

using util::Duration;
using util::Rng;
using util::TimePoint;

netsim::Datagram short_packet(std::uint64_t cid, bool spin, quic::PacketNumber pn) {
    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(cid);
    header.packet_number = pn;
    header.spin = spin;
    netsim::Datagram wire;
    quic::encode_packet(wire, header, {}, quic::kInvalidPacketNumber);
    return wire;
}

TimePoint at_us(std::int64_t us) { return TimePoint::origin() + Duration::micros(us); }

/// One observed packet of a synthetic interleaved stream.
struct StreamEvent {
    std::int64_t time_us = 0;
    std::uint64_t key = 0;
    bool spin = false;
};

/// Builds an interleaved multi-flow stream: each flow flips its spin value
/// at its own cadence with jittered inter-packet gaps, then all flows are
/// merged in time order. Pure function of (rng, keys).
std::vector<StreamEvent> interleaved_stream(Rng& rng, const std::vector<std::uint64_t>& keys,
                                            int packets_per_flow) {
    std::vector<StreamEvent> events;
    events.reserve(keys.size() * static_cast<std::size_t>(packets_per_flow));
    for (const std::uint64_t key : keys) {
        std::int64_t t_us = static_cast<std::int64_t>(rng.uniform_u64(5'000));
        bool spin = rng.coin();
        const std::uint64_t flip_every = 1 + rng.uniform_u64(4);
        for (int p = 0; p < packets_per_flow; ++p) {
            if (p > 0 && static_cast<std::uint64_t>(p) % flip_every == 0) spin = !spin;
            t_us += 1'000 + static_cast<std::int64_t>(rng.uniform_u64(9'000));
            events.push_back(StreamEvent{t_us, key, spin});
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const StreamEvent& a, const StreamEvent& b) {
                         if (a.time_us != b.time_us) return a.time_us < b.time_us;
                         return a.key < b.key;
                     });
    return events;
}

/// One flow of the reference table.
struct ReferenceFlow {
    SpinEdgeObserver observer;
    std::uint64_t packets = 0;
};

/// The differential reference: a perfect flow table, one SpinEdgeObserver
/// per flow key, fed with the per-flow arrival index as packet number (what
/// an on-path device has). The stream sweeps feed it each StreamEvent
/// directly; the adversarial corpora go through on_datagram, which triages
/// with the same short-header check and 8-byte key as the monitor.
struct ReferenceTable {
    ObserverConfig config;
    std::map<std::uint64_t, ReferenceFlow> flows;
    std::uint64_t non_flow = 0;

    void observe(std::uint64_t key, TimePoint at, bool spin) {
        auto& flow = flows.try_emplace(key, ReferenceFlow{SpinEdgeObserver{config}}).first->second;
        flow.observer.on_packet(SpinObservation{at, flow.packets++, spin});
    }
    void on_event(const StreamEvent& event) {
        observe(event.key, at_us(event.time_us), event.spin);
    }
    void on_datagram(TimePoint at, bytes::ConstByteSpan datagram) {
        const auto view = quic::peek_short_header(datagram);
        if (!view || datagram.size() < view->dcid_offset + 8) {
            ++non_flow;
            return;
        }
        observe(ConstrainedMonitor::pack_key(datagram.data() + view->dcid_offset, 8), at,
                view->spin);
    }
    [[nodiscard]] const ReferenceFlow* find(std::uint64_t key) const {
        const auto it = flows.find(key);
        return it == flows.end() ? nullptr : &it->second;
    }
    /// Total packets attributed to flows.
    [[nodiscard]] std::uint64_t tracked() const {
        std::uint64_t total = 0;
        for (const auto& [key, flow] : flows) total += flow.packets;
        return total;
    }
};

/// Feeds the same stream to the reference and, as wire datagrams, to the
/// constrained monitor.
void drive_both(const std::vector<StreamEvent>& events, ReferenceTable& reference,
                ConstrainedMonitor& constrained) {
    quic::PacketNumber pn = 0;
    for (const StreamEvent& event : events) {
        reference.on_event(event);
        constrained.on_datagram(at_us(event.time_us), short_packet(event.key, event.spin, pn++));
    }
}

/// The monitor's hex rendering of a raw 8-byte key.
std::string hex_key(std::uint64_t key) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(key));
    return hex;
}

/// Keys whose table slots are pairwise distinct (rejection sampling), so an
/// unbounded-configuration run is collision-free by construction.
std::vector<std::uint64_t> collision_free_keys(Rng& rng, const ConstrainedMonitor& monitor,
                                               std::size_t count) {
    std::vector<std::uint64_t> keys;
    std::vector<std::size_t> used;
    while (keys.size() < count) {
        const std::uint64_t key = rng.next();
        if (key == 0) continue;
        const std::size_t slot = monitor.slot_of(key);
        if (std::find(used.begin(), used.end(), slot) != used.end()) continue;
        used.push_back(slot);
        keys.push_back(key);
    }
    return keys;
}

// --- differential equivalence (constraints lifted) --------------------------

TEST(ConstrainedDifferential, UnboundedConfigMatchesFlowMonitorFlowForFlow) {
    ConstrainedConfig config;
    config.log2_slots = 18;  // 262144 slots for 64 flows: effectively unbounded
    config.eviction = EvictionPolicy::none;
    config.sample_every = 1;
    config.ewma_shift = 3;  // same 1/8 weight as the float path
    ConstrainedMonitor constrained{config};
    ReferenceTable idealized;

    Rng rng{0x5eed'd1ffULL};
    const auto keys = collision_free_keys(rng, constrained, 64);
    const auto events = interleaved_stream(rng, keys, 200);
    drive_both(events, idealized, constrained);
    // The third column: the batch measurement over each flow's packets.
    std::map<std::uint64_t, std::vector<SpinObservation>> received;
    for (const StreamEvent& event : events) {
        auto& packets = received[event.key];
        packets.push_back(SpinObservation{at_us(event.time_us), packets.size(), event.spin});
    }

    // No constraint fired: the table behaved as if unbounded.
    const ConstrainedTableCounters& t = constrained.counters();
    EXPECT_EQ(t.collisions, 0u);
    EXPECT_EQ(t.evictions, 0u);
    EXPECT_EQ(t.untracked, 0u);
    EXPECT_EQ(t.sampled_out, 0u);
    EXPECT_EQ(t.non_flow, 0u);
    EXPECT_EQ(t.offered, events.size());
    EXPECT_EQ(t.tracked, events.size());

    EXPECT_EQ(constrained.flow_count(), idealized.flows.size());
    ASSERT_EQ(constrained.flow_count(), keys.size());

    for (const std::uint64_t key : keys) {
        const ReferenceFlow* ideal = idealized.find(key);
        const auto hard = constrained.find_key(key);
        ASSERT_NE(ideal, nullptr);
        ASSERT_TRUE(hard.has_value());
        const SpinRttResult& spin = ideal->observer.result();
        const SpinRttResult batch = measure_spin_rtt(received[key], PacketOrder::received);
        // Integer-exact surface: acceptance decisions are int64 nanosecond
        // comparisons on both paths, so these must agree to the packet.
        EXPECT_EQ(hard->packets, ideal->packets);
        EXPECT_EQ(hard->edge_count, spin.edge_count);
        EXPECT_EQ(hard->samples, spin.samples_ms.size());
        EXPECT_EQ(hard->rejected_samples, ideal->observer.rejected_samples());
        EXPECT_EQ(hard->saw_zero, spin.saw_zero);
        EXPECT_EQ(hard->saw_one, spin.saw_one);
        // With no floor, the streaming observer keeps every batch sample.
        EXPECT_EQ(batch.edge_count, spin.edge_count);
        EXPECT_EQ(batch.samples_ms, spin.samples_ms);
        EXPECT_EQ(batch.saw_zero, spin.saw_zero);
        EXPECT_EQ(batch.saw_one, spin.saw_one);
        // Float-equivalent EWMA scaling: the integer estimate tracks the
        // float 7/8 EWMA of the accepted samples within the §14 precision
        // bound (~2 µs steady state; 10 µs leaves margin without masking
        // real divergence).
        EXPECT_EQ(hard->has_estimate, !spin.samples_ms.empty());
        if (hard->has_estimate) {
            double smoothed = spin.samples_ms.front();
            for (std::size_t i = 1; i < spin.samples_ms.size(); ++i) {
                smoothed = smoothed * 0.875 + spin.samples_ms[i] * 0.125;
            }
            EXPECT_NEAR(hard->srtt_ms(), smoothed, 0.010) << "flow key " << key;
        }
    }

    // Snapshot keying agrees too: the monitor renders the raw key as
    // lowercase hex, and finds every reference flow under that rendering.
    const auto hard_flows = constrained.flows();
    ASSERT_EQ(idealized.flows.size(), hard_flows.size());
    for (const auto& [key, flow] : idealized.flows) {
        EXPECT_TRUE(constrained.find(hex_key(key)).has_value()) << hex_key(key);
    }
}

TEST(ConstrainedDifferential, MinPlausibleRejectionIsIntegerExact) {
    ConstrainedConfig config;
    config.log2_slots = 12;
    config.min_plausible_rtt = Duration::millis(20);
    ConstrainedMonitor constrained{config};
    ReferenceTable idealized;
    idealized.config.min_plausible_rtt = Duration::millis(20);

    Rng rng{0x00ed'0e11ULL};
    const auto keys = collision_free_keys(rng, constrained, 16);
    // 1–10 ms gaps with flips every 1–5 packets: many intervals straddle the
    // 20 ms floor, exercising the accept/reject boundary on both paths.
    const auto events = interleaved_stream(rng, keys, 300);
    drive_both(events, idealized, constrained);

    std::size_t rejected_total = 0;
    for (const std::uint64_t key : keys) {
        const ReferenceFlow* ideal = idealized.find(key);
        const auto hard = constrained.find_key(key);
        ASSERT_NE(ideal, nullptr);
        ASSERT_TRUE(hard.has_value());
        EXPECT_EQ(hard->rejected_samples, ideal->observer.rejected_samples());
        EXPECT_EQ(hard->samples, ideal->observer.result().samples_ms.size());
        rejected_total += hard->rejected_samples;
    }
    EXPECT_GT(rejected_total, 0u);  // the floor actually fired
}

// --- seeded property sweep (collision-heavy universes) -----------------------

TEST(ConstrainedProperty, DeltaExplainedByCountersAcross10kCases) {
    // ~10k seeded cases over a 16-slot table and tiny key universes: heavy
    // collisions, all three eviction policies, all sampling rates. The
    // invariant: the constrained/idealized tracked-packet delta is exactly
    // the packets the counters say were sampled out or lost to collisions.
    constexpr int kCases = 10'000;
    constexpr EvictionPolicy kPolicies[] = {EvictionPolicy::none, EvictionPolicy::lru,
                                            EvictionPolicy::random};
    for (int c = 0; c < kCases; ++c) {
        Rng rng{util::derive_stream_seed(0xc011'ec7edULL, static_cast<std::uint64_t>(c))};
        ConstrainedConfig config;
        config.log2_slots = 4;  // 16 slots
        config.eviction = kPolicies[c % 3];
        config.sample_every = static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
        config.lru_idle_packets = 1 + rng.uniform_u64(16);
        ConstrainedMonitor constrained{config};
        ReferenceTable idealized;

        // Keys drawn from a universe of <= 24 values: far more flows than
        // distinct slots, so slot fights are the norm, not the exception.
        const std::size_t universe = 2 + rng.uniform_u64(22);
        std::vector<std::uint64_t> keys;
        keys.reserve(universe);
        for (std::size_t k = 0; k < universe; ++k) {
            keys.push_back(0x1000 + k);  // dense keys: hash quality is not the test
        }
        const auto events =
            interleaved_stream(rng, keys, static_cast<int>(2 + rng.uniform_u64(14)));
        drive_both(events, idealized, constrained);

        const ConstrainedTableCounters& t = constrained.counters();
        // Identity 1: every offered datagram lands in exactly one bucket.
        ASSERT_EQ(t.offered, t.non_flow + t.sampled_out + t.tracked + t.untracked)
            << "case " << c;
        // Identity 2: a collision either evicts or leaves the packet untracked.
        ASSERT_EQ(t.collisions, t.untracked + t.evictions) << "case " << c;
        // Identity 3: both monitors classify flow/non-flow identically.
        ASSERT_EQ(t.non_flow, idealized.non_flow) << "case " << c;
        ASSERT_EQ(t.offered, events.size()) << "case " << c;
        // Identity 4 (the differential): packets the idealized monitor
        // tracked but the constrained one did not are EXACTLY the sampled-out
        // plus collision-untracked ones. Eviction losses do not appear here —
        // an evicting packet is still tracked (by the usurping flow).
        ASSERT_EQ(idealized.tracked() - t.tracked, t.sampled_out + t.untracked)
            << "case " << c;
        // The table can never hold more flows than slots or than exist.
        ASSERT_LE(constrained.flow_count(), std::size_t{16}) << "case " << c;
        ASSERT_LE(constrained.flow_count(), idealized.flows.size()) << "case " << c;
    }
}

// --- eviction policies -------------------------------------------------------

/// A key != `resident` hashing onto the same slot.
std::uint64_t colliding_key(const ConstrainedMonitor& monitor, std::uint64_t resident) {
    const std::size_t target = monitor.slot_of(resident);
    for (std::uint64_t candidate = 1;; ++candidate) {
        if (candidate != resident && monitor.slot_of(candidate) == target) return candidate;
    }
}

TEST(ConstrainedEviction, DropNewKeepsResident) {
    ConstrainedConfig config;
    config.log2_slots = 4;
    config.eviction = EvictionPolicy::none;
    ConstrainedMonitor monitor{config};

    const std::uint64_t resident = 0xaaaa;
    const std::uint64_t intruder = colliding_key(monitor, resident);
    monitor.on_datagram(at_us(0), short_packet(resident, false, 0));
    monitor.on_datagram(at_us(1'000), short_packet(intruder, true, 1));

    EXPECT_EQ(monitor.counters().collisions, 1u);
    EXPECT_EQ(monitor.counters().untracked, 1u);
    EXPECT_EQ(monitor.counters().evictions, 0u);
    EXPECT_TRUE(monitor.find_key(resident).has_value());
    EXPECT_FALSE(monitor.find_key(intruder).has_value());
}

TEST(ConstrainedEviction, LruEvictsIdleResidentOnly) {
    ConstrainedConfig config;
    config.log2_slots = 4;
    config.eviction = EvictionPolicy::lru;
    config.lru_idle_packets = 4;
    ConstrainedMonitor monitor{config};

    const std::uint64_t resident = 0xbbbb;
    const std::uint64_t intruder = colliding_key(monitor, resident);
    monitor.on_datagram(at_us(0), short_packet(resident, false, 0));

    // Fresh resident: the intruder must be dropped, not the resident.
    monitor.on_datagram(at_us(1'000), short_packet(intruder, true, 1));
    EXPECT_EQ(monitor.counters().untracked, 1u);
    EXPECT_TRUE(monitor.find_key(resident).has_value());

    // Let the resident go idle past the threshold (other, non-colliding
    // traffic advances the packet clock), then collide again: now it is
    // evicted and the intruder takes the slot.
    std::uint64_t filler = 0x1'0000;
    int sent = 0;
    while (sent < 6) {
        ++filler;
        if (monitor.slot_of(filler) == monitor.slot_of(resident)) continue;
        monitor.on_datagram(at_us(2'000 + sent * 100), short_packet(filler, false, 2));
        ++sent;
    }
    monitor.on_datagram(at_us(10'000), short_packet(intruder, true, 3));
    EXPECT_EQ(monitor.counters().evictions, 1u);
    EXPECT_FALSE(monitor.find_key(resident).has_value());
    EXPECT_TRUE(monitor.find_key(intruder).has_value());
    EXPECT_EQ(monitor.counters().collisions,
              monitor.counters().untracked + monitor.counters().evictions);
}

TEST(ConstrainedEviction, RandomReplacementIsDeterministicPerStream) {
    const auto run_once = [] {
        ConstrainedConfig config;
        config.log2_slots = 3;  // 8 slots
        config.eviction = EvictionPolicy::random;
        ConstrainedMonitor monitor{config};
        Rng rng{0x7a2d'0123ULL};
        std::vector<std::uint64_t> keys;
        for (std::uint64_t k = 0; k < 40; ++k) keys.push_back(0x2000 + k);
        const auto events = interleaved_stream(rng, keys, 12);
        ReferenceTable idealized;
        ConstrainedMonitor constrained = std::move(monitor);
        drive_both(events, idealized, constrained);
        return constrained.counters();
    };
    const ConstrainedTableCounters a = run_once();
    const ConstrainedTableCounters b = run_once();
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.untracked, b.untracked);
    EXPECT_EQ(a.tracked, b.tracked);
    EXPECT_GT(a.evictions, 0u);  // the coin actually lands on both sides
    EXPECT_GT(a.untracked, 0u);
    EXPECT_EQ(a.collisions, a.untracked + a.evictions);
}

// --- sampling ----------------------------------------------------------------

TEST(ConstrainedSampling, OneInNCountsSkippedPacketsAndTouchesNoSlot) {
    ConstrainedConfig config;
    config.log2_slots = 8;
    config.sample_every = 3;
    ConstrainedMonitor monitor{config};

    for (int p = 0; p < 30; ++p) {
        monitor.on_datagram(at_us(p * 10'000), short_packet(0xcccc, (p / 3) % 2 == 1, 0));
    }
    const ConstrainedTableCounters& t = monitor.counters();
    EXPECT_EQ(t.offered, 30u);
    EXPECT_EQ(t.tracked, 10u);
    EXPECT_EQ(t.sampled_out, 20u);
    const auto stats = monitor.find_key(0xcccc);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->packets, 10u);
}

// --- adversarial robustness (monitor and reference side by side) -------------

/// Runs one corpus through monitor and reference and asserts the shared sanity
/// contract: identical flow/non-flow classification and the accounting
/// identity — i.e. no adversarial datagram is ever double-counted or
/// counted as tracked without being a well-formed short-header packet.
void adversarial_sweep(const std::vector<std::vector<std::uint8_t>>& corpus) {
    ConstrainedConfig config;
    config.log2_slots = 6;
    config.eviction = EvictionPolicy::lru;
    config.lru_idle_packets = 8;
    ConstrainedMonitor constrained{config};
    ReferenceTable idealized;
    std::int64_t t_us = 0;
    for (const auto& datagram : corpus) {
        ++t_us;
        idealized.on_datagram(at_us(t_us), datagram);
        constrained.on_datagram(at_us(t_us), datagram);
    }
    const ConstrainedTableCounters& t = constrained.counters();
    EXPECT_EQ(t.offered, corpus.size());
    EXPECT_EQ(t.offered, t.non_flow + t.sampled_out + t.tracked + t.untracked);
    EXPECT_EQ(t.collisions, t.untracked + t.evictions);
    EXPECT_EQ(t.non_flow, idealized.non_flow);
    EXPECT_EQ(idealized.tracked() - t.tracked, t.sampled_out + t.untracked);
}

TEST(ConstrainedRobustness, SurvivesRandomJunkCorpus) {
    // The codec-fuzz generator of test_quic_robustness: random buffers of
    // 1..80 bytes. Some will parse as short headers — the identity above
    // checks they are then counted consistently by monitor and reference.
    Rng fuzz{0xfeed'beefULL};
    std::vector<std::vector<std::uint8_t>> corpus;
    corpus.reserve(20'000);
    for (int i = 0; i < 20'000; ++i) {
        std::vector<std::uint8_t> junk(fuzz.uniform_u64(80) + 1);
        for (auto& byte : junk) byte = static_cast<std::uint8_t>(fuzz.next());
        corpus.push_back(std::move(junk));
    }
    adversarial_sweep(corpus);
}

TEST(ConstrainedRobustness, TruncatedAndDegenerateDatagramsAreNonFlow) {
    std::vector<std::vector<std::uint8_t>> corpus = {
        {},                  // empty
        {0x40},              // short header flag, no DCID at all
        {0x40, 0x01},        // truncated DCID
        {0x00, 0x00},        // fixed bit clear: not QUIC v1
        {0xc0},              // long header flag, nothing else
        {0x40, 1, 2, 3, 4, 5, 6, 7},  // one byte short of an 8-byte DCID
    };
    ConstrainedMonitor constrained{ConstrainedConfig{}};
    ReferenceTable idealized;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        idealized.on_datagram(at_us(static_cast<std::int64_t>(i)), corpus[i]);
        constrained.on_datagram(at_us(static_cast<std::int64_t>(i)), corpus[i]);
    }
    EXPECT_EQ(constrained.counters().non_flow, corpus.size());
    EXPECT_EQ(constrained.counters().tracked, 0u);
    EXPECT_EQ(constrained.flow_count(), 0u);
    EXPECT_EQ(idealized.non_flow, corpus.size());
    EXPECT_EQ(idealized.flows.size(), 0u);
}

TEST(ConstrainedRobustness, LongHeaderOnlyCorpusIsNeverTracked) {
    std::vector<std::vector<std::uint8_t>> corpus;
    for (std::uint64_t i = 0; i < 64; ++i) {
        quic::PacketHeader header;
        header.type = i % 2 == 0 ? quic::PacketType::initial : quic::PacketType::handshake;
        header.dcid = quic::ConnectionId::from_u64(0x4000 + i);
        header.scid = quic::ConnectionId::from_u64(0x8000 + i);
        header.packet_number = i;
        std::vector<std::uint8_t> wire;
        const std::vector<std::uint8_t> payload{0x01};
        quic::encode_packet(wire, header, payload, quic::kInvalidPacketNumber);
        corpus.push_back(std::move(wire));
    }
    ConstrainedMonitor constrained{ConstrainedConfig{}};
    ReferenceTable idealized;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        idealized.on_datagram(at_us(static_cast<std::int64_t>(i)), corpus[i]);
        constrained.on_datagram(at_us(static_cast<std::int64_t>(i)), corpus[i]);
    }
    EXPECT_EQ(constrained.counters().tracked, 0u);
    EXPECT_EQ(constrained.counters().non_flow, corpus.size());
    EXPECT_EQ(idealized.flows.size(), 0u);
}

// --- heuristics and real traffic ---------------------------------------------

TEST(FlowMonitor, FindUnknownFlow) {
    ConstrainedMonitor monitor{ConstrainedConfig{}};
    EXPECT_FALSE(monitor.find("deadbeef00000000").has_value());
}

TEST(ConstrainedMonitor, HeuristicsApplyPerFlow) {
    ConstrainedConfig config;
    config.min_plausible_rtt = Duration::millis(5);
    ConstrainedMonitor monitor{config};
    monitor.on_datagram(at_us(0), short_packet(0x1, false, 0));
    monitor.on_datagram(at_us(40'000), short_packet(0x1, true, 1));
    monitor.on_datagram(at_us(41'000), short_packet(0x1, false, 2));  // 1 ms -> rejected
    monitor.on_datagram(at_us(80'000), short_packet(0x1, true, 3));
    monitor.on_datagram(at_us(85'000), short_packet(0x1, false, 4));  // 5 ms: at the floor
    const auto flow = monitor.find("0000000000000001");
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(flow->edge_count, 4u);
    EXPECT_EQ(flow->rejected_samples, 1u);
    // The first edge (40 ms) only starts the clock. The samples kept are
    // 39 ms and 5 ms: srtt = 39'000 + (5'000 - 39'000) / 8, in integer µs.
    EXPECT_EQ(flow->samples, 2u);
    EXPECT_EQ(flow->srtt_us, 34'750);
}

TEST(ConstrainedMonitor, TracksRealConnectionsThroughSharedTap) {
    // Two concurrent QUIC connections through one monitored link.
    netsim::Simulator sim;
    util::Rng rng{11};
    ConstrainedMonitor monitor;

    struct Run {
        std::unique_ptr<netsim::Path> path;
        std::unique_ptr<quic::Connection> client;
        std::unique_ptr<quic::Connection> server;
    };
    std::vector<Run> runs;
    for (int i = 0; i < 2; ++i) {
        Run run;
        netsim::LinkConfig link;
        link.base_delay = Duration::millis(10 + i * 25);
        run.path = std::make_unique<netsim::Path>(sim, link, link, rng);
        run.path->return_link().add_tap(monitor.tap());
        quic::ConnectionConfig ccfg;
        ccfg.role = quic::Role::client;
        ccfg.spin = {quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
        run.client = std::make_unique<quic::Connection>(
            sim, ccfg, rng.fork(static_cast<std::uint64_t>(i) * 2 + 1),
            [path = run.path.get()](netsim::Datagram dg) {
                path->forward_link().send(std::move(dg));
            });
        quic::ConnectionConfig scfg;
        scfg.role = quic::Role::server;
        scfg.spin = {quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
        run.server = std::make_unique<quic::Connection>(
            sim, scfg, rng.fork(static_cast<std::uint64_t>(i) * 2 + 2),
            [path = run.path.get()](netsim::Datagram dg) {
                path->return_link().send(std::move(dg));
            });
        run.path->forward_link().set_receiver(
            [server = run.server.get()](spinscope::bytes::ConstByteSpan dg) {
                server->on_datagram(dg);
            });
        run.path->return_link().set_receiver(
            [client = run.client.get()](spinscope::bytes::ConstByteSpan dg) {
                client->on_datagram(dg);
            });
        run.server->on_stream_complete = [server = run.server.get()](
                                             std::uint64_t, std::span<const std::uint8_t>) {
            server->send_stream(0, std::vector<std::uint8_t>(60'000, 1), true);
        };
        run.client->on_handshake_complete = [client = run.client.get()] {
            client->send_stream(0, std::vector<std::uint8_t>(100, 2), true);
        };
        run.client->connect();
        runs.push_back(std::move(run));
    }
    sim.run_until(TimePoint::origin() + Duration::seconds(10));

    // The monitor demuxed (at least) the two 1-RTT flows and measured
    // plausible RTTs for both.
    EXPECT_GE(monitor.flow_count(), 2u);
    int measured = 0;
    for (const auto& [key, stats] : monitor.flows()) {
        if (!stats.has_estimate) continue;
        ++measured;
        EXPECT_GT(stats.srtt_ms(), 15.0);
        EXPECT_LT(stats.srtt_ms(), 200.0);
    }
    EXPECT_GE(measured, 2);
}

// --- metamorphic edge relations ---------------------------------------------
//
// Relations the spin edge rule must obey whatever the stream, checked through
// all three of its consumers: measure_spin_rtt, SpinEdgeObserver and a
// ConstrainedMonitor slot.

constexpr std::uint64_t kFlow = 0x5b1d;

/// One flow in received order: whole-microsecond times (so the monitor's
/// integer microseconds stay exact), 1–10 ms gaps, value runs of 1–4 packets.
std::vector<SpinObservation> random_flow(std::uint64_t seed) {
    Rng rng{seed};
    std::vector<SpinObservation> packets;
    std::int64_t t_us = static_cast<std::int64_t>(rng.uniform_u64(5'000));
    bool spin = rng.coin();
    for (quic::PacketNumber pn = 0; pn < 120; ++pn) {
        if (rng.uniform_u64(3) == 0) spin = !spin;
        t_us += 1'000 + static_cast<std::int64_t>(rng.uniform_u64(9'000));
        packets.push_back(SpinObservation{at_us(t_us), pn, spin});
    }
    return packets;
}

/// What each consumer reports for one flow.
struct EdgeReadings {
    SpinRttResult batch;
    SpinRttResult streaming;
    ConstrainedFlowStats table;
};

EdgeReadings read_edges(const std::vector<SpinObservation>& packets,
                        ConstrainedConfig config = {}) {
    SpinEdgeObserver observer;
    ConstrainedMonitor monitor{config};
    for (const SpinObservation& packet : packets) {
        observer.on_packet(packet);
        monitor.on_datagram(packet.time, short_packet(kFlow, packet.spin, packet.packet_number));
    }
    return {measure_spin_rtt(packets, PacketOrder::received), observer.result(),
            monitor.find_key(kFlow).value_or(ConstrainedFlowStats{})};
}

/// Samples back in integer nanoseconds.
std::vector<std::int64_t> sample_ns(const SpinRttResult& result) {
    std::vector<std::int64_t> out;
    for (const double ms : result.samples_ms) out.push_back(Duration::from_ms(ms).count_nanos());
    return out;
}

std::vector<SpinObservation> transformed(std::vector<SpinObservation> packets,
                                         std::int64_t scale, Duration shift, bool complement) {
    for (SpinObservation& packet : packets) {
        packet.time = TimePoint::from_nanos(packet.time.count_nanos() * scale) + shift;
        packet.spin = packet.spin != complement;
    }
    return packets;
}

TEST(SpinEdgeMetamorphic, ShiftingEveryTimestampLeavesSamplesUnchanged) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto packets = random_flow(seed);
        const EdgeReadings base = read_edges(packets);
        ASSERT_GT(base.batch.samples_ms.size(), 10u);
        // Forward, and back past the origin: no edge time is a sentinel.
        for (const Duration shift : {Duration::nanos(987'654'321), Duration::seconds(-3600)}) {
            const EdgeReadings moved = read_edges(transformed(packets, 1, shift, false));
            EXPECT_EQ(moved.batch.samples_ms, base.batch.samples_ms) << "seed " << seed;
            EXPECT_EQ(moved.streaming.samples_ms, base.streaming.samples_ms) << "seed " << seed;
            EXPECT_EQ(moved.table.edge_count, base.table.edge_count) << "seed " << seed;
            EXPECT_EQ(moved.table.samples, base.table.samples) << "seed " << seed;
            EXPECT_EQ(moved.table.srtt_us, base.table.srtt_us) << "seed " << seed;
        }
    }
}

TEST(SpinEdgeMetamorphic, ScalingTimeByKScalesEveryIntervalByK) {
    // Shift 0: the register holds the latest accepted interval, in µs.
    ConstrainedConfig config;
    config.ewma_shift = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto packets = random_flow(seed);
        const EdgeReadings base = read_edges(packets, config);
        for (const std::int64_t k : {2, 7, 1000}) {
            const EdgeReadings scaled =
                read_edges(transformed(packets, k, Duration::zero(), false), config);
            for (const auto& [before, after] :
                 {std::pair{&base.batch, &scaled.batch},
                  std::pair{&base.streaming, &scaled.streaming}}) {
                auto expected = sample_ns(*before);
                for (auto& ns : expected) ns *= k;
                EXPECT_EQ(sample_ns(*after), expected) << "seed " << seed << " k " << k;
                EXPECT_EQ(after->edge_count, before->edge_count);
            }
            EXPECT_EQ(scaled.table.edge_count, base.table.edge_count);
            EXPECT_EQ(scaled.table.samples, base.table.samples);
            EXPECT_EQ(scaled.table.srtt_us, base.table.srtt_us * k) << "seed " << seed;
        }
    }
}

TEST(SpinEdgeMetamorphic, ComplementingEverySpinValueLeavesEdgesUnchanged) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto packets = random_flow(seed);
        const EdgeReadings base = read_edges(packets);
        const EdgeReadings flipped =
            read_edges(transformed(packets, 1, Duration::zero(), true));
        for (const auto& [before, after] :
             {std::pair{&base.batch, &flipped.batch},
              std::pair{&base.streaming, &flipped.streaming}}) {
            EXPECT_EQ(after->edge_count, before->edge_count) << "seed " << seed;
            EXPECT_EQ(after->samples_ms, before->samples_ms) << "seed " << seed;
            EXPECT_EQ(after->saw_zero, before->saw_one);
            EXPECT_EQ(after->saw_one, before->saw_zero);
        }
        EXPECT_EQ(flipped.table.edge_count, base.table.edge_count);
        EXPECT_EQ(flipped.table.samples, base.table.samples);
        EXPECT_EQ(flipped.table.srtt_us, base.table.srtt_us);
        EXPECT_EQ(flipped.table.spin_candidate(), base.table.spin_candidate());
    }
}

TEST(SpinEdgeMetamorphic, ConstantStreamsHaveNoEdgesAndAUniformClass) {
    for (const bool value : {false, true}) {
        auto packets = random_flow(7);
        for (SpinObservation& packet : packets) packet.spin = value;
        const EdgeReadings readings = read_edges(packets);
        const SpinEdgeState states[] = {readings.batch, readings.streaming, readings.table};
        for (const SpinEdgeState& state : states) {
            EXPECT_EQ(state.edge_count, 0u);
            EXPECT_FALSE(state.spin_candidate());
            EXPECT_EQ(state.saw_one, value);
            EXPECT_EQ(state.saw_zero, !value);
        }
        EXPECT_TRUE(readings.batch.samples_ms.empty());
        EXPECT_TRUE(readings.streaming.samples_ms.empty());
        EXPECT_EQ(readings.table.samples, 0u);

        qlog::Trace trace;
        for (const SpinObservation& packet : packets) {
            trace.record_received({packet.time, quic::PacketType::one_rtt,
                                   packet.packet_number, packet.spin, 100, true});
        }
        trace.metrics.rtt_samples_ms = {20.0};
        EXPECT_EQ(assess_connection(trace).behavior,
                  value ? SpinBehavior::all_one : SpinBehavior::all_zero);
    }
}

// --- config validation -------------------------------------------------------

TEST(ConstrainedConfigValidation, RejectsNonsensicalBudgets) {
    ConstrainedConfig config;
    config.log2_slots = 0;
    EXPECT_THROW(ConstrainedMonitor{config}, std::invalid_argument);
    config = ConstrainedConfig{};
    config.log2_slots = 25;
    EXPECT_THROW(ConstrainedMonitor{config}, std::invalid_argument);
    config = ConstrainedConfig{};
    config.sample_every = 0;
    EXPECT_THROW(ConstrainedMonitor{config}, std::invalid_argument);
    config = ConstrainedConfig{};
    config.ewma_shift = 16;
    EXPECT_THROW(ConstrainedMonitor{config}, std::invalid_argument);
    config = ConstrainedConfig{};
    config.dcid_length = 0;
    EXPECT_THROW(ConstrainedMonitor{config}, std::invalid_argument);
    config = ConstrainedConfig{};
    config.eviction = EvictionPolicy::lru;
    config.lru_idle_packets = 0;
    EXPECT_THROW(ConstrainedMonitor{config}, std::invalid_argument);
}

TEST(ConstrainedConfigValidation, DefaultsAreValid) {
    EXPECT_NO_THROW(ConstrainedConfig{}.validate());
    ConstrainedMonitor monitor{ConstrainedConfig{}};
    EXPECT_EQ(monitor.slot_count(), std::size_t{1} << 16);
    EXPECT_EQ(monitor.flow_count(), 0u);
}

}  // namespace
}  // namespace spinscope::core
