// Unit tests for qlog trace recording and JSON-lines round-tripping.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "qlog/trace.hpp"

namespace spinscope::qlog {
namespace {

Trace sample_trace() {
    Trace trace;
    trace.host = "www.example.com";
    trace.ip = "10.1.2.3";
    trace.version = quic::Version::v1;
    trace.outcome = ConnectionOutcome::ok;
    trace.record_sent({TimePoint::from_nanos(1'000'000), quic::PacketType::initial, 0, false,
                       1200, true});
    trace.record_sent({TimePoint::from_nanos(2'500'000), quic::PacketType::one_rtt, 1, true,
                       60, true});
    trace.record_received({TimePoint::from_nanos(2'000'000), quic::PacketType::handshake, 0,
                           false, 40, true});
    trace.record_received({TimePoint::from_nanos(3'000'000), quic::PacketType::one_rtt, 2,
                           true, 1200, false});
    trace.metrics.rtt_samples_ms = {10.5, 11.25};
    trace.metrics.min_rtt_ms = 10.5;
    trace.metrics.smoothed_rtt_ms = 10.9;
    trace.metrics.packets_lost = 1;
    trace.metrics.packets_sent = 2;
    trace.metrics.packets_received = 2;
    return trace;
}

TEST(Qlog, ReceivedOneRttFilter) {
    const auto trace = sample_trace();
    const auto one_rtt = trace.received_one_rtt();
    ASSERT_EQ(one_rtt.size(), 1u);
    EXPECT_EQ(one_rtt[0].packet_number, 2u);
    EXPECT_TRUE(one_rtt[0].spin);
}

TEST(Qlog, JsonlRoundTrip) {
    const auto trace = sample_trace();
    const auto text = to_jsonl(trace);
    const auto parsed = parse_jsonl(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->host, trace.host);
    EXPECT_EQ(parsed->ip, trace.ip);
    EXPECT_EQ(parsed->version, trace.version);
    EXPECT_EQ(parsed->outcome, trace.outcome);
    ASSERT_EQ(parsed->sent.size(), 2u);
    ASSERT_EQ(parsed->received.size(), 2u);
    EXPECT_EQ(parsed->sent[1].type, quic::PacketType::one_rtt);
    EXPECT_TRUE(parsed->sent[1].spin);
    EXPECT_EQ(parsed->sent[1].size, 60u);
    EXPECT_TRUE(parsed->sent[1].ack_eliciting);
    EXPECT_EQ(parsed->received[0].time.count_nanos(), 2'000'000);
    ASSERT_EQ(parsed->metrics.rtt_samples_ms.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed->metrics.rtt_samples_ms[1], 11.25);
    EXPECT_EQ(parsed->metrics.packets_lost, 1u);
}

TEST(Qlog, IntegerFieldsRoundTripExactly) {
    // Every integer field must survive to_jsonl/parse_jsonl bit for bit,
    // including values above 2^53 that a double cannot hold.
    constexpr std::uint64_t kTwo60Plus1 = (std::uint64_t{1} << 60) + 1;
    constexpr quic::PacketNumber kMaxQuicPn = (std::uint64_t{1} << 62) - 1;
    Trace trace;
    trace.host = "big.example";
    trace.ip = "192.0.2.77";
    trace.version = static_cast<quic::Version>(0xffffffffu);
    trace.outcome = ConnectionOutcome::watchdog_cancelled;
    trace.record_sent({TimePoint::from_nanos(static_cast<std::int64_t>(kTwo60Plus1)),
                       quic::PacketType::one_rtt, kMaxQuicPn, true, 0xffffffffu, true, 255});
    trace.record_sent({TimePoint::from_nanos(std::numeric_limits<std::int64_t>::max()),
                       quic::PacketType::one_rtt, std::numeric_limits<std::uint64_t>::max(),
                       false, 0, false, 0});
    trace.record_received({TimePoint::from_nanos(std::numeric_limits<std::int64_t>::min()),
                           quic::PacketType::handshake, (std::uint64_t{1} << 53) + 1, false,
                           1, true, 7});
    trace.metrics.packets_lost = kTwo60Plus1;
    trace.metrics.packets_sent = std::numeric_limits<std::uint64_t>::max();
    trace.metrics.packets_received = (std::uint64_t{1} << 53) + 1;
    trace.events_truncated = kTwo60Plus1;

    const auto parsed = parse_jsonl(to_jsonl(trace));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->version, trace.version);
    EXPECT_EQ(parsed->events_truncated, kTwo60Plus1);
    ASSERT_EQ(parsed->sent.size(), 2u);
    ASSERT_EQ(parsed->received.size(), 1u);
    EXPECT_EQ(parsed->sent[0].time.count_nanos(), static_cast<std::int64_t>(kTwo60Plus1));
    EXPECT_EQ(parsed->sent[0].packet_number, kMaxQuicPn);
    EXPECT_EQ(parsed->sent[0].size, 0xffffffffu);
    EXPECT_EQ(parsed->sent[0].vec, 255u);
    EXPECT_EQ(parsed->sent[1].time.count_nanos(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parsed->sent[1].packet_number, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parsed->received[0].time.count_nanos(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parsed->received[0].packet_number, (std::uint64_t{1} << 53) + 1);
    EXPECT_EQ(parsed->metrics.packets_lost, kTwo60Plus1);
    EXPECT_EQ(parsed->metrics.packets_sent, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parsed->metrics.packets_received, (std::uint64_t{1} << 53) + 1);
}

TEST(Qlog, EscapesQuotesInHost) {
    Trace trace;
    trace.host = "we\"ird\\host";
    trace.ip = "1.2.3.4";
    trace.outcome = ConnectionOutcome::aborted;
    const auto parsed = parse_jsonl(to_jsonl(trace));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->host, trace.host);
}

TEST(Qlog, AllOutcomesRoundTrip) {
    for (const auto outcome : {ConnectionOutcome::ok, ConnectionOutcome::handshake_timeout,
                               ConnectionOutcome::aborted}) {
        Trace trace;
        trace.host = "h";
        trace.ip = "i";
        trace.outcome = outcome;
        const auto parsed = parse_jsonl(to_jsonl(trace));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->outcome, outcome);
    }
}

TEST(Qlog, ParseRejectsGarbage) {
    EXPECT_FALSE(parse_jsonl("").has_value());
    EXPECT_FALSE(parse_jsonl("not json at all\n").has_value());
    EXPECT_FALSE(parse_jsonl("{\"qlog\":\"spinscope\",\"host\":\"h\"}\n").has_value());
}

TEST(Qlog, ParseRejectsBadEvent) {
    Trace trace;
    trace.host = "h";
    trace.ip = "i";
    std::string text = to_jsonl(trace);
    text += "{\"ev\":\"sent\",\"t\":broken}\n";
    EXPECT_FALSE(parse_jsonl(text).has_value());
}

TEST(Qlog, ParseRejectsEveryTruncationAndNonCanonicalField) {
    const std::string text = to_jsonl(sample_trace());
    ASSERT_TRUE(parse_jsonl(text).has_value());
    for (std::size_t n = 0; n < text.size(); ++n) {
        EXPECT_FALSE(parse_jsonl(text.substr(0, n)).has_value()) << n;
    }
    const auto with = [&](std::string_view from, std::string_view to) {
        std::string edited = text;
        const auto at = edited.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return edited.replace(at, from.size(), to);
    };
    EXPECT_FALSE(parse_jsonl(text + "\n").has_value());
    EXPECT_FALSE(parse_jsonl(with("\"pn\":1,", "\"pn\":01,")).has_value());
    EXPECT_FALSE(parse_jsonl(with("\"pn\":1,", "\"pn\":1.0,")).has_value());
    EXPECT_FALSE(parse_jsonl(with("\"spin\":1", "\"spin\":2")).has_value());
    EXPECT_FALSE(parse_jsonl(with("\"vec\":0}", "\"vec\":256}")).has_value());
    EXPECT_FALSE(parse_jsonl(with("\"min_rtt_ms\":10.500000", "\"min_rtt_ms\":10.5")).has_value());
    // Sent events precede received ones, as to_jsonl writes them.
    const auto first_recv = text.find("{\"ev\":\"recv\"");
    const auto metrics = text.find("{\"metrics\"");
    const std::string recv_lines = text.substr(first_recv, metrics - first_recv);
    const auto first_sent = text.find("{\"ev\":\"sent\"");
    std::string reordered = text;
    reordered.erase(first_recv, recv_lines.size());
    reordered.insert(first_sent, recv_lines);
    EXPECT_FALSE(parse_jsonl(reordered).has_value());
}

TEST(Qlog, EventBuffersAreBoundedAndTruncationRoundTrips) {
    Trace trace;
    trace.host = "flood.example";
    trace.ip = "192.0.2.9";
    PacketEvent ev;
    ev.type = quic::PacketType::one_rtt;
    for (std::size_t i = 0; i < kMaxTraceEventsPerDirection + 10; ++i) {
        ev.packet_number = i;
        trace.record_sent(ev);
    }
    for (std::size_t i = 0; i < 5; ++i) {
        ev.packet_number = i;
        trace.record_received(ev);
    }
    EXPECT_EQ(trace.sent.size(), kMaxTraceEventsPerDirection);
    EXPECT_EQ(trace.received.size(), 5u);
    EXPECT_EQ(trace.events_truncated, 10u);
    // The last recorded event is the one that arrived at the cap boundary —
    // truncation drops the overflow, it does not evict earlier events.
    EXPECT_EQ(trace.sent.back().packet_number, kMaxTraceEventsPerDirection - 1);

    const auto parsed = parse_jsonl(to_jsonl(trace));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->events_truncated, 10u);
    EXPECT_EQ(parsed->sent.size(), kMaxTraceEventsPerDirection);
}

TEST(Qlog, UntruncatedTraceSerializationIsUnchanged) {
    Trace trace;
    trace.host = "plain.example";
    trace.ip = "192.0.2.10";
    // events_truncated == 0 must not appear in the serialization at all:
    // golden fixtures from before the cap existed stay byte-identical.
    EXPECT_EQ(to_jsonl(trace).find("truncated"), std::string::npos);
    const auto parsed = parse_jsonl(to_jsonl(trace));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->events_truncated, 0u);
}

TEST(Qlog, EmptyTraceRoundTrips) {
    Trace trace;
    trace.host = "empty.example";
    trace.ip = "192.0.2.1";
    trace.outcome = ConnectionOutcome::handshake_timeout;
    const auto parsed = parse_jsonl(to_jsonl(trace));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->sent.empty());
    EXPECT_TRUE(parsed->received.empty());
    EXPECT_TRUE(parsed->metrics.rtt_samples_ms.empty());
}

}  // namespace
}  // namespace spinscope::qlog
