// Unit tests for qlog trace recording, JSON-lines round-tripping and the
// journal's binary trace form.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bytes/cursor.hpp"
#include "qlog/trace.hpp"
#include "util/rng.hpp"

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
    std::vector<PacketEvent> one_rtt;
    std::copy_if(trace.received.begin(), trace.received.end(), std::back_inserter(one_rtt),
                 [](const PacketEvent& ev) { return ev.type == quic::PacketType::one_rtt; });
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
    trace.outcome = ConnectionOutcome::protocol_error;
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

// --- Binary form -------------------------------------------------------------

std::string binary_of(const Trace& trace) {
    std::vector<std::uint8_t> out;
    bytes::ByteWriter writer{out};
    write_binary(writer, trace);
    return {out.begin(), out.end()};
}

/// The trace `bytes` hold, all of them, or nullopt.
std::optional<Trace> read_back(std::string_view bytes) {
    bytes::ByteReader in{bytes::byte_view(bytes)};
    Trace trace;
    if (!read_binary(in, trace) || !in.done()) return std::nullopt;
    return trace;
}

/// Bit-identical, except that any two NaNs of the same sign match (to_jsonl
/// prints only the sign of a NaN).
bool same_value(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) {
        return std::isnan(a) && std::isnan(b) && std::signbit(a) == std::signbit(b);
    }
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A trace at the edges of every field: control bytes in the host, a
/// negative timestamp, packet numbers and sizes at their type's limits, a VEC
/// past the flags byte, and RTT values that are non-finite, below a
/// microsecond, on six-decimal rounding ties, or too large for nanoseconds.
Trace edge_trace() {
    Trace trace = sample_trace();
    trace.host = "www.\x01odd\"host\x1f";
    trace.version = static_cast<quic::Version>(0xff00001d);
    trace.events_truncated = std::numeric_limits<std::uint64_t>::max();
    trace.record_received({TimePoint::from_nanos(-5), quic::PacketType::one_rtt,
                           std::numeric_limits<std::uint64_t>::max(), true,
                           std::numeric_limits<std::uint32_t>::max(), true, 255});
    trace.record_sent({TimePoint::from_nanos(std::numeric_limits<std::int64_t>::min()),
                       quic::PacketType::version_negotiation, 0, false, 0, false, 63});
    trace.metrics.packets_lost = std::numeric_limits<std::uint64_t>::max();
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    trace.metrics.min_rtt_ms = 4e-7;
    trace.metrics.smoothed_rtt_ms = -0.0;
    trace.metrics.rtt_samples_ms = {0.0,    4e-7,           5e-7,          6e-7,
                                    1.5e-6, 2.5e-6,         0.0000125,     -2e-7,
                                    10.5,   123.4567894,    -3.25,         inf,
                                    -inf,   nan,            -nan,          8589934591.999,
                                    8589934592.0, 1e15,     -1e300,        DBL_MAX,
                                    DBL_TRUE_MIN, -DBL_TRUE_MIN,
                                    0.0078125,    0.0234375,    // 7812.5 and 23437.5 ns:
                                    1.0 + 0.0078125};           // exact ties printf rounds to even
    return trace;
}

/// RTT samples at every magnitude a double has below 2^40 ms, a tenth of
/// them exact half-nanosecond ties.
Trace random_rtt_trace() {
    util::Rng rng{0x5EED};
    Trace trace;
    for (int i = 0; i < 20'000; ++i) {
        const double mantissa = rng.uniform_double(1.0, 2.0);
        double ms = std::ldexp(mantissa, static_cast<int>(rng.uniform_u64(80)) - 40);
        if (i % 10 == 0) ms = std::ldexp(static_cast<double>(2 * rng.uniform_u64(1 << 20) + 1), -7);
        trace.metrics.rtt_samples_ms.push_back(i % 3 == 0 ? -ms : ms);
    }
    return trace;
}

TEST(Qlog, BinaryFormKeepsExactlyWhatJsonlPrints) {
    for (const Trace& trace : {sample_trace(), edge_trace(), random_rtt_trace(), Trace{}}) {
        const std::string jsonl = to_jsonl(trace);
        const auto oracle = parse_jsonl(jsonl);
        ASSERT_TRUE(oracle.has_value()) << jsonl;
        const std::string binary = binary_of(trace);
        const auto decoded = read_back(binary);
        ASSERT_TRUE(decoded.has_value()) << jsonl;
        EXPECT_EQ(to_jsonl(*decoded), jsonl);
        EXPECT_EQ(decoded->host, oracle->host);
        EXPECT_TRUE(same_value(decoded->metrics.min_rtt_ms, oracle->metrics.min_rtt_ms));
        EXPECT_TRUE(same_value(decoded->metrics.smoothed_rtt_ms, oracle->metrics.smoothed_rtt_ms));
        ASSERT_EQ(decoded->metrics.rtt_samples_ms.size(), oracle->metrics.rtt_samples_ms.size());
        for (std::size_t i = 0; i < oracle->metrics.rtt_samples_ms.size(); ++i) {
            EXPECT_TRUE(same_value(decoded->metrics.rtt_samples_ms[i],
                                   oracle->metrics.rtt_samples_ms[i]))
                << i << ": " << decoded->metrics.rtt_samples_ms[i] << " vs "
                << oracle->metrics.rtt_samples_ms[i];
        }
        // The decoded trace is a fixed point: it writes the same bytes.
        EXPECT_EQ(binary_of(*decoded), binary);
        // Every cut is refused (the sweep is quadratic: small traces only).
        for (std::size_t n = 0; n < binary.size() && binary.size() < 4096; ++n) {
            EXPECT_FALSE(read_back(std::string_view{binary}.substr(0, n)).has_value()) << n;
        }
    }
    // A sub-microsecond RTT keeps the six decimals to_jsonl prints.
    EXPECT_EQ(read_back(binary_of(edge_trace()))->metrics.min_rtt_ms, 0.0);
}

TEST(Qlog, BinaryReaderRejectsWhatTheWriterNeverEmits) {
    Trace trace;
    trace.host = "h";
    const std::string plain = binary_of(trace);
    ASSERT_TRUE(read_back(plain).has_value());
    // host "h" is its length byte and the byte itself; a control byte there
    // is one to_jsonl would have dropped.
    ASSERT_EQ(plain.substr(0, 2), "\x01h");
    EXPECT_FALSE(read_back(std::string{plain}.replace(1, 1, "\n")).has_value());
    EXPECT_FALSE(read_back(plain + '\0').has_value()) << "trailing byte";

    // RTT codes: sign bit, then 0 infinity, 1 NaN, 2 raw bits, 3 + n nanos.
    const auto with_min_rtt = [&](const std::string& code) {
        std::string bytes = binary_of(trace);
        // min_rtt 0.0 is code 6 (kind 3, n = 0); it is the byte after the
        // two empty event arrays.
        const std::size_t at = bytes.find(std::string("\x00\x00\x06", 3));
        EXPECT_NE(at, std::string::npos);
        return bytes.replace(at + 2, 1, code);
    };
    EXPECT_TRUE(read_back(with_min_rtt("\x07")).has_value()) << "-0.0";
    EXPECT_TRUE(read_back(with_min_rtt(std::string(1, '\0'))).has_value()) << "inf";
    EXPECT_TRUE(read_back(with_min_rtt("\x03")).has_value()) << "-nan";
    // Raw bits only for magnitudes from 2^33 ms on, with a matching sign.
    const auto raw = [](double v, std::uint8_t code) {
        std::vector<std::uint8_t> out;
        bytes::ByteWriter writer{out};
        writer.u8(code);
        writer.f64(v);
        return std::string{out.begin(), out.end()};
    };
    EXPECT_TRUE(read_back(with_min_rtt(raw(1e10, 4))).has_value());
    EXPECT_FALSE(read_back(with_min_rtt(raw(1.5, 4))).has_value());
    EXPECT_FALSE(read_back(with_min_rtt(raw(-1e10, 4))).has_value());
    EXPECT_FALSE(read_back(with_min_rtt(raw(std::numeric_limits<double>::infinity(), 4)))
                     .has_value());
    // n nanoseconds only below 2^33 ms: 2^33 * 1e6 + 3 needs the raw form.
    std::vector<std::uint8_t> big;
    bytes::ByteWriter big_writer{big};
    big_writer.uvarint((8589934592000000ULL + 3) << 1);
    EXPECT_FALSE(read_back(with_min_rtt({big.begin(), big.end()})).has_value());

    // A VEC in the flags byte's escape must need it.
    Trace vec;
    vec.record_received({TimePoint::from_nanos(0), quic::PacketType::one_rtt, 0, false, 0,
                         false, 63});
    std::string escaped = binary_of(vec);
    const std::size_t flags_at = escaped.find(static_cast<char>(63 << 2));
    ASSERT_NE(flags_at, std::string::npos);
    ASSERT_EQ(escaped[flags_at + 1], '\x3f');
    ASSERT_TRUE(read_back(escaped).has_value());
    escaped[flags_at + 1] = '\x3e';
    EXPECT_FALSE(read_back(escaped).has_value());
}

/// Events whose dt, dpn and size each take a 1-, 2-, 4- and 8-byte varint
/// (the others one byte), the 14-byte event with all three at four bytes,
/// and VECs around the flags byte's escape, cycling through the packet types.
std::vector<PacketEvent> boundary_events() {
    // A delta of each width after zigzag (dt, dpn) or as is (size).
    const std::int64_t deltas[] = {-5, 900, -40'000'000, 5'000'000'000'000};
    const std::uint32_t sizes[] = {40, 1200, 100'000, 3'000'000'000};
    struct Shape {
        std::int64_t dt;
        std::int64_t dpn;
        std::uint32_t size;
        std::uint8_t vec;
    };
    std::vector<Shape> shapes;
    for (int w = 0; w < 4; ++w) {
        shapes.push_back({deltas[w], 1, sizes[0], 0});
        shapes.push_back({3, deltas[w], sizes[0], 1});
        shapes.push_back({3, 1, sizes[w], 2});
    }
    shapes.push_back({deltas[2], deltas[2], sizes[2], 62});
    shapes.push_back({deltas[1], deltas[1], sizes[1], 63});
    shapes.push_back({deltas[2], deltas[2], sizes[2], 200});
    shapes.push_back({deltas[3], deltas[3], sizes[3], 255});
    std::vector<PacketEvent> events;
    std::int64_t time = 0;
    std::uint64_t pn = 0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        time += shapes[i].dt;
        pn += static_cast<std::uint64_t>(shapes[i].dpn);
        events.push_back({TimePoint::from_nanos(time), static_cast<quic::PacketType>(i % 6), pn,
                          i % 2 == 0, shapes[i].size, i % 3 == 0, shapes[i].vec});
    }
    return events;
}

bool same_events(const std::vector<PacketEvent>& a, const std::vector<PacketEvent>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const PacketEvent& x, const PacketEvent& y) {
                          return x.time == y.time && x.type == y.type &&
                                 x.packet_number == y.packet_number && x.spin == y.spin &&
                                 x.size == y.size && x.ack_eliciting == y.ack_eliciting &&
                                 x.vec == y.vec;
                      });
}

/// read_back() from a heap block of exactly the input's size, so a sanitizer
/// build reports any read past its end.
std::optional<Trace> read_back_exact(std::string_view bytes) {
    const std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
    bytes::ByteReader in{copy};
    Trace trace;
    if (!read_binary(in, trace) || !in.done()) return std::nullopt;
    return trace;
}

// The event reader takes every event with at least 14 bytes behind it in one
// bounds check and leaves the rest — the last bytes of the input, 8-byte
// varints, the VEC escape — to the checked reads. Both must decode the same
// bytes to the same event, and accept exactly the writer's form.
TEST(Qlog, EventsDecodeAlikeAtEveryVarintWidthAndAtTheEndOfTheInput) {
    const std::vector<PacketEvent> events = boundary_events();
    // Early in `sent`, every event has the rest of the trace behind it; as the
    // last event of `received`, only the six bytes of empty metrics follow,
    // so it ends within the last 13 bytes of the input.
    for (std::size_t n = 1; n <= events.size(); ++n) {
        Trace trace;
        trace.sent = events;
        trace.received.assign(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(n));
        const std::string binary = binary_of(trace);
        const auto decoded = read_back_exact(binary);
        ASSERT_TRUE(decoded.has_value()) << n;
        EXPECT_TRUE(same_events(decoded->sent, trace.sent)) << n;
        EXPECT_TRUE(same_events(decoded->received, trace.received)) << n;
        EXPECT_EQ(to_jsonl(*decoded), to_jsonl(trace)) << n;
    }
    // Every cut is refused, and every byte changed to any other value is
    // refused or re-encodes to exactly the changed bytes.
    Trace trace;
    trace.sent = events;
    trace.received = events;
    const std::string binary = binary_of(trace);
    ASSERT_LT(binary.size(), 1024u);
    for (std::size_t n = 0; n < binary.size(); ++n) {
        EXPECT_FALSE(read_back_exact(std::string_view{binary}.substr(0, n)).has_value()) << n;
    }
    int accepted = 0;
    for (std::size_t at = 0; at < binary.size(); ++at) {
        for (unsigned flip = 1; flip < 256; ++flip) {
            std::string mutant = binary;
            mutant[at] = static_cast<char>(static_cast<unsigned char>(mutant[at]) ^ flip);
            const auto decoded = read_back_exact(mutant);
            if (!decoded) continue;
            ++accepted;
            ASSERT_EQ(binary_of(*decoded), mutant) << "byte " << at << " ^ " << flip;
        }
    }
    EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace spinscope::qlog
