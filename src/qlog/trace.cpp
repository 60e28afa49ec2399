#include "qlog/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bytes/cursor.hpp"
#include "util/text_cursor.hpp"

namespace spinscope::qlog {

namespace {

// Minimal JSON helpers for the fixed spinscope schema. The writer emits a
// deterministic field order; the reader is a strict single-pass reader of
// exactly that form (on-disk traces are external input, so every read is
// bounds-checked and anything else is rejected).

void append_escaped(std::string& out, const std::string& s) {
    out.push_back('"');
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out.push_back(c);
        }
    }
    out.push_back('"');
}

const char* packet_type_token(quic::PacketType t) { return quic::to_cstring(t); }

std::optional<quic::PacketType> packet_type_from(std::string_view token) {
    using quic::PacketType;
    for (auto t : {PacketType::initial, PacketType::zero_rtt, PacketType::handshake,
                   PacketType::retry, PacketType::one_rtt, PacketType::version_negotiation}) {
        if (token == packet_type_token(t)) return t;
    }
    return std::nullopt;
}

std::optional<ConnectionOutcome> outcome_from(std::string_view token) {
    for (auto o : {ConnectionOutcome::ok, ConnectionOutcome::handshake_timeout,
                   ConnectionOutcome::aborted, ConnectionOutcome::attempt_timeout,
                   ConnectionOutcome::protocol_error}) {
        if (token == to_cstring(o)) return o;
    }
    return std::nullopt;
}

void append_event(std::string& out, const char* kind, const PacketEvent& ev) {
    out += "{\"ev\":\"";
    out += kind;
    out += "\",\"t\":" + std::to_string(ev.time.count_nanos());
    out += ",\"type\":\"";
    out += packet_type_token(ev.type);
    out += "\",\"pn\":" + std::to_string(ev.packet_number);
    out += ",\"spin\":" + std::to_string(ev.spin ? 1 : 0);
    out += ",\"size\":" + std::to_string(ev.size);
    out += ",\"elicit\":" + std::to_string(ev.ack_eliciting ? 1 : 0);
    out += ",\"vec\":" + std::to_string(ev.vec);
    out += "}\n";
}

/// Reads an append_escaped() string: '"', bytes >= 0x20 with '"' and '\\'
/// backslash-escaped, '"'.
bool read_escaped(util::TextCursor& in, std::string& out) {
    if (!in.literal('"')) return false;
    const std::string_view rest = in.rest();
    for (std::size_t i = 0; i < rest.size(); ++i) {
        char c = rest[i];
        if (c == '"') {
            in.skip(i + 1);
            return true;
        }
        if (static_cast<unsigned char>(c) < 0x20) return false;
        if (c == '\\') {
            if (++i == rest.size() || (rest[i] != '"' && rest[i] != '\\')) return false;
            c = rest[i];
        }
        out.push_back(c);
    }
    return false;
}

/// Reads a `"token"` and maps it through `from`.
template <typename T>
bool read_enum(util::TextCursor& in, std::optional<T> (*from)(std::string_view), T& out) {
    if (!in.literal('"')) return false;
    const auto value = from(in.until('"'));
    if (!value || !in.literal('"')) return false;
    out = *value;
    return true;
}

/// Reads a std::to_string(double): fixed notation with six decimals, or a
/// non-finite token.
bool read_fixed6(util::TextCursor& in, double& out) {
    const std::string_view start = in.rest();
    if (!in.number(out, std::chars_format::fixed)) return false;
    const std::size_t n = start.size() - in.rest().size();
    return !std::isfinite(out) ||
           (n >= 8 && start[n - 7] == '.' && start[n - 8] >= '0' && start[n - 8] <= '9');
}

/// Reads one append_event() line after its `{"ev":"<kind>",` prefix.
bool read_event(util::TextCursor& in, PacketEvent& ev) {
    std::int64_t t = 0;
    if (!in.literal("\"t\":") || !in.integer(t) || !in.literal(",\"type\":") ||
        !read_enum(in, packet_type_from, ev.type) || !in.literal(",\"pn\":") ||
        !in.integer(ev.packet_number) || !in.literal(",\"spin\":") || !in.flag(ev.spin) ||
        !in.literal(",\"size\":") || !in.integer(ev.size) || !in.literal(",\"elicit\":") ||
        !in.flag(ev.ack_eliciting) || !in.literal(",\"vec\":") || !in.integer(ev.vec) ||
        !in.literal("}\n")) {
        return false;
    }
    ev.time = TimePoint::from_nanos(t);
    return true;
}

bool read_events(util::TextCursor& in, std::string_view prefix,
                 std::vector<PacketEvent>& out) {
    while (in.literal(prefix)) {
        if (!read_event(in, out.emplace_back())) return false;
    }
    return true;
}

}  // namespace

std::string to_jsonl(const Trace& trace) {
    std::string out;
    out += "{\"qlog\":\"spinscope\",\"host\":";
    append_escaped(out, trace.host);
    out += ",\"ip\":";
    append_escaped(out, trace.ip);
    out += ",\"version\":" + std::to_string(static_cast<std::uint32_t>(trace.version));
    out += ",\"outcome\":\"";
    out += to_cstring(trace.outcome);
    out += "\"";
    // Only pathological traces carry a truncation count; omitting the field
    // when 0 keeps historical traces (and golden fixtures) byte-identical.
    if (trace.events_truncated != 0) {
        out += ",\"truncated\":" + std::to_string(trace.events_truncated);
    }
    out += "}\n";
    for (const auto& ev : trace.sent) append_event(out, "sent", ev);
    for (const auto& ev : trace.received) append_event(out, "recv", ev);
    out += "{\"metrics\":1,\"min_rtt_ms\":" + std::to_string(trace.metrics.min_rtt_ms);
    out += ",\"srtt_ms\":" + std::to_string(trace.metrics.smoothed_rtt_ms);
    out += ",\"lost\":" + std::to_string(trace.metrics.packets_lost);
    out += ",\"sent\":" + std::to_string(trace.metrics.packets_sent);
    out += ",\"recv\":" + std::to_string(trace.metrics.packets_received);
    out += ",\"rtt_samples_ms\":[";
    for (std::size_t i = 0; i < trace.metrics.rtt_samples_ms.size(); ++i) {
        if (i != 0) out += ",";
        out += std::to_string(trace.metrics.rtt_samples_ms[i]);
    }
    out += "]}\n";
    return out;
}

std::optional<Trace> parse_jsonl(std::string_view text) {
    util::TextCursor in{text};
    Trace trace;
    std::uint32_t version = 0;
    if (!in.literal("{\"qlog\":\"spinscope\",\"host\":") || !read_escaped(in, trace.host) ||
        !in.literal(",\"ip\":") || !read_escaped(in, trace.ip) ||
        !in.literal(",\"version\":") || !in.integer(version) ||
        !in.literal(",\"outcome\":") || !read_enum(in, outcome_from, trace.outcome)) {
        return std::nullopt;
    }
    trace.version = static_cast<quic::Version>(version);
    // The writer omits a zero truncation count.
    if (in.literal(",\"truncated\":") &&
        (!in.integer(trace.events_truncated) || trace.events_truncated == 0)) {
        return std::nullopt;
    }
    if (!in.literal("}\n") || !read_events(in, "{\"ev\":\"sent\",", trace.sent) ||
        !read_events(in, "{\"ev\":\"recv\",", trace.received)) {
        return std::nullopt;
    }

    RecoveryMetrics& m = trace.metrics;
    if (!in.literal("{\"metrics\":1,\"min_rtt_ms\":") || !read_fixed6(in, m.min_rtt_ms) ||
        !in.literal(",\"srtt_ms\":") || !read_fixed6(in, m.smoothed_rtt_ms) ||
        !in.literal(",\"lost\":") || !in.integer(m.packets_lost) ||
        !in.literal(",\"sent\":") || !in.integer(m.packets_sent) ||
        !in.literal(",\"recv\":") || !in.integer(m.packets_received) ||
        !in.literal(",\"rtt_samples_ms\":[")) {
        return std::nullopt;
    }
    if (!in.literal(']')) {
        do {
            if (!read_fixed6(in, m.rtt_samples_ms.emplace_back())) return std::nullopt;
        } while (in.literal(','));
        if (!in.literal(']')) return std::nullopt;
    }
    if (!in.literal("}\n") || !in.done()) return std::nullopt;
    return trace;
}

// ---------------------------------------------------------------------------
// Binary form

namespace {

using bytes::ByteReader;
using bytes::ByteWriter;

[[nodiscard]] bool is_control(char c) { return static_cast<unsigned char>(c) < 0x20; }

/// Host and ip as to_jsonl keeps them: without control bytes.
void write_name(ByteWriter& out, const std::string& name) {
    if (std::none_of(name.begin(), name.end(), is_control)) return out.text(name);
    std::string kept;
    std::remove_copy_if(name.begin(), name.end(), std::back_inserter(kept), is_control);
    out.text(kept);
}

[[nodiscard]] bool read_name(ByteReader& in, std::string& out) {
    const auto name = in.text();
    if (!name || std::any_of(name->begin(), name->end(), is_control)) return false;
    out.assign(*name);
    return true;
}

/// From 2^33 ms on, a double is coarser than a nanosecond, so six decimals
/// give it back unchanged; below, n nanoseconds stay under 2^53 and n / 1e6
/// is exactly the double parse_jsonl reads from the printed decimals.
constexpr double kRawRttFrom = 8589934592.0;

/// `ms` (finite, 0 <= ms < kRawRttFrom) to six decimals, as std::to_string
/// prints it, in nanoseconds.
[[nodiscard]] std::uint64_t six_decimal_nanos(double ms) {
    const double nanos = std::nearbyint(ms * 1e6);
    // The exact residual, rounded once: when it is below half a nanosecond,
    // `nanos` is the nearest integer and so what printf's %.6f shows. Ties
    // and near-ties ask printf itself.
    if (std::fabs(std::fma(ms, 1e6, -nanos)) < 0.5) return static_cast<std::uint64_t>(nanos);
    char digits[32];
    std::snprintf(digits, sizeof digits, "%.6f", ms);
    std::uint64_t n = 0;
    for (const char* p = digits; *p != '\0'; ++p) {
        if (*p != '.') n = n * 10 + static_cast<std::uint64_t>(*p - '0');
    }
    return n;
}

/// An RTT value as one uvarint: bit 0 is the sign, the rest a kind —
/// 0 infinity, 1 NaN, 2 the IEEE bits follow (|ms| >= kRawRttFrom), 3 + n
/// for n nanoseconds, the six decimals std::to_string prints.
void write_rtt(ByteWriter& out, double ms) {
    const std::uint64_t negative = std::signbit(ms) ? 1 : 0;
    if (std::isinf(ms)) return out.uvarint(negative);
    if (std::isnan(ms)) return out.uvarint(2 | negative);
    if (std::fabs(ms) >= kRawRttFrom) {
        out.uvarint(4 | negative);
        return out.f64(ms);
    }
    out.uvarint(((six_decimal_nanos(std::fabs(ms)) + 3) << 1) | negative);
}

[[nodiscard]] bool read_rtt(ByteReader& in, double& ms) {
    const auto code = in.uvarint();
    if (!code) return false;
    const bool negative = (*code & 1) != 0;
    const std::uint64_t kind = *code >> 1;
    double magnitude = 0.0;
    if (kind == 0) {
        magnitude = std::numeric_limits<double>::infinity();
    } else if (kind == 1) {
        magnitude = std::numeric_limits<double>::quiet_NaN();
    } else if (kind == 2) {
        const auto raw = in.f64();
        if (!raw || std::signbit(*raw) != negative || !std::isfinite(*raw) ||
            std::fabs(*raw) < kRawRttFrom) {
            return false;
        }
        magnitude = std::fabs(*raw);
    } else {
        magnitude = static_cast<double>(kind - 3) / 1e6;
        if (magnitude >= kRawRttFrom) return false;
    }
    ms = negative ? -magnitude : magnitude;
    return true;
}

/// vec values from here on follow the flags byte in a byte of their own.
constexpr unsigned kVecEscape = 63;

void write_events(ByteWriter& out, const std::vector<PacketEvent>& events) {
    out.uvarint(events.size());
    std::uint64_t time = 0;
    std::uint64_t pn = 0;
    for (const PacketEvent& ev : events) {
        const unsigned vec = std::min<unsigned>(ev.vec, kVecEscape);
        out.u8(static_cast<std::uint8_t>(ev.type));
        out.u8(static_cast<std::uint8_t>((ev.spin ? 1U : 0U) | (ev.ack_eliciting ? 2U : 0U) |
                                         vec << 2));
        if (vec == kVecEscape) out.u8(ev.vec);
        const auto t = static_cast<std::uint64_t>(ev.time.count_nanos());
        out.svarint(static_cast<std::int64_t>(t - time));
        out.svarint(static_cast<std::int64_t>(ev.packet_number - pn));
        out.integer(ev.size);
        time = t;
        pn = ev.packet_number;
    }
}

/// One write_events() event into `ev`, each field through the checked
/// readers; `time` and `pn` are the previous event's, advanced to this one's.
[[nodiscard]] bool read_event(ByteReader& in, PacketEvent& ev, std::uint64_t& time,
                              std::uint64_t& pn) {
    const auto type = in.u8();
    const auto flags = in.u8();
    if (!type || *type > static_cast<std::uint8_t>(quic::PacketType::version_negotiation) ||
        !flags) {
        return false;
    }
    ev.type = static_cast<quic::PacketType>(*type);
    ev.spin = (*flags & 1) != 0;
    ev.ack_eliciting = (*flags & 2) != 0;
    ev.vec = static_cast<std::uint8_t>(*flags >> 2);
    if (ev.vec == kVecEscape) {
        const auto vec = in.u8();
        if (!vec || *vec < kVecEscape) return false;
        ev.vec = *vec;
    }
    const auto dt = in.svarint();
    const auto dpn = in.svarint();
    if (!dt || !dpn || !in.integer(ev.size)) return false;
    time += static_cast<std::uint64_t>(*dt);
    pn += static_cast<std::uint64_t>(*dpn);
    ev.time = TimePoint::from_nanos(static_cast<std::int64_t>(time));
    ev.packet_number = pn;
    return true;
}

/// The longest event read_event_fast() decodes: type, flags, and dt, dpn and
/// size as 4-byte varints.
constexpr std::size_t kMaxFastEvent = 14;

/// The minimal 1-, 2- or 4-byte varint at `p` into `v`, returning its width;
/// 0 for an 8-byte or overlong one, which only the checked reader decides.
[[nodiscard]] inline std::size_t fast_varint(const std::uint8_t* p, std::uint64_t& v) noexcept {
    switch (p[0] >> 6) {
        case 0:
            v = p[0];
            return 1;
        case 1:
            v = (std::uint64_t{p[0] & 0x3fU} << 8) | p[1];
            return v >= 0x40 ? 2 : 0;
        case 2:
            v = (std::uint64_t{p[0] & 0x3fU} << 24) | (std::uint64_t{p[1]} << 16) |
                (std::uint64_t{p[2]} << 8) | p[3];
            return v >= 0x4000 ? 4 : 0;
        default:
            return 0;
    }
}

/// read_event() with one bounds check for the whole event, when at least
/// kMaxFastEvent bytes remain: the fields are read straight from the bytes.
/// False, with nothing consumed, for anything else — the last bytes of the
/// input, a bad type, the VEC escape, an 8-byte or overlong varint — so
/// read_event() decides those and the accepted inputs stay its own.
[[nodiscard]] bool read_event_fast(ByteReader& in, PacketEvent& ev, std::uint64_t& time,
                                   std::uint64_t& pn) {
    if (in.remaining() < kMaxFastEvent) return false;
    const std::uint8_t* p = in.peek_rest().data();
    const unsigned vec = p[1] >> 2U;
    if (p[0] > static_cast<std::uint8_t>(quic::PacketType::version_negotiation) ||
        vec == kVecEscape) {
        return false;
    }
    std::uint64_t dt = 0;
    std::uint64_t dpn = 0;
    std::uint64_t size = 0;
    std::size_t at = 2;
    const auto field = [&](std::uint64_t& v) {
        const std::size_t width = fast_varint(p + at, v);
        at += width;
        return width != 0;
    };
    if (!field(dt) || !field(dpn) || !field(size)) return false;
    ev.type = static_cast<quic::PacketType>(p[0]);
    ev.spin = (p[1] & 1U) != 0;
    ev.ack_eliciting = (p[1] & 2U) != 0;
    ev.vec = static_cast<std::uint8_t>(vec);
    ev.size = static_cast<std::uint32_t>(size);
    time += static_cast<std::uint64_t>(bytes::unzigzag(dt));
    pn += static_cast<std::uint64_t>(bytes::unzigzag(dpn));
    ev.time = TimePoint::from_nanos(static_cast<std::int64_t>(time));
    ev.packet_number = pn;
    in.skip(at);
    return true;
}

[[nodiscard]] bool read_events(ByteReader& in, std::vector<PacketEvent>& out) {
    const auto count = in.count();
    if (!count) return false;
    out.resize(*count);
    std::uint64_t time = 0;
    std::uint64_t pn = 0;
    for (PacketEvent& ev : out) {
        if (!read_event_fast(in, ev, time, pn) && !read_event(in, ev, time, pn)) return false;
    }
    return true;
}

}  // namespace

void write_binary(ByteWriter& out, const Trace& trace) {
    write_name(out, trace.host);
    write_name(out, trace.ip);
    out.integer(static_cast<std::uint32_t>(trace.version));
    out.u8(static_cast<std::uint8_t>(trace.outcome));
    out.integer(trace.events_truncated);
    write_events(out, trace.sent);
    write_events(out, trace.received);
    const RecoveryMetrics& m = trace.metrics;
    write_rtt(out, m.min_rtt_ms);
    write_rtt(out, m.smoothed_rtt_ms);
    out.integer(m.packets_lost);
    out.integer(m.packets_sent);
    out.integer(m.packets_received);
    out.uvarint(m.rtt_samples_ms.size());
    for (const double sample : m.rtt_samples_ms) write_rtt(out, sample);
}

bool read_binary(ByteReader& in, Trace& out) {
    std::uint32_t version = 0;
    if (!read_name(in, out.host) || !read_name(in, out.ip) || !in.integer(version)) return false;
    const auto outcome = in.u8();
    if (!outcome || *outcome >= kConnectionOutcomeCount || !in.integer(out.events_truncated) ||
        !read_events(in, out.sent) || !read_events(in, out.received)) {
        return false;
    }
    out.version = static_cast<quic::Version>(version);
    out.outcome = static_cast<ConnectionOutcome>(*outcome);
    RecoveryMetrics& m = out.metrics;
    if (!read_rtt(in, m.min_rtt_ms) || !read_rtt(in, m.smoothed_rtt_ms) ||
        !in.integer(m.packets_lost) || !in.integer(m.packets_sent) ||
        !in.integer(m.packets_received)) {
        return false;
    }
    const auto samples = in.count();
    if (!samples) return false;
    m.rtt_samples_ms.resize(*samples);
    for (double& sample : m.rtt_samples_ms) {
        if (!read_rtt(in, sample)) return false;
    }
    return true;
}

}  // namespace spinscope::qlog
