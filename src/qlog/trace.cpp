#include "qlog/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

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
                   ConnectionOutcome::protocol_error, ConnectionOutcome::watchdog_cancelled}) {
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

std::vector<PacketEvent> Trace::received_one_rtt() const {
    std::vector<PacketEvent> out;
    std::copy_if(received.begin(), received.end(), std::back_inserter(out),
                 [](const PacketEvent& ev) { return ev.type == quic::PacketType::one_rtt; });
    return out;
}

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

}  // namespace spinscope::qlog
