#include "telemetry/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/atomic_file.hpp"
#include "util/text_cursor.hpp"

namespace spinscope::telemetry {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

void append_double(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "0";  // JSON has no inf/nan; metrics should never produce them
        return;
    }
    char buf[40];
    // %.9g round-trips every value these metrics produce (ms timings, byte
    // counts) and stays compact for integers.
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += buf;
}

void append_quoted(std::string& out, const std::string& s) {
    out.push_back('"');
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    out.push_back('"');
}

[[nodiscard]] std::string format_value(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return buf;
}

}  // namespace

std::string to_json(const MetricsRegistry& registry) {
    std::string out = "{\"schema\":\"spinscope-telemetry-v1\"";

    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, counter] : registry.counters()) {
        if (!first) out.push_back(',');
        first = false;
        append_quoted(out, name);
        out.push_back(':');
        append_u64(out, counter->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, gauge] : registry.gauges()) {
        if (!first) out.push_back(',');
        first = false;
        append_quoted(out, name);
        out.push_back(':');
        append_double(out, gauge->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, hist] : registry.histograms()) {
        if (!first) out.push_back(',');
        first = false;
        append_quoted(out, name);
        out += ":{\"count\":";
        append_u64(out, hist->count());
        out += ",\"sum\":";
        append_double(out, hist->sum());
        out += ",\"min\":";
        append_double(out, hist->min());
        out += ",\"max\":";
        append_double(out, hist->max());
        out += ",\"spec\":{\"min_value\":";
        append_double(out, hist->spec().min_value);
        out += ",\"factor\":";
        append_double(out, hist->spec().factor);
        out += ",\"buckets\":";
        append_u64(out, hist->spec().bucket_count);
        out += "},\"bucket_counts\":[";
        const auto& buckets = hist->buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (i > 0) out.push_back(',');
            append_u64(out, buckets[i]);
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

bool is_chunk_geometry_metric(const std::string& name) {
    // trace.* recorder bookkeeping counts wall lanes and per-worker events,
    // which vary with thread scheduling and lane geometry just like the
    // pool's hit/miss split varies with chunking.
    return name.rfind("bytes.pool", 0) == 0 || name.rfind("trace.", 0) == 0;
}

bool is_recovery_metric(const std::string& name) {
    // obs.* resource observations (RSS, allocation traffic, phase wall time)
    // describe THIS host run, not the scan results — like the recovery
    // counters, a resumed run necessarily reports different values even
    // though its scan output is byte-identical.
    return name.rfind("campaign.", 0) == 0 || name.rfind("obs.", 0) == 0;
}

bool is_wall_clock_metric(const std::string& name) {
    if (name.find(".phase.") != std::string::npos) return true;
    static constexpr char kPerSec[] = "_per_sec";
    constexpr std::size_t kPerSecLen = sizeof(kPerSec) - 1;
    return name.size() >= kPerSecLen &&
           name.compare(name.size() - kPerSecLen, kPerSecLen, kPerSec) == 0;
}

std::string deterministic_csv(const MetricsRegistry& registry) {
    std::string out = "kind,name,field,value\n";
    auto row = [&out](const char* kind, const std::string& name, const std::string& field,
                      const std::string& value) {
        out += kind;
        out.push_back(',');
        out += name;
        out.push_back(',');
        out += field;
        out.push_back(',');
        out += value;
        out.push_back('\n');
    };
    const auto excluded = [](const std::string& name) {
        return is_wall_clock_metric(name) || is_chunk_geometry_metric(name) ||
               is_recovery_metric(name);
    };
    for (const auto& [name, counter] : registry.counters()) {
        if (excluded(name)) continue;
        std::string v;
        append_u64(v, counter->value());
        row("counter", name, "value", v);
    }
    for (const auto& [name, gauge] : registry.gauges()) {
        if (excluded(name)) continue;
        row("gauge", name, "value", format_value(gauge->value()));
    }
    for (const auto& [name, hist] : registry.histograms()) {
        if (excluded(name)) continue;
        std::string count;
        append_u64(count, hist->count());
        row("histogram", name, "count", count);
        // A histogram's sum regroups its floating-point additions when the
        // shard chunking changes; only the merge-exact fields are kept
        // (count, min, max, buckets).
        row("histogram", name, "min", format_value(hist->min()));
        row("histogram", name, "max", format_value(hist->max()));
        const auto& buckets = hist->buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (buckets[i] == 0) continue;  // sparse: empty buckets are implied
            std::string v;
            append_u64(v, buckets[i]);
            row("histogram", name, "bucket_ge_" + format_value(hist->bucket_lower_bound(i)), v);
        }
    }
    return out;
}

bool write_json_file(const MetricsRegistry& registry, const std::string& path) {
    return util::write_file_atomic(path, to_json(registry) + "\n");
}

namespace {

/// %.17g: the shortest format guaranteed to round-trip every IEEE-754
/// double through from_chars exactly — snapshot values must survive a
/// write/parse cycle bit for bit, not just "close enough".
void append_exact_double(std::string& out, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

/// A metric name: the bytes up to the next space (names hold no
/// whitespace), then that space.
bool read_name(util::TextCursor& in, std::string_view& name) {
    name = in.until(' ');
    return !name.empty() && name.find('\n') == std::string_view::npos && in.literal(' ');
}

/// ' ' then a %.17g double.
bool read_double(util::TextCursor& in, double& out) {
    return in.literal(' ') && in.number(out, std::chars_format::general);
}

bool read_histogram(util::TextCursor& in, MetricsRegistry& registry, std::string_view name) {
    HistogramSpec spec;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    if (!in.number(spec.min_value, std::chars_format::general) ||
        !read_double(in, spec.factor) || !in.literal(' ') || !in.integer(spec.bucket_count) ||
        !in.literal(' ') || !in.integer(count) || !read_double(in, sum) ||
        !read_double(in, min) || !read_double(in, max)) {
        return false;
    }
    if (!(spec.min_value > 0.0) || !(spec.factor > 1.0) || spec.bucket_count == 0 ||
        spec.bucket_count > 4096) {
        return false;
    }
    std::vector<std::uint64_t> buckets(spec.bucket_count);
    for (auto& bucket : buckets) {
        if (!in.literal(' ') || !in.integer(bucket)) return false;
    }
    if (!in.literal('\n')) return false;
    try {
        registry.histogram(name, spec).restore(count, sum, min, max, buckets);
    } catch (const std::invalid_argument&) {
        return false;
    }
    return true;
}

}  // namespace

std::string snapshot(const MetricsRegistry& registry) {
    std::string out;
    for (const auto& [name, counter] : registry.counters()) {
        out += "counter ";
        out += name;
        out.push_back(' ');
        append_u64(out, counter->value());
        out.push_back('\n');
    }
    for (const auto& [name, gauge] : registry.gauges()) {
        out += "gauge ";
        out += name;
        out += gauge->has_value() ? " 1 " : " 0 ";
        append_exact_double(out, gauge->value());
        out.push_back('\n');
    }
    for (const auto& [name, hist] : registry.histograms()) {
        out += "hist ";
        out += name;
        out.push_back(' ');
        append_exact_double(out, hist->spec().min_value);
        out.push_back(' ');
        append_exact_double(out, hist->spec().factor);
        out.push_back(' ');
        append_u64(out, hist->spec().bucket_count);
        out.push_back(' ');
        append_u64(out, hist->count());
        out.push_back(' ');
        append_exact_double(out, hist->sum());
        out.push_back(' ');
        // Internal min_/max_ are only meaningful when count > 0; min()/max()
        // already normalize the empty case to 0, which restore() re-applies.
        append_exact_double(out, hist->min());
        out.push_back(' ');
        append_exact_double(out, hist->max());
        for (const auto bucket : hist->buckets()) {
            out.push_back(' ');
            append_u64(out, bucket);
        }
        out.push_back('\n');
    }
    return out;
}

std::optional<MetricsRegistry> parse_snapshot(std::string_view text) {
    MetricsRegistry registry;
    util::TextCursor in{text};
    // snapshot() walks the three name-sorted maps in turn: the kind never
    // steps back and names strictly ascend within a kind.
    int kind = 0;
    std::string_view previous;
    while (!in.done()) {
        const int line_kind = in.literal("counter ") ? 0
                              : in.literal("gauge ") ? 1
                              : in.literal("hist ")  ? 2
                                                     : -1;
        std::string_view name;
        if (line_kind < kind || !read_name(in, name)) return std::nullopt;
        if (line_kind > kind) {
            kind = line_kind;
            previous = {};
        }
        if (name <= previous) return std::nullopt;
        previous = name;
        if (line_kind == 0) {
            std::uint64_t value = 0;
            if (!in.integer(value) || !in.literal('\n')) return std::nullopt;
            registry.counter(name).add(value);
        } else if (line_kind == 1) {
            bool has_value = false;
            double value = 0.0;
            if (!in.flag(has_value) || !read_double(in, value) || !in.literal('\n')) {
                return std::nullopt;
            }
            // A never-set gauge is registered but keeps has_value() false, so
            // a later merge_from treats it exactly like the original.
            Gauge& gauge = registry.gauge(name);
            if (has_value) gauge.set(value);
        } else if (!read_histogram(in, registry, name)) {
            return std::nullopt;
        }
    }
    return registry;
}

}  // namespace spinscope::telemetry
