#include "telemetry/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/atomic_file.hpp"
#include "util/text_cursor.hpp"

namespace spinscope::telemetry {

namespace {

/// %.9g round-trips every value these metrics produce (ms timings, byte
/// counts) and stays compact for integers; JSON has no inf/nan, so a
/// non-finite value (metrics should never produce one) prints as 0.
[[nodiscard]] std::string format_value(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// Calls fn(info, instrument) for every present instrument of `catalog`'s
/// kind, in id order, which is name order.
template <class Id, std::size_t N, class Fn>
void for_each_present(const MetricsRegistry& registry, const std::array<MetricInfo, N>& catalog,
                      Fn&& fn) {
    for (std::size_t i = 0; i < N; ++i) {
        if (const auto* instrument = registry.find(static_cast<Id>(i))) fn(catalog[i], *instrument);
    }
}

}  // namespace

std::string to_json(const MetricsRegistry& registry) {
    std::string out = "{\"schema\":\"spinscope-telemetry-v1\",\"counters\":{";
    // Catalog names are dotted identifiers: nothing to escape.
    const char* separator = "\"";
    const auto key = [&](const MetricInfo& info) {
        out += separator;
        out += info.name;
        out += "\":";
        separator = ",\"";
    };
    for_each_present<CounterId>(registry, kCounters, [&](const auto& info, const auto& counter) {
        key(info);
        out += std::to_string(counter.value());
    });
    out += "},\"gauges\":{";
    separator = "\"";
    for_each_present<GaugeId>(registry, kGauges, [&](const auto& info, const auto& gauge) {
        key(info);
        out += format_value(gauge.value());
    });
    out += "},\"histograms\":{";
    separator = "\"";
    for_each_present<HistogramId>(registry, kHistograms, [&](const auto& info, const auto& hist) {
        key(info);
        out += "{\"count\":" + std::to_string(hist.count());
        out += ",\"sum\":" + format_value(hist.sum());
        out += ",\"min\":" + format_value(hist.min());
        out += ",\"max\":" + format_value(hist.max());
        out += ",\"spec\":{\"min_value\":" + format_value(hist.geometry().min_value);
        out += ",\"factor\":" + format_value(hist.geometry().factor);
        out += ",\"buckets\":" + std::to_string(hist.geometry().bucket_count);
        out += "},\"bucket_counts\":[";
        const char* comma = "";
        for (const auto bucket : hist.buckets()) {
            out += comma + std::to_string(bucket);
            comma = ",";
        }
        out += "]}";
    });
    out += "}}";
    return out;
}

std::string deterministic_csv(const MetricsRegistry& registry) {
    std::string out = "kind,name,field,value\n";
    const auto row = [&out](const char* kind, const MetricInfo& info, const std::string& field,
                            const std::string& value) {
        if (info.metric_class != MetricClass::deterministic) return;
        out += std::string{kind} + ',' + std::string{info.name} + ',' + field + ',' + value + '\n';
    };
    for_each_present<CounterId>(registry, kCounters, [&](const auto& info, const auto& counter) {
        row("counter", info, "value", std::to_string(counter.value()));
    });
    for_each_present<GaugeId>(registry, kGauges, [&](const auto& info, const auto& gauge) {
        row("gauge", info, "value", format_value(gauge.value()));
    });
    for_each_present<HistogramId>(registry, kHistograms, [&](const auto& info, const auto& hist) {
        // A histogram's sum regroups its floating-point additions when the
        // shard chunking changes; only the merge-exact fields are kept
        // (count, min, max, buckets).
        row("histogram", info, "count", std::to_string(hist.count()));
        row("histogram", info, "min", format_value(hist.min()));
        row("histogram", info, "max", format_value(hist.max()));
        const auto buckets = hist.buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (buckets[i] == 0) continue;  // sparse: empty buckets are implied
            row("histogram", info, "bucket_ge_" + format_value(hist.geometry().bounds[i]),
                std::to_string(buckets[i]));
        }
    });
    return out;
}

bool write_json_file(const MetricsRegistry& registry, const std::string& path) {
    return util::write_file_atomic(util::Io::real(), path, to_json(registry) + "\n").ok();
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

/// A metric name: the bytes up to the next space (catalog names hold no
/// whitespace), then that space.
bool read_name(util::TextCursor& in, std::string_view& name) {
    name = in.until(' ');
    return !name.empty() && name.find('\n') == std::string_view::npos && in.literal(' ');
}

/// ' ' then a %.17g double.
bool read_double(util::TextCursor& in, double& out) {
    return in.literal(' ') && in.number(out, std::chars_format::general);
}

/// The rest of a "hist" line into `hist`: the geometry, which must be the
/// catalog's, then count, sum, min, max and the bucket counts.
bool read_histogram(util::TextCursor& in, Histogram& hist) {
    const HistogramGeometry& geometry = hist.geometry();
    double min_value = 0.0;
    double factor = 0.0;
    std::size_t bucket_count = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    if (!in.number(min_value, std::chars_format::general) || !read_double(in, factor) ||
        !in.literal(' ') || !in.integer(bucket_count) || min_value != geometry.min_value ||
        factor != geometry.factor || bucket_count != geometry.bucket_count ||
        !in.literal(' ') || !in.integer(count) || !read_double(in, sum) ||
        !read_double(in, min) || !read_double(in, max)) {
        return false;
    }
    std::array<std::uint64_t, kMaxBuckets> buckets{};
    for (std::size_t i = 0; i < bucket_count; ++i) {
        if (!in.literal(' ') || !in.integer(buckets[i])) return false;
    }
    return in.literal('\n') &&
           hist.restore(count, sum, min, max, std::span{buckets.data(), bucket_count});
}

}  // namespace

std::string snapshot(const MetricsRegistry& registry) {
    std::string out;
    const auto line = [&out](const char* kind, const MetricInfo& info) {
        out += kind;
        out += info.name;
        out.push_back(' ');
    };
    for_each_present<CounterId>(registry, kCounters, [&](const auto& info, const auto& counter) {
        line("counter ", info);
        out += std::to_string(counter.value()) + '\n';
    });
    for_each_present<GaugeId>(registry, kGauges, [&](const auto& info, const auto& gauge) {
        line("gauge ", info);
        out += gauge.has_value() ? "1 " : "0 ";
        append_exact_double(out, gauge.value());
        out.push_back('\n');
    });
    for_each_present<HistogramId>(registry, kHistograms, [&](const auto& info, const auto& hist) {
        line("hist ", info);
        // Internal min_/max_ are only meaningful when count > 0; min()/max()
        // already normalize the empty case to 0, which restore() re-applies.
        for (const double v : {hist.geometry().min_value, hist.geometry().factor}) {
            append_exact_double(out, v);
            out.push_back(' ');
        }
        out += std::to_string(hist.geometry().bucket_count) + ' ';
        out += std::to_string(hist.count());
        for (const double v : {hist.sum(), hist.min(), hist.max()}) {
            out.push_back(' ');
            append_exact_double(out, v);
        }
        for (const auto bucket : hist.buckets()) out += ' ' + std::to_string(bucket);
        out.push_back('\n');
    });
    return out;
}

std::optional<MetricsRegistry> parse_snapshot(std::string_view text) {
    MetricsRegistry registry;
    util::TextCursor in{text};
    // snapshot() writes counters, gauges, then histograms, each in id order:
    // the kind never steps back, and a name is looked up only among the ids
    // after the previous line's, which rejects repeats and reordering.
    int kind = 0;
    std::size_t next = 0;
    // The id of `name` among the current kind's ids from `next` on, or
    // nullopt; a hit moves `next` past it.
    const auto lookup = [&next](const auto& catalog,
                                std::string_view name) -> std::optional<std::size_t> {
        const std::size_t i = find_index(catalog, name, next);
        if (i == catalog.size()) return std::nullopt;
        next = i + 1;
        return i;
    };
    while (!in.done()) {
        const int line_kind = in.literal("counter ") ? 0
                              : in.literal("gauge ") ? 1
                              : in.literal("hist ")  ? 2
                                                     : -1;
        std::string_view name;
        if (line_kind < kind || !read_name(in, name)) return std::nullopt;
        if (line_kind > kind) {
            kind = line_kind;
            next = 0;
        }
        if (kind == 0) {
            const auto i = lookup(kCounters, name);
            std::uint64_t value = 0;
            if (!i || !in.integer(value) || !in.literal('\n')) return std::nullopt;
            registry.counter(static_cast<CounterId>(*i)).add(value);
        } else if (kind == 1) {
            const auto i = lookup(kGauges, name);
            bool has_value = false;
            double value = 0.0;
            if (!i || !in.flag(has_value) || !read_double(in, value) || !in.literal('\n')) {
                return std::nullopt;
            }
            // A never-set gauge is present but keeps has_value() false, so
            // a later merge_from treats it exactly like the original.
            Gauge& gauge = registry.gauge(static_cast<GaugeId>(*i));
            if (has_value) gauge.set(value);
        } else {
            const auto i = lookup(kHistograms, name);
            if (!i || !read_histogram(in, registry.histogram(static_cast<HistogramId>(*i)))) {
                return std::nullopt;
            }
        }
    }
    return registry;
}

}  // namespace spinscope::telemetry
