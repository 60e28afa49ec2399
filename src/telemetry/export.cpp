#include "telemetry/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bytes/cursor.hpp"
#include "util/atomic_file.hpp"

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

using bytes::ByteReader;
using bytes::ByteWriter;

/// Snapshot keys: counters, then gauges, then histograms, each in id order.
constexpr std::size_t kGaugeKeys = kCounters.size();
constexpr std::size_t kHistogramKeys = kGaugeKeys + kGauges.size();
constexpr std::size_t kKeyCount = kHistogramKeys + kHistograms.size();

void write_histogram(ByteWriter& out, const Histogram& hist) {
    out.uvarint(hist.count());
    // An empty histogram's sum, min and max are 0: nothing more to say.
    if (hist.count() == 0) return;
    out.f64(hist.sum());
    out.f64(hist.min());
    out.f64(hist.max());
    const auto buckets = hist.buckets();
    out.uvarint(static_cast<std::size_t>(
        std::count_if(buckets.begin(), buckets.end(), [](std::uint64_t n) { return n != 0; })));
    std::size_t next = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0) continue;
        out.uvarint(i - next);
        out.uvarint(buckets[i]);
        next = i + 1;
    }
}

bool read_histogram(ByteReader& in, Histogram& hist) {
    const auto count = in.uvarint();
    if (!count) return false;
    if (*count == 0) return true;
    const auto sum = in.f64();
    const auto min = in.f64();
    const auto max = in.f64();
    const auto filled = in.count();
    if (!sum || !min || !max || !filled) return false;
    const std::size_t bucket_count = hist.geometry().bucket_count;
    std::array<std::uint64_t, kMaxBuckets> buckets{};
    std::size_t next = 0;
    for (std::size_t k = 0; k < *filled; ++k) {
        const auto gap = in.uvarint();
        const auto n = in.uvarint();
        if (!gap || *gap >= bucket_count - next || !n || *n == 0) return false;
        next += *gap;
        buckets[next++] = *n;
    }
    return hist.restore(*count, *sum, *min, *max, std::span{buckets.data(), bucket_count});
}

}  // namespace

std::string snapshot(const MetricsRegistry& registry) {
    if (registry.size() == 0) return {};
    std::vector<std::uint8_t> bytes;
    ByteWriter out{bytes};
    out.uvarint(registry.size());
    std::size_t next = 0;
    const auto key = [&](std::size_t k) {
        out.uvarint(k - next);
        next = k + 1;
    };
    for (std::size_t i = 0; i < kCounters.size(); ++i) {
        if (const auto* counter = registry.find(static_cast<CounterId>(i))) {
            key(i);
            out.uvarint(counter->value());
        }
    }
    for (std::size_t i = 0; i < kGauges.size(); ++i) {
        if (const auto* gauge = registry.find(static_cast<GaugeId>(i))) {
            key(kGaugeKeys + i);
            out.u8(gauge->has_value() ? 1 : 0);
            if (gauge->has_value()) out.f64(gauge->value());
        }
    }
    for (std::size_t i = 0; i < kHistograms.size(); ++i) {
        if (const auto* hist = registry.find(static_cast<HistogramId>(i))) {
            key(kHistogramKeys + i);
            write_histogram(out, *hist);
        }
    }
    return std::string{bytes.begin(), bytes.end()};
}

std::optional<MetricsRegistry> parse_snapshot(std::string_view bytes) {
    MetricsRegistry registry;
    if (bytes.empty()) return registry;
    ByteReader in{bytes::byte_view(bytes)};
    const auto entries = in.count();
    if (!entries || *entries == 0) return std::nullopt;
    std::size_t next = 0;
    for (std::size_t e = 0; e < *entries; ++e) {
        const auto gap = in.uvarint();
        if (!gap || *gap >= kKeyCount - next) return std::nullopt;
        const std::size_t key = next + *gap;
        next = key + 1;
        if (key < kGaugeKeys) {
            const auto value = in.uvarint();
            if (!value) return std::nullopt;
            registry.counter(static_cast<CounterId>(key)).add(*value);
        } else if (key < kHistogramKeys) {
            // A never-set gauge is present but keeps has_value() false, so
            // a later merge_from treats it exactly like the original.
            Gauge& gauge = registry.gauge(static_cast<GaugeId>(key - kGaugeKeys));
            const auto has_value = in.u8();
            if (!has_value || *has_value > 1) return std::nullopt;
            if (*has_value == 1) {
                const auto value = in.f64();
                if (!value) return std::nullopt;
                gauge.set(*value);
            }
        } else if (!read_histogram(
                       in, registry.histogram(static_cast<HistogramId>(key - kHistogramKeys)))) {
            return std::nullopt;
        }
    }
    if (!in.done()) return std::nullopt;
    return registry;
}

}  // namespace spinscope::telemetry
