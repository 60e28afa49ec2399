#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spinscope::telemetry {

Histogram::Histogram(HistogramSpec spec) : spec_{spec} {
    assert(spec_.min_value > 0.0);
    assert(spec_.factor > 1.0);
    if (spec_.bucket_count == 0) spec_.bucket_count = 1;
    bounds_.reserve(spec_.bucket_count);
    double bound = spec_.min_value;
    for (std::size_t i = 0; i < spec_.bucket_count; ++i) {
        bounds_.push_back(bound);
        bound *= spec_.factor;
    }
    counts_.assign(spec_.bucket_count, 0);
}

void Histogram::record(double value) noexcept {
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;

    // upper_bound over the precomputed bounds: first bound > value, minus
    // one, clamped into [0, buckets). Exact and platform-independent, unlike
    // a log()-based index.
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t index =
        it == bounds_.begin() ? 0 : static_cast<std::size_t>(it - bounds_.begin()) - 1;
    ++counts_[std::min(index, counts_.size() - 1)];
}

void Histogram::merge_from(const Histogram& other) {
    if (spec_.min_value != other.spec_.min_value || spec_.factor != other.spec_.factor ||
        spec_.bucket_count != other.spec_.bucket_count) {
        throw std::invalid_argument("telemetry: histogram merge with mismatched geometry");
    }
    if (other.count_ == 0) return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void Histogram::restore(std::uint64_t count, double sum, double min, double max,
                        const std::vector<std::uint64_t>& bucket_counts) {
    if (bucket_counts.size() != counts_.size()) {
        throw std::invalid_argument("telemetry: histogram restore with mismatched geometry");
    }
    std::uint64_t bucket_total = 0;
    for (const auto c : bucket_counts) bucket_total += c;
    if (bucket_total != count) {
        throw std::invalid_argument("telemetry: histogram restore bucket total != count");
    }
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
    counts_ = bucket_counts;
}

MetricName::MetricName(std::initializer_list<std::string_view> parts) {
    for (const std::string_view part : parts) {
        if (part.size() > kMaxLength - size_) {
            throw std::length_error("telemetry: metric name longer than MetricName::kMaxLength");
        }
        std::copy(part.begin(), part.end(), buffer_.begin() + size_);
        size_ += part.size();
    }
}

namespace {

/// The instrument named `name`, created from `args` when absent. The
/// std::string key is built only on that first creation.
template <class Instrument, class... Args>
Instrument& find_or_create(InstrumentMap<Instrument>& map, std::string_view name,
                           const Args&... args) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name) {
        it = map.emplace_hint(it, std::string{name}, std::make_unique<Instrument>(args...));
    }
    return *it->second;
}

template <class Instrument>
const Instrument* find_existing(const InstrumentMap<Instrument>& map, std::string_view name) {
    const auto it = map.find(name);
    return it == map.end() ? nullptr : it->second.get();
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
    return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) { return find_or_create(gauges_, name); }

Histogram& MetricsRegistry::histogram(std::string_view name, HistogramSpec spec) {
    return find_or_create(histograms_, name, spec);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    for (const auto& [name, src] : other.counters_) counter(name).merge_from(*src);
    for (const auto& [name, src] : other.gauges_) gauge(name).merge_from(*src);
    for (const auto& [name, src] : other.histograms_) {
        histogram(name, src->spec()).merge_from(*src);
    }
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
    return find_existing(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
    return find_existing(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
    return find_existing(histograms_, name);
}

}  // namespace spinscope::telemetry
