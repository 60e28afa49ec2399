#include "telemetry/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace spinscope::telemetry {

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
    const auto first = geometry_->bounds.begin();
    const auto it = std::upper_bound(first, first + geometry_->bucket_count, value);
    ++counts_[it == first ? 0 : static_cast<std::size_t>(it - first) - 1];
}

void Histogram::merge_from(const Histogram& other) noexcept {
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

bool Histogram::restore(std::uint64_t count, double sum, double min, double max,
                        std::span<const std::uint64_t> bucket_counts) noexcept {
    if (bucket_counts.size() != geometry_->bucket_count ||
        std::accumulate(bucket_counts.begin(), bucket_counts.end(), std::uint64_t{0}) != count) {
        return false;
    }
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
    std::copy(bucket_counts.begin(), bucket_counts.end(), counts_.begin());
    return true;
}

namespace {

template <std::size_t... I>
constexpr std::array<Histogram, sizeof...(I)> catalog_histograms(std::index_sequence<I...>) {
    return {Histogram{*kHistograms[I].geometry}...};
}

/// The present instrument of `table` named `name` in `catalog`, or nullptr.
template <class Id, class Table, std::size_t N>
auto find_named(const Table& table, const std::array<MetricInfo, N>& catalog,
                std::string_view name) noexcept {
    const std::size_t i = find_index(catalog, name);
    return i < N ? table.find(static_cast<Id>(i)) : nullptr;
}

}  // namespace

MetricsRegistry::MetricsRegistry() noexcept
    : histograms_{catalog_histograms(std::make_index_sequence<kHistograms.size()>{})} {}

const Counter* MetricsRegistry::find_counter(std::string_view name) const noexcept {
    return find_named<CounterId>(counters_, kCounters, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const noexcept {
    return find_named<GaugeId>(gauges_, kGauges, name);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const noexcept {
    return find_named<HistogramId>(histograms_, kHistograms, name);
}

}  // namespace spinscope::telemetry
