// spinscope/telemetry/metrics.hpp
//
// The campaign observability substrate: counters, gauges and fixed-bucket
// log-scale histograms that every layer (netsim, quic, scanner, bench)
// records into, one of each per entry of the metric catalog (catalog.hpp).
//
// The paper's measurement pipeline (§3.2-3.3) is only trustworthy if the
// operator can see what the scanner actually did — how many domains resolved,
// how handshakes ended, how often PTO fired, where the wall-clock time went.
// This module is deliberately simple: plain structs, no locks, no atomics,
// no heap. An instance is single-threaded by design; the sharded campaign
// gives every work chunk its own private registry and merges them
// (merge_from) on the merge thread in ascending chunk order, which keeps
// aggregate telemetry deterministic across thread counts without any
// atomics on the hot path. Merge semantics per instrument: counters add,
// gauges max-merge (worker threads must only publish high-water-mark style
// gauges; last-write gauges such as rates belong to the merge thread after
// aggregation), histograms add counts/sums bucket-wise.

#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <span>
#include <string_view>

#include "telemetry/catalog.hpp"

namespace spinscope::telemetry {

/// Monotonically increasing event count.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
    /// Shard merge: counts are additive.
    void merge_from(const Counter& other) noexcept { value_ += other.value_; }

private:
    std::uint64_t value_ = 0;
};

/// Last-written scalar, with a max-merge helper for high-water marks.
class Gauge {
public:
    void set(double v) noexcept { value_ = v; has_value_ = true; }
    /// Keeps the larger of the current and the new value (high-water marks
    /// published once per attempt merge correctly across attempts).
    void set_max(double v) noexcept {
        if (!has_value_ || v > value_) value_ = v;
        has_value_ = true;
    }
    [[nodiscard]] double value() const noexcept { return value_; }
    [[nodiscard]] bool has_value() const noexcept { return has_value_; }
    /// Shard merge: max-merge (commutative, so the result is independent of
    /// merge order). Worker-published gauges must therefore be high-water
    /// marks; last-write gauges are set by the merge thread post-merge.
    void merge_from(const Gauge& other) noexcept {
        if (other.has_value_) set_max(other.value_);
    }

private:
    double value_ = 0.0;
    bool has_value_ = false;
};

/// Fixed-bucket log-scale histogram (durations, sizes — anything spanning
/// orders of magnitude) over one of the catalog's geometries.
class Histogram {
public:
    explicit constexpr Histogram(const HistogramGeometry& geometry) noexcept
        : geometry_{&geometry} {}

    void record(double value) noexcept;

    [[nodiscard]] const HistogramGeometry& geometry() const noexcept { return *geometry_; }
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    /// Smallest / largest recorded value; 0 when empty.
    [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
    [[nodiscard]] double mean() const noexcept {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /// Bucket i counts values from geometry().bounds[i] on.
    [[nodiscard]] std::span<const std::uint64_t> buckets() const noexcept {
        return {counts_.data(), geometry_->bucket_count};
    }

    /// Shard merge of a histogram of the same catalog entry: bucket counts,
    /// count, min and max merge exactly; `sum` adds the partial sums, which
    /// regroups the floating-point additions — deterministic for a fixed
    /// chunking, but not bit-promised across different chunk sizes (see
    /// telemetry::deterministic_csv).
    void merge_from(const Histogram& other) noexcept;

    /// Journal replay: overwrites the recorded state with a previously
    /// exported snapshot (count/sum/min/max plus per-bucket counts). Returns
    /// false, changing nothing, when `bucket_counts` does not match this
    /// histogram's geometry or the bucket total disagrees with `count`.
    bool restore(std::uint64_t count, double sum, double min, double max,
                 std::span<const std::uint64_t> bucket_counts) noexcept;

private:
    const HistogramGeometry* geometry_;
    std::array<std::uint64_t, kMaxBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// One kind's instruments: a dense array indexed by catalog id plus one
/// presence bit per entry.
template <class Instrument, class Id, std::size_t N>
class InstrumentTable {
public:
    InstrumentTable() = default;
    explicit InstrumentTable(const std::array<Instrument, N>& items) noexcept : items_{items} {}

    /// The instrument `id`, made present: a present instrument is exported
    /// even when it holds nothing (`add(0)` makes a counter present).
    Instrument& at(Id id) noexcept {
        present_.set(index(id));
        return items_[index(id)];
    }
    /// nullptr when the instrument is absent; never makes it present.
    const Instrument* find(Id id) const noexcept {
        return present_.test(index(id)) ? &items_[index(id)] : nullptr;
    }
    [[nodiscard]] std::size_t size() const noexcept { return present_.count(); }
    void merge_from(const InstrumentTable& other) noexcept {
        for (std::size_t i = 0; i < N; ++i) items_[i].merge_from(other.items_[i]);
        present_ |= other.present_;
    }

private:
    static constexpr std::size_t index(Id id) noexcept { return static_cast<std::size_t>(id); }

    std::array<Instrument, N> items_{};
    std::bitset<N> present_;
};

/// Owns one instrument per catalog entry, for one campaign, chunk or bench
/// run; only present instruments are exported. The registry never
/// allocates: constructing one and publishing into it touch no heap, and
/// references stay valid for the registry's lifetime.
class MetricsRegistry {
public:
    MetricsRegistry() noexcept;

    [[nodiscard]] Counter& counter(CounterId id) noexcept { return counters_.at(id); }
    [[nodiscard]] Gauge& gauge(GaugeId id) noexcept { return gauges_.at(id); }
    [[nodiscard]] Histogram& histogram(HistogramId id) noexcept { return histograms_.at(id); }

    /// nullptr when the instrument is absent (read-only probes for
    /// exporters and tests).
    [[nodiscard]] const Counter* find(CounterId id) const noexcept { return counters_.find(id); }
    [[nodiscard]] const Gauge* find(GaugeId id) const noexcept { return gauges_.find(id); }
    [[nodiscard]] const Histogram* find(HistogramId id) const noexcept {
        return histograms_.find(id);
    }

    /// The same probes by dotted name: nullptr when the name is not in the
    /// catalog or the instrument is absent.
    [[nodiscard]] const Counter* find_counter(std::string_view name) const noexcept;
    [[nodiscard]] const Gauge* find_gauge(std::string_view name) const noexcept;
    [[nodiscard]] const Histogram* find_histogram(std::string_view name) const noexcept;

    /// Total number of present instruments of all kinds.
    [[nodiscard]] std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Merges `other` into this registry entry by entry: presence ORs,
    /// counters add, gauges max-merge, histograms merge per
    /// Histogram::merge_from. The sharded campaign calls this once per work
    /// chunk, in ascending chunk order on the merge thread, so merged
    /// telemetry is deterministic and independent of worker scheduling.
    void merge_from(const MetricsRegistry& other) noexcept {
        counters_.merge_from(other.counters_);
        gauges_.merge_from(other.gauges_);
        histograms_.merge_from(other.histograms_);
    }

private:
    InstrumentTable<Counter, CounterId, kCounters.size()> counters_;
    InstrumentTable<Gauge, GaugeId, kGauges.size()> gauges_;
    InstrumentTable<Histogram, HistogramId, kHistograms.size()> histograms_;
};

}  // namespace spinscope::telemetry
