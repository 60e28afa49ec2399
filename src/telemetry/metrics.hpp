// spinscope/telemetry/metrics.hpp
//
// The campaign observability substrate: a registry of named counters, gauges
// and fixed-bucket log-scale histograms that every layer (netsim, quic,
// scanner, bench) records into.
//
// The paper's measurement pipeline (§3.2-3.3) is only trustworthy if the
// operator can see what the scanner actually did — how many domains resolved,
// how handshakes ended, how often PTO fired, where the wall-clock time went.
// This module is deliberately simple: plain structs, no locks, no atomics.
// An instance is single-threaded by design; the sharded campaign gives every
// work chunk its own private registry and merges them (merge_from) on the
// merge thread in ascending chunk order, which keeps aggregate telemetry
// deterministic across thread counts without any atomics on the hot path.
// Merge semantics per instrument: counters add, gauges max-merge (worker
// threads must only publish high-water-mark style gauges; last-write gauges
// such as rates belong to the merge thread after aggregation), histograms
// add counts/sums bucket-wise and require identical geometry.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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

/// Geometry of a log-scale histogram: bucket i spans
/// [min_value * factor^i, min_value * factor^(i+1)); values below the first
/// bound land in bucket 0, values at or above the last bound in the final
/// bucket. Fixed at creation so exported bucket arrays always line up.
struct HistogramSpec {
    double min_value = 0.001;  ///< lower bound of bucket 0 (e.g. 1 us in ms)
    double factor = 2.0;       ///< geometric bucket growth (> 1)
    std::size_t bucket_count = 32;
};

/// Fixed-bucket log-scale histogram (durations, sizes — anything spanning
/// orders of magnitude). Bucket bounds are precomputed by repeated
/// multiplication, so bucketing is exact and platform-independent.
class Histogram {
public:
    explicit Histogram(HistogramSpec spec);

    void record(double value) noexcept;

    [[nodiscard]] const HistogramSpec& spec() const noexcept { return spec_; }
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    /// Smallest / largest recorded value; 0 when empty.
    [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
    [[nodiscard]] double mean() const noexcept {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return counts_; }
    /// Inclusive lower bound of bucket i.
    [[nodiscard]] double bucket_lower_bound(std::size_t i) const { return bounds_.at(i); }

    /// Shard merge: bucket counts, count, min and max merge exactly; `sum`
    /// adds the partial sums, which regroups the floating-point additions —
    /// deterministic for a fixed chunking, but not bit-promised across
    /// different chunk sizes (see telemetry::deterministic_csv). Throws
    /// std::invalid_argument when the geometries differ.
    void merge_from(const Histogram& other);

    /// Journal replay: overwrites the recorded state with a previously
    /// exported snapshot (count/sum/min/max plus per-bucket counts). Throws
    /// std::invalid_argument when `bucket_counts` does not match this
    /// histogram's geometry or the bucket total disagrees with `count`.
    void restore(std::uint64_t count, double sum, double min, double max,
                 const std::vector<std::uint64_t>& bucket_counts);

private:
    HistogramSpec spec_;
    std::vector<double> bounds_;  ///< bounds_[i] = min_value * factor^i
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// A metric name composed from parts ("netsim.link.forward" + ".sent") in a
/// fixed stack buffer, so publishing into instruments that already exist
/// touches no heap. A name longer than kMaxLength throws std::length_error;
/// every name spinscope publishes is well under it. Converts to a view of
/// the buffer, valid while the MetricName lives (pass it straight to a
/// MetricsRegistry lookup, which copies the name only when it creates).
class MetricName {
public:
    static constexpr std::size_t kMaxLength = 128;

    MetricName(std::initializer_list<std::string_view> parts);

    [[nodiscard]] std::string_view view() const noexcept { return {buffer_.data(), size_}; }
    operator std::string_view() const noexcept { return view(); }  // NOLINT

private:
    std::array<char, kMaxLength> buffer_{};
    std::size_t size_ = 0;
};

/// Name-sorted instrument table. std::less<> makes lookups heterogeneous, so
/// a std::string_view probe never builds a std::string key.
template <class Instrument>
using InstrumentMap = std::map<std::string, std::unique_ptr<Instrument>, std::less<>>;

/// Owns all metrics of one campaign / bench run, addressed by name.
///
/// Lookup is by full dotted name ("netsim.link.delivered"); the first lookup
/// creates the instrument, later lookups return the same instance, so call
/// sites need no registration step. Only creation allocates (the key and the
/// instrument); looking up an existing instrument allocates nothing.
/// References stay valid for the registry's lifetime (instruments are
/// heap-allocated and never removed).
class MetricsRegistry {
public:
    [[nodiscard]] Counter& counter(std::string_view name);
    [[nodiscard]] Gauge& gauge(std::string_view name);
    /// `spec` applies only when `name` is first created; later calls return
    /// the existing histogram unchanged (the geometry is part of the schema).
    [[nodiscard]] Histogram& histogram(std::string_view name, HistogramSpec spec = {});

    /// nullptr when the metric does not exist (read-only probes for tests
    /// and exporters; never creates).
    [[nodiscard]] const Counter* find_counter(std::string_view name) const;
    [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
    [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

    /// Name-sorted views (std::map order) for deterministic export.
    [[nodiscard]] const InstrumentMap<Counter>& counters() const noexcept { return counters_; }
    [[nodiscard]] const InstrumentMap<Gauge>& gauges() const noexcept { return gauges_; }
    [[nodiscard]] const InstrumentMap<Histogram>& histograms() const noexcept {
        return histograms_;
    }

    /// Total number of registered instruments of all kinds.
    [[nodiscard]] std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Merges every instrument of `other` into this registry, creating
    /// missing instruments (histograms inherit the source geometry). The
    /// sharded campaign calls this once per work chunk, in ascending chunk
    /// order on the merge thread, so merged telemetry is deterministic and
    /// independent of worker scheduling. Counters add, gauges max-merge,
    /// histograms merge per Histogram::merge_from.
    void merge_from(const MetricsRegistry& other);

private:
    InstrumentMap<Counter> counters_;
    InstrumentMap<Gauge> gauges_;
    InstrumentMap<Histogram> histograms_;
};

}  // namespace spinscope::telemetry
