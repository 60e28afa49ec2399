// perfbench/harness/ledger.hpp
//
// The benchmark's own tracing and statistics: spans recorded around the
// harness's calls into spinscope's public functions (nothing inside the
// library is instrumented), self time, span coverage and the percentile rule.
//
// Spans are kept in per-thread lanes in memory and collected once, after the
// threads that wrote them have joined. A disabled tracer records nothing and
// costs one branch per span, so traced and untraced passes run the same code.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// One closed span. `parent` is the id of the span that caused it (0 for a
/// root); spans of one work chunk share `chunk` (-1 when not chunk-scoped).
struct Span {
    const char* name = "";  ///< string literal: static storage
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t chunk = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

class Tracer {
public:
    /// One thread's span buffer. Only the thread that obtained it writes it.
    class Lane {
    public:
        /// RAII span: opened at construction, recorded at destruction.
        class Scope {
        public:
            Scope(Lane* lane, const char* name, std::uint64_t parent, std::int64_t chunk)
                : lane_{lane} {
                if (lane_ == nullptr) return;
                span_.name = name;
                span_.id = lane_->tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
                span_.parent = parent;
                span_.chunk = chunk;
                span_.start_ns = now_ns();
            }
            ~Scope() {
                if (lane_ == nullptr) return;
                span_.end_ns = now_ns();
                lane_->spans_.push_back(span_);
            }
            Scope(const Scope&) = delete;
            Scope& operator=(const Scope&) = delete;
            Scope(Scope&&) = delete;
            Scope& operator=(Scope&&) = delete;

            /// Id to pass as `parent` of child spans (0 when tracing is off).
            [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

        private:
            Lane* lane_;
            Span span_;
        };

        explicit Lane(Tracer* tracer) : tracer_{tracer} {}

        /// Opens a span; a lane of a disabled tracer hands out no-op scopes.
        [[nodiscard]] Scope span(const char* name, std::uint64_t parent,
                                 std::int64_t chunk = -1) {
            return Scope{tracer_->enabled_ ? this : nullptr, name, parent, chunk};
        }

    private:
        friend class Tracer;
        Tracer* tracer_;
        std::vector<Span> spans_;
    };

    explicit Tracer(bool enabled) : enabled_{enabled} {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// A new lane for the calling thread. Lanes live as long as the tracer.
    [[nodiscard]] Lane& lane() {
        const std::lock_guard<std::mutex> lock{mutex_};
        return lanes_.emplace_back(this);
    }

    /// Every recorded span, ordered by start. Call once the writing threads
    /// have joined.
    [[nodiscard]] std::vector<Span> spans() const {
        const std::lock_guard<std::mutex> lock{mutex_};
        std::vector<Span> out;
        for (const Lane& lane : lanes_) out.insert(out.end(), lane.spans_.begin(), lane.spans_.end());
        std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
            return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
        });
        return out;
    }

private:
    bool enabled_;
    std::atomic<std::uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    std::deque<Lane> lanes_;  // deque: lane addresses stay valid
};

/// Length of the union of half-open intervals, clipped to [lo, hi).
[[nodiscard]] inline std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals, std::int64_t lo,
    std::int64_t hi) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cursor = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, hi);
        if (end <= start) continue;
        total += end - start;
        cursor = end;
    }
    return total;
}

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover. Children running in
/// parallel on several threads are counted once.
[[nodiscard]] inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
    for (const Span& s : spans) {
        if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::int64_t> out;
    out.reserve(spans.size());
    for (const Span& s : spans) {
        const auto it = children.find(s.id);
        const std::int64_t covered =
            it == children.end() ? 0 : covered_ns(it->second, s.start_ns, s.end_ns);
        out.push_back(s.duration_ns() - covered);
    }
    return out;
}

/// Per-name totals of a span set: the layer ledger.
struct LayerTotal {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
};

[[nodiscard]] inline std::map<std::string, LayerTotal> layer_totals(
    const std::vector<Span>& spans) {
    const std::vector<std::int64_t> self = self_times(spans);
    std::map<std::string, LayerTotal> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTotal& t = out[spans[i].name];
        ++t.count;
        t.total_ns += spans[i].duration_ns();
        t.self_ns += self[i];
    }
    return out;
}

/// Durations (ns) of every span called `name`.
[[nodiscard]] inline std::vector<double> durations_ns(const std::vector<Span>& spans,
                                                      const std::string& name) {
    std::vector<double> out;
    for (const Span& s : spans) {
        if (name == s.name) out.push_back(static_cast<double>(s.duration_ns()));
    }
    return out;
}

/// Sum of the durations (ns) of every span called `name`.
[[nodiscard]] inline double total_ns(const std::vector<Span>& spans, const std::string& name) {
    double sum = 0.0;
    for (const Span& s : spans) {
        if (name == s.name) sum += static_cast<double>(s.duration_ns());
    }
    return sum;
}

/// Spans named "harness.*" group work (a pass, a phase, one chunk's steps);
/// every other span times one call into a layer.
[[nodiscard]] inline bool is_layer_span(const Span& span) noexcept {
    return std::string_view{span.name}.rfind("harness.", 0) != 0;
}

/// Share of [lo, hi) covered by layer spans: the part of the traced wall
/// clock the harness attributes to a call into some layer.
[[nodiscard]] inline double span_coverage(const std::vector<Span>& spans, std::int64_t lo,
                                          std::int64_t hi) {
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (const Span& s : spans) {
        if (is_layer_span(s)) intervals.emplace_back(s.start_ns, s.end_ns);
    }
    return hi > lo ? static_cast<double>(covered_ns(std::move(intervals), lo, hi)) /
                         static_cast<double>(hi - lo)
                   : 0.0;
}

// --- percentiles -------------------------------------------------------------
//
// Percentiles are nearest-rank and given in basis points (9900 = p99) so the
// support test is exact integer arithmetic.

/// Nearest rank (1-based) of percentile `bp` in `n` samples.
[[nodiscard]] constexpr std::size_t percentile_rank(std::size_t n, unsigned bp) noexcept {
    const std::size_t rank = (static_cast<std::size_t>(bp) * n + 9999) / 10000;
    return rank == 0 ? 1 : rank;
}

/// Samples strictly beyond the nearest rank of `bp`.
[[nodiscard]] constexpr std::size_t samples_beyond(std::size_t n, unsigned bp) noexcept {
    return n == 0 ? 0 : n - percentile_rank(n, bp);
}

/// The highest percentile of the ladder p99.99, p99.9, p99, p95, p90, p75,
/// p50 that has at least ten samples beyond it; nullopt when even the median
/// lacks them (fewer than 20 samples).
[[nodiscard]] constexpr std::optional<unsigned> highest_supported_percentile(
    std::size_t n) noexcept {
    constexpr unsigned kLadder[] = {9999, 9990, 9900, 9500, 9000, 7500, 5000};
    for (const unsigned bp : kLadder) {
        if (samples_beyond(n, bp) >= 10) return bp;
    }
    return std::nullopt;
}

/// Nearest-rank percentile `bp` of `values` (sorted in place); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double>& values, unsigned bp) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[percentile_rank(values.size(), bp) - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(values, 5000);
}

}  // namespace perfbench
