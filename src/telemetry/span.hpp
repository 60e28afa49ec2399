// spinscope/telemetry/span.hpp
//
// Wall-clock spans for profiling campaign phases (resolve → attempt →
// redirect → trace-finalize) plus simulated-time accounting.
//
// A Span measures host wall-clock time — where the *scanner* spends its CPU
// budget, the quantity every perf PR optimizes. Simulated time (where the
// *modelled network* spends its time) is recorded separately via
// record_sim_time; the two must never be mixed, which is why the sim-time
// helper takes a util::Duration and the span does not expose one.
//
// Both record into a catalog histogram by id, whose geometry the catalog
// fixes (kWallMs for phase spans, kSimMs for simulated time), so timing a
// phase costs no allocation.

#pragma once

#include <chrono>

#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace spinscope::telemetry {

/// One manually finished wall-clock measurement. finish() records the
/// elapsed milliseconds into histogram `id` and returns them; a Span
/// abandoned without finish(), or given no registry, records nothing.
class Span {
public:
    Span(MetricsRegistry* registry, HistogramId id);

    /// Records the elapsed time; idempotent (only the first call records).
    double finish();

    [[nodiscard]] bool finished() const noexcept { return finished_; }

private:
    MetricsRegistry* registry_;
    HistogramId id_;
    std::chrono::steady_clock::time_point start_;
    bool finished_ = false;
};

/// RAII wrapper: records on scope exit. The workhorse for phase profiling:
///
///     { telemetry::ScopedTimer t{metrics, HistogramId::scanner_phase_attempt_ms}; ... }
///
/// A null `registry` (telemetry off) makes it a no-op that reads no clock.
class ScopedTimer {
public:
    ScopedTimer(MetricsRegistry* registry, HistogramId id) : span_{registry, id} {}
    ~ScopedTimer() { span_.finish(); }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    Span span_;
};

/// Records a simulated-time duration (ms) into histogram `id`. Negative
/// durations are clamped to zero.
void record_sim_time(MetricsRegistry& registry, HistogramId id, util::Duration d);

}  // namespace spinscope::telemetry
