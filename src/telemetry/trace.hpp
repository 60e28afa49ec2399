// spinscope/telemetry/trace.hpp
//
// Campaign flight recorder: a Chrome trace-event JSON writer (the format
// chrome://tracing and Perfetto load directly) that records where a sharded
// campaign spends its time — one lane per shard worker plus the merge
// thread, chunk lifecycle spans, quarantine instant events and counter
// tracks.
//
// Two clocks, two files. Every event carries one of two clocks:
//
//   sim   Simulated time. Spans are positioned on a deterministic virtual
//         timeline (cumulative simulated nanoseconds in merge order), so
//         the sim trace of a campaign is BYTE-IDENTICAL for every thread
//         count and across kill/resume — it is part of the determinism
//         contract (DESIGN.md §12) and safe to diff or pin.
//   wall  Host wall-clock time. Worker scheduling, queue waits, merge and
//         journal-append latencies — different on every run by nature.
//
// write() emits the sim events to the requested path and the wall events to
// a clearly-marked `<path minus .json>.wall.json` sidecar, so deterministic
// tooling never has to filter wall noise out of the golden file.
//
// Thread safety: all recording methods are safe to call concurrently (shard
// workers record wall spans while the merge thread records sim spans); the
// recorder serializes internally. Sim events must only be recorded from one
// thread (the campaign's merge thread) — their ORDER in the file is append
// order, which is what makes the sim trace deterministic.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "telemetry/metrics.hpp"

namespace spinscope::telemetry {

/// Which clock an event is timestamped on (and which output file it lands in).
enum class TraceClock { sim, wall };

/// One "key":value argument attached to a trace event. Values are stored
/// preformatted: numbers verbatim, strings JSON-quoted via TraceArg::str.
struct TraceArg {
    std::string key;
    std::string value;  ///< raw JSON scalar ("3", "1.5", "\"ok\"")

    [[nodiscard]] static TraceArg num(std::string key, std::uint64_t v);
    [[nodiscard]] static TraceArg num(std::string key, double v);
    [[nodiscard]] static TraceArg str(std::string key, const std::string& v);
};

/// Records trace events and serializes them as Chrome trace-event JSON.
class TraceRecorder {
public:
    TraceRecorder();

    /// Registers (or looks up) a lane — a Perfetto "thread" row — on the
    /// given clock. Registration order fixes the numeric tid, so lanes that
    /// must be deterministic (sim) have to be registered from one thread in
    /// a deterministic order. Returns the lane's tid.
    int lane(TraceClock clock, const std::string& name);

    /// Wall-lane helper for shard workers: returns a lane keyed by the
    /// CALLING thread, lazily named "<prefix> <n>" in first-come order.
    /// Worker identity is scheduling-dependent, which is exactly why these
    /// lanes live on the wall clock.
    int wall_lane_for_current_thread(const std::string& prefix);

    /// A complete span ("ph":"X"): [ts_ns, ts_ns + dur_ns) on `lane`.
    void complete(TraceClock clock, int lane, std::string name, std::int64_t ts_ns,
                  std::int64_t dur_ns, std::vector<TraceArg> args = {});

    /// An instant event ("ph":"i", thread scope) at ts_ns on `lane`.
    void instant(TraceClock clock, int lane, std::string name, std::int64_t ts_ns,
                 std::vector<TraceArg> args = {});

    /// One sample of the counter track `name` ("ph":"C") at ts_ns. Counter
    /// tracks are global per clock (pid-scoped), not per lane.
    void counter(TraceClock clock, const std::string& name, std::int64_t ts_ns,
                 double value);

    /// Nanoseconds of host wall clock since the recorder was constructed
    /// (the wall-trace time origin).
    [[nodiscard]] std::int64_t wall_now_ns() const;

    /// Serializes one clock's events as a self-contained Chrome trace JSON
    /// object ({"displayTimeUnit":"ms","traceEvents":[...]}). Event order is
    /// recording order; lane-name metadata events come first.
    [[nodiscard]] std::string to_json(TraceClock clock) const;

    /// Writes the sim trace to `path` and the wall trace to
    /// wall_sidecar_path(path), both atomically. Returns false when either
    /// file cannot be written.
    bool write(const std::string& path) const;

    /// `campaign.trace.json` -> `campaign.trace.wall.json` (appends
    /// `.wall.json` when `path` has no `.json` suffix).
    [[nodiscard]] static std::string wall_sidecar_path(const std::string& path);

    /// Publishes recorder bookkeeping as `trace.events_sim` /
    /// `trace.events_wall` / `trace.lanes` counters (excluded from the
    /// deterministic telemetry view — wall-event counts depend on thread
    /// scheduling and lane geometry).
    void publish_metrics(MetricsRegistry& registry) const;

private:
    struct Event {
        char phase = 'X';  ///< 'X' complete, 'i' instant, 'C' counter
        int tid = 0;
        std::int64_t ts_ns = 0;
        std::int64_t dur_ns = 0;  ///< complete spans only
        std::string name;
        std::vector<TraceArg> args;
    };

    struct Lanes {
        std::vector<std::string> names;  ///< index == tid
        std::unordered_map<std::string, int> by_name;
    };

    void record(TraceClock clock, Event event);
    [[nodiscard]] const Lanes& lanes_of(TraceClock clock) const {
        return clock == TraceClock::sim ? sim_lanes_ : wall_lanes_;
    }

    mutable std::mutex mu_;
    Lanes sim_lanes_;
    Lanes wall_lanes_;
    std::vector<Event> sim_events_;
    std::vector<Event> wall_events_;
    std::unordered_map<std::thread::id, int> thread_lanes_;
    std::int64_t wall_origin_ns_ = 0;
};

}  // namespace spinscope::telemetry
