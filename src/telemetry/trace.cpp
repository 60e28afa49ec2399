#include "telemetry/trace.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/atomic_file.hpp"

namespace spinscope::telemetry {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

/// Trace timestamps are microseconds (the trace-event convention). Emitting
/// them as `<whole>.<frac3>` derived from integer nanoseconds keeps the JSON
/// a pure function of the recorded integers — no floating-point formatting
/// in the deterministic path.
void append_us_from_ns(std::string& out, std::int64_t ns) {
    if (ns < 0) {
        out.push_back('-');
        ns = -ns;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%lld.%03lld",
                  static_cast<long long>(ns / 1000), static_cast<long long>(ns % 1000));
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

}  // namespace

TraceArg TraceArg::num(std::string key, std::uint64_t v) {
    TraceArg arg;
    arg.key = std::move(key);
    append_u64(arg.value, v);
    return arg;
}

TraceArg TraceArg::num(std::string key, double v) {
    TraceArg arg;
    arg.key = std::move(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    arg.value = buf;
    return arg;
}

TraceArg TraceArg::str(std::string key, const std::string& v) {
    TraceArg arg;
    arg.key = std::move(key);
    append_quoted(arg.value, v);
    return arg;
}

TraceRecorder::TraceRecorder() {
    wall_origin_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
}

int TraceRecorder::lane(TraceClock clock, const std::string& name) {
    std::lock_guard<std::mutex> lock{mu_};
    Lanes& lanes = clock == TraceClock::sim ? sim_lanes_ : wall_lanes_;
    const auto it = lanes.by_name.find(name);
    if (it != lanes.by_name.end()) return it->second;
    const int tid = static_cast<int>(lanes.names.size());
    lanes.names.push_back(name);
    lanes.by_name.emplace(name, tid);
    return tid;
}

int TraceRecorder::wall_lane_for_current_thread(const std::string& prefix) {
    const auto id = std::this_thread::get_id();
    {
        std::lock_guard<std::mutex> lock{mu_};
        const auto it = thread_lanes_.find(id);
        if (it != thread_lanes_.end()) return it->second;
    }
    // Name by first-come registration order; the racy window between the two
    // locks only costs a re-lookup inside lane(), never a duplicate name for
    // the same thread (thread_lanes_ is re-checked under the lock).
    std::lock_guard<std::mutex> lock{mu_};
    const auto it = thread_lanes_.find(id);
    if (it != thread_lanes_.end()) return it->second;
    const std::string name =
        prefix + " " + std::to_string(thread_lanes_.size());
    const auto existing = wall_lanes_.by_name.find(name);
    int tid = 0;
    if (existing != wall_lanes_.by_name.end()) {
        tid = existing->second;
    } else {
        tid = static_cast<int>(wall_lanes_.names.size());
        wall_lanes_.names.push_back(name);
        wall_lanes_.by_name.emplace(name, tid);
    }
    thread_lanes_.emplace(id, tid);
    return tid;
}

void TraceRecorder::record(TraceClock clock, Event event) {
    std::lock_guard<std::mutex> lock{mu_};
    (clock == TraceClock::sim ? sim_events_ : wall_events_).push_back(std::move(event));
}

void TraceRecorder::complete(TraceClock clock, int lane, std::string name,
                             std::int64_t ts_ns, std::int64_t dur_ns,
                             std::vector<TraceArg> args) {
    Event event;
    event.phase = 'X';
    event.tid = lane;
    event.ts_ns = ts_ns;
    event.dur_ns = dur_ns < 0 ? 0 : dur_ns;
    event.name = std::move(name);
    event.args = std::move(args);
    record(clock, std::move(event));
}

void TraceRecorder::instant(TraceClock clock, int lane, std::string name,
                            std::int64_t ts_ns, std::vector<TraceArg> args) {
    Event event;
    event.phase = 'i';
    event.tid = lane;
    event.ts_ns = ts_ns;
    event.name = std::move(name);
    event.args = std::move(args);
    record(clock, std::move(event));
}

void TraceRecorder::counter(TraceClock clock, const std::string& name,
                            std::int64_t ts_ns, double value) {
    Event event;
    event.phase = 'C';
    event.tid = 0;
    event.ts_ns = ts_ns;
    event.name = name;
    event.args.push_back(TraceArg::num("value", value));
    record(clock, std::move(event));
}

std::int64_t TraceRecorder::wall_now_ns() const {
    const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count();
    return now - wall_origin_ns_;
}

std::string TraceRecorder::to_json(TraceClock clock) const {
    std::lock_guard<std::mutex> lock{mu_};
    const Lanes& lanes = lanes_of(clock);
    const std::vector<Event>& events =
        clock == TraceClock::sim ? sim_events_ : wall_events_;

    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto comma = [&] {
        if (!first) out.push_back(',');
        first = false;
    };

    // Process + lane names first (metadata events), so viewers label rows
    // before the first real event references them.
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":"
           "{\"name\":";
    append_quoted(out, clock == TraceClock::sim ? "spinscope campaign (simulated time)"
                                                : "spinscope campaign (wall time)");
    out += "}}";
    for (std::size_t tid = 0; tid < lanes.names.size(); ++tid) {
        comma();
        out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
        append_u64(out, tid);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
        append_quoted(out, lanes.names[tid]);
        out += "}}";
        // Pin row order to registration order (merge lane first).
        comma();
        out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
        append_u64(out, tid);
        out += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
        append_u64(out, tid);
        out += "}}";
    }

    for (const Event& event : events) {
        comma();
        out += "{\"ph\":\"";
        out.push_back(event.phase);
        out += "\",\"pid\":1,\"tid\":";
        append_u64(out, static_cast<std::uint64_t>(event.tid));
        out += ",\"ts\":";
        append_us_from_ns(out, event.ts_ns);
        if (event.phase == 'X') {
            out += ",\"dur\":";
            append_us_from_ns(out, event.dur_ns);
        }
        if (event.phase == 'i') out += ",\"s\":\"t\"";
        out += ",\"name\":";
        append_quoted(out, event.name);
        out += ",\"cat\":";
        append_quoted(out, clock == TraceClock::sim ? "sim" : "wall");
        if (!event.args.empty()) {
            out += ",\"args\":{";
            for (std::size_t i = 0; i < event.args.size(); ++i) {
                if (i > 0) out.push_back(',');
                append_quoted(out, event.args[i].key);
                out.push_back(':');
                out += event.args[i].value;
            }
            out.push_back('}');
        }
        out.push_back('}');
    }
    out += "]}";
    return out;
}

std::string TraceRecorder::wall_sidecar_path(const std::string& path) {
    static constexpr char kJson[] = ".json";
    constexpr std::size_t kJsonLen = sizeof(kJson) - 1;
    if (path.size() > kJsonLen &&
        path.compare(path.size() - kJsonLen, kJsonLen, kJson) == 0) {
        return path.substr(0, path.size() - kJsonLen) + ".wall.json";
    }
    return path + ".wall.json";
}

bool TraceRecorder::write(const std::string& path) const {
    util::Io& io = util::Io::real();
    return util::write_file_atomic(io, path, to_json(TraceClock::sim) + "\n") &&
           util::write_file_atomic(io, wall_sidecar_path(path),
                                   to_json(TraceClock::wall) + "\n");
}

void TraceRecorder::publish_metrics(MetricsRegistry& registry) const {
    std::lock_guard<std::mutex> lock{mu_};
    registry.counter(CounterId::trace_events_sim).add(sim_events_.size());
    registry.counter(CounterId::trace_events_wall).add(wall_events_.size());
    registry.counter(CounterId::trace_lanes).add(sim_lanes_.names.size() +
                                                 wall_lanes_.names.size());
}

}  // namespace spinscope::telemetry
