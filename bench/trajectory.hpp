// bench/trajectory.hpp
//
// Committed perf trajectory: the repo-root BENCH_*.json snapshots
// (BENCH_packet_path.json, BENCH_scale.json) that pin the pipeline's
// throughput and footprint — domains/sec, peak RSS, allocations/domain and
// allocated bytes/domain. scripts/bench_check.py compares a fresh
// measurement against the committed baseline and fails CI on regression;
// scripts/ci.sh's bench lane regenerates them (REGEN=1 to re-baseline).

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/resource.hpp"
#include "util/atomic_file.hpp"

namespace spinscope::bench {

/// One perf-trajectory snapshot. The four `metrics` fields are the committed
/// surface bench_check.py guards; the rest is measurement context.
struct Trajectory {
    std::string bench;          ///< "packet_path", "scale", ...
    std::uint64_t domains = 0;  ///< work items measured
    double wall_seconds = 0.0;
    /// True when the binary linked telemetry/alloc_interpose.hpp — without
    /// it the allocs/bytes fields are 0 and bench_check.py skips them.
    bool alloc_probe = false;
    double domains_per_sec = 0.0;
    std::uint64_t peak_rss_bytes = 0;
    double allocs_per_domain = 0.0;
    double alloc_bytes_per_domain = 0.0;
    /// Multi-process context (--procs runs, DESIGN.md §11): worker process
    /// count and the high-water worker RSS the supervisor observed over the
    /// heartbeat channel. Both stay 0 for classic single-process runs;
    /// bench_check.py skips a zero/absent peak_worker_rss_bytes baseline.
    unsigned procs = 0;
    std::uint64_t peak_worker_rss_bytes = 0;
    /// Population downscale (1:N) the row was measured at; 0 for benches
    /// without a population (micro benches).
    double scale = 0.0;
};

/// Builds a snapshot from one measured section: `before` captured at section
/// start, `domains` items completed in `wall_seconds`.
inline Trajectory measure_trajectory(std::string bench, std::uint64_t domains,
                                     double wall_seconds,
                                     const telemetry::AllocSnapshot& before) {
    Trajectory t;
    t.bench = std::move(bench);
    t.domains = domains;
    t.wall_seconds = wall_seconds;
    t.domains_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(domains) / wall_seconds : 0.0;
    t.peak_rss_bytes = telemetry::peak_rss_bytes();
    t.alloc_probe = telemetry::alloc::active();
    if (t.alloc_probe && domains > 0) {
        t.allocs_per_domain =
            static_cast<double>(before.count_since()) / static_cast<double>(domains);
        t.alloc_bytes_per_domain =
            static_cast<double>(before.bytes_since()) / static_cast<double>(domains);
    }
    return t;
}

namespace detail {
inline std::string trajectory_num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return std::string{buf};
}

/// The schema-less field body shared by the single-row trajectory file and
/// the scale-sweep row array.
inline std::string trajectory_fields(const Trajectory& t) {
    std::string out = "\"bench\":\"";
    out += t.bench;  // bench names are identifiers, no escaping needed
    out += "\",\"domains\":" + std::to_string(t.domains);
    out += ",\"wall_seconds\":" + trajectory_num(t.wall_seconds);
    out += ",\"alloc_probe\":" + std::string{t.alloc_probe ? "1" : "0"};
    out += ",\"procs\":" + std::to_string(t.procs);
    out += ",\"scale\":" + trajectory_num(t.scale);
    out += ",\"metrics\":{\"domains_per_sec\":" + trajectory_num(t.domains_per_sec);
    out += ",\"peak_rss_bytes\":" + std::to_string(t.peak_rss_bytes);
    out += ",\"allocs_per_domain\":" + trajectory_num(t.allocs_per_domain);
    out += ",\"alloc_bytes_per_domain\":" + trajectory_num(t.alloc_bytes_per_domain);
    out += ",\"peak_worker_rss_bytes\":" + std::to_string(t.peak_worker_rss_bytes);
    out += "}";
    return out;
}
}  // namespace detail

inline std::string to_json(const Trajectory& t) {
    return "{\"schema\":\"spinscope-bench-trajectory-v1\"," + detail::trajectory_fields(t) +
           "}";
}

/// Scale-sweep row family (spinscope-bench-scale-v1): one trajectory row per
/// population scale, measured back to back inside one process from the
/// largest downscale (fewest domains) to the smallest. peak_rss_bytes is the
/// process high-water mark and therefore monotone across rows — if campaign
/// state grew with the domain count, later (bigger-universe) rows would push
/// it up, so "last row ≈ first row" is exactly the flat-RSS proof
/// bench_check.py gates.
inline std::string scale_sweep_to_json(const std::vector<Trajectory>& rows) {
    std::string out = "{\"schema\":\"spinscope-bench-scale-v1\",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) out += ",";
        out += "{" + detail::trajectory_fields(rows[i]) + "}";
    }
    out += "]}";
    return out;
}

/// Writes the scale-sweep snapshot atomically and reports the path.
inline bool write_scale_sweep_file(const std::string& path,
                                   const std::vector<Trajectory>& rows) {
    if (util::write_file_atomic(path, scale_sweep_to_json(rows) + "\n")) {
        std::printf("wrote %s (%zu scale rows)\n", path.c_str(), rows.size());
        return true;
    }
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
}

/// Writes the snapshot atomically and reports the path.
inline bool write_trajectory_file(const std::string& path, const Trajectory& t) {
    if (util::write_file_atomic(path, to_json(t) + "\n")) {
        std::printf("wrote %s (%s: %.0f domains/sec, %.1f MB peak RSS)\n", path.c_str(),
                    t.bench.c_str(), t.domains_per_sec,
                    static_cast<double>(t.peak_rss_bytes) / (1024.0 * 1024.0));
        return true;
    }
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
}

}  // namespace spinscope::bench
