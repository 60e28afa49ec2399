// bench/bench_common.hpp
//
// Shared plumbing for the table/figure reproduction harnesses: command-line
// options (scale, seed), wall-clock timing and banner output. Each bench
// binary regenerates one table or figure of the paper; see EXPERIMENTS.md.

#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench/progress.hpp"
#include "bench/trajectory.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/procpool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/proc.hpp"

namespace spinscope::bench {

/// Common harness options. `scale` divides the paper's CW 20/2023 universe;
/// all percentages are scale-invariant, absolute counts scale linearly.
struct Options {
    double scale = 2000.0;
    /// Multi-scale sweep (--scales=A,B,C): benches that support it run once
    /// per scale and emit a spinscope-bench-scale-v1 row family to
    /// --trajectory instead of a single row. Empty = single --scale run.
    std::vector<double> scales;
    std::uint64_t seed = 20230520;
    /// Extra per-bench knob (e.g. corpus size for the accuracy figures).
    std::uint64_t count = 0;
    /// When non-empty, figure benches also write their data series as
    /// <csv_prefix><figure>.csv for external plotting.
    std::string csv_prefix;
    /// Telemetry sidecar path; "<bench>.telemetry.json" by default,
    /// overridable with --telemetry=path, disabled with --telemetry=off.
    std::string telemetry_path;
    /// Campaign worker threads (ScanOptions::threads); 0 = one per hardware
    /// thread. Results are byte-identical for every value (DESIGN.md §9) —
    /// this is purely a wall-clock knob.
    unsigned threads = 1;
    /// Crash-safe journal directory (ScanOptions::journal_dir, DESIGN.md
    /// §11); empty disables journaling.
    std::string journal_dir;
    /// Worker processes (--procs=N, DESIGN.md §11): the map pass forks N
    /// crash-isolated workers over a shared journal, then reduces. 0 = the
    /// classic single-process run. Byte-identical output for every value.
    unsigned procs = 0;
    /// True when --procs had to synthesize journal_dir (no --journal given);
    /// run_campaign removes the directory after a successful reduce.
    bool journal_is_temp = false;
    /// Continue the journal left by a killed run (--resume; requires
    /// --journal): Campaign::reduce replays what it holds and scans the
    /// rest. Output is byte-identical to an uninterrupted run.
    bool resume = false;
    /// Verify-and-repair the journal before running (--scrub; requires
    /// --journal, DESIGN.md §16): corrupt record files are quarantined into
    /// <journal>/corrupt/ and the scrub report printed. Combine with
    /// --resume to pick a damaged campaign back up.
    bool scrub = false;
    /// Flight-recorder output (--trace=FILE, off by default): run_campaign
    /// records the campaign timeline and writes FILE (deterministic sim
    /// spans; Perfetto/chrome://tracing loadable) plus a `.wall.json`
    /// scheduling sidecar next to it.
    std::string trace_path;
    /// Live progress line every N merged domains (--progress or
    /// --progress=N); 0 = off.
    std::uint64_t progress_every = 0;
    /// Perf-trajectory snapshot path (--trajectory=FILE); empty = off. See
    /// bench/trajectory.hpp.
    std::string trajectory_path;
};

inline Options parse_options(int argc, char** argv, std::uint64_t default_count = 0) {
    Options options;
    options.count = default_count;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--scale=", 8) == 0) {
            options.scale = std::atof(arg + 8);
        } else if (std::strncmp(arg, "--scales=", 9) == 0) {
            options.scales.clear();
            for (const char* p = arg + 9; *p != '\0';) {
                char* end = nullptr;
                const double value = std::strtod(p, &end);
                if (end == p) break;  // trailing garbage: stop parsing
                if (value > 0.0) options.scales.push_back(value);
                p = (*end == ',') ? end + 1 : end;
            }
            if (options.scales.empty()) {
                std::fprintf(stderr, "--scales needs a comma-separated list of "
                                     "positive downscale factors\n");
                std::exit(2);
            }
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            options.seed = std::strtoull(arg + 7, nullptr, 10);
        } else if (std::strncmp(arg, "--count=", 8) == 0) {
            options.count = std::strtoull(arg + 8, nullptr, 10);
        } else if (std::strncmp(arg, "--csv=", 6) == 0) {
            options.csv_prefix = arg + 6;
        } else if (std::strncmp(arg, "--telemetry=", 12) == 0) {
            options.telemetry_path = arg + 12;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            options.threads = static_cast<unsigned>(std::strtoul(arg + 10, nullptr, 10));
        } else if (std::strncmp(arg, "--journal=", 10) == 0) {
            options.journal_dir = arg + 10;
        } else if (std::strncmp(arg, "--procs=", 8) == 0) {
            options.procs = static_cast<unsigned>(std::strtoul(arg + 8, nullptr, 10));
        } else if (std::strcmp(arg, "--resume") == 0) {
            options.resume = true;
        } else if (std::strcmp(arg, "--scrub") == 0) {
            options.scrub = true;
        } else if (std::strncmp(arg, "--trace=", 8) == 0) {
            options.trace_path = arg + 8;
        } else if (std::strcmp(arg, "--progress") == 0) {
            options.progress_every = 500;
        } else if (std::strncmp(arg, "--progress=", 11) == 0) {
            options.progress_every = std::strtoull(arg + 11, nullptr, 10);
        } else if (std::strncmp(arg, "--trajectory=", 13) == 0) {
            options.trajectory_path = arg + 13;
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf(
                "usage: %s [--scale=N] [--scales=A,B,C] [--seed=N] [--count=N] [--csv=prefix] "
                "[--telemetry=path|off] [--threads=N] [--journal=dir] [--procs=N] "
                "[--resume] [--scrub] [--trace=file] [--progress[=N]] "
                "[--trajectory=file]\n",
                argv[0]);
            std::exit(0);
        }
    }
    if (options.resume && options.journal_dir.empty()) {
        std::fprintf(stderr, "--resume requires --journal=dir\n");
        std::exit(2);
    }
    if (options.scrub && options.journal_dir.empty()) {
        std::fprintf(stderr, "--scrub requires --journal=dir\n");
        std::exit(2);
    }
    if (options.procs > 0 && options.journal_dir.empty()) {
        // The multi-process map pass needs a shared journal even when the
        // caller doesn't care about crash recovery; park one in the system
        // temp directory and clean it up after the reduce.
        const auto dir = std::filesystem::temp_directory_path() /
                         ("spinscope-bench-journal-" +
                          std::to_string(util::current_pid()));
        options.journal_dir = dir.string();
        options.journal_is_temp = true;
    }
    return options;
}

/// RAII wall-clock section timer.
class Stopwatch {
public:
    Stopwatch() : start_{std::chrono::steady_clock::now()} {}
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Runs (or, with --resume, continues) a campaign honouring the harness's
/// journal, flight-recorder and progress options. Benches that drive a
/// Campaign route it through here so every table/figure binary gets
/// kill-and-resume, --trace and --progress for free.
template <typename Sink>
scanner::CampaignStats run_campaign(const Options& options, scanner::Campaign& campaign,
                                    Sink&& sink) {
    telemetry::TraceRecorder trace;
    if (!options.trace_path.empty()) campaign.set_trace(&trace);
    ProgressReporter reporter{campaign.domain_count()};
    if (options.progress_every > 0) {
        campaign.set_progress(options.progress_every,
                              [&reporter](const scanner::CampaignStats& stats) {
                                  reporter.report(stats);
                              });
    }

    scanner::CampaignStats stats;
    if (options.scrub) {
        // Offline verify/repair before touching the journal (DESIGN.md §16):
        // after this, reduce sees either a clean journal or an explicit
        // rescan list — never a torn or corrupt record.
        const scanner::ScrubReport report =
            scanner::scrub_journal(options.journal_dir);
        std::printf("%s", report.render().c_str());
    }
    if (options.procs > 0) {
        // Crash-isolated map pass (DESIGN.md §11): fork N workers over a
        // shared journal, then reduce it through the caller's sink. --resume
        // keeps whatever chunks a previous (possibly killed) run journaled.
        // The two phases are timed apart and the run's rate covers both.
        scanner::ProcPoolOptions pool;
        pool.procs = options.procs;
        pool.fresh = !options.resume;
        if (options.resume) {
            std::printf("resuming from journal %s\n", options.journal_dir.c_str());
        }
        const Stopwatch map_watch;
        const scanner::ProcPoolReport report = scanner::run_procs(campaign, pool);
        const double map_seconds = map_watch.seconds();
        std::printf("map pass: %u worker procs, %llu/%llu chunks journaled "
                    "(%llu proc restarts, %llu hang kills, %llu quarantined) in %.2f s\n",
                    report.procs,
                    static_cast<unsigned long long>(report.chunks_recorded),
                    static_cast<unsigned long long>(report.chunks_total),
                    static_cast<unsigned long long>(report.proc_restarts),
                    static_cast<unsigned long long>(report.hang_kills),
                    static_cast<unsigned long long>(report.chunks_quarantined), map_seconds);
        stats = campaign.reduce(sink);
        std::printf("reduce: %.2f s; map pass + reduce %.2f s\n", stats.wall_seconds,
                    map_seconds + stats.wall_seconds);
        stats.wall_seconds += map_seconds;
        stats.proc_restarts = report.proc_restarts;
        if (options.journal_is_temp) {
            std::error_code ec;
            std::filesystem::remove_all(options.journal_dir, ec);
        }
    } else if (options.resume) {
        std::printf("resuming from journal %s\n", options.journal_dir.c_str());
        stats = campaign.reduce(sink);
    } else {
        stats = campaign.run(sink);
    }

    if (options.progress_every > 0) {
        reporter.finish(stats);
        campaign.set_progress(0, {});
    }
    if (!options.trace_path.empty()) {
        campaign.set_trace(nullptr);
        if (trace.write(options.trace_path)) {
            std::printf("wrote %s (+ %s)\n", options.trace_path.c_str(),
                        telemetry::TraceRecorder::wall_sidecar_path(options.trace_path)
                            .c_str());
        } else {
            std::fprintf(stderr, "failed to write %s\n", options.trace_path.c_str());
        }
    }
    return stats;
}

/// Writes the harness's --trajectory snapshot, if requested.
inline void write_trajectory(const Options& options, const Trajectory& trajectory) {
    if (options.trajectory_path.empty()) return;
    write_trajectory_file(options.trajectory_path, trajectory);
}

/// Writes the run's metrics registry as a JSON sidecar next to the bench
/// output, so a BENCH_*.json delta can be attributed to specific phases.
/// `name` is the bench identifier ("table1"); the default path is
/// <name>.telemetry.json. --telemetry=off suppresses the sidecar.
inline void write_telemetry(const Options& options, const char* name,
                            const telemetry::MetricsRegistry& registry) {
    if (options.telemetry_path == "off") return;
    const std::string path = options.telemetry_path.empty()
                                 ? std::string{name} + ".telemetry.json"
                                 : options.telemetry_path;
    if (telemetry::write_json_file(registry, path)) {
        std::printf("wrote %s (%zu metrics)\n", path.c_str(), registry.size());
    } else {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
    }
}

/// Writes `content` to `<prefix><name>` atomically (write-temp + rename, so
/// a crash mid-export never leaves a torn CSV) and reports the path.
inline void write_csv(const Options& options, const char* name, const std::string& content) {
    if (options.csv_prefix.empty()) return;
    const std::string path = options.csv_prefix + name;
    if (util::write_file_atomic(path, content)) {
        std::printf("wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
    }
}

inline void banner(const char* what, const Options& options) {
    std::printf("=== spinscope bench: %s ===\n", what);
    std::printf("population scale 1:%.0f, seed %llu", options.scale,
                static_cast<unsigned long long>(options.seed));
    if (options.threads != 1) {
        std::printf(", campaign threads %u%s", options.threads,
                    options.threads == 0 ? " (hardware)" : "");
    }
    if (options.procs > 0) {
        std::printf(", worker procs %u", options.procs);
    }
    std::printf("\n\n");
}

}  // namespace spinscope::bench
