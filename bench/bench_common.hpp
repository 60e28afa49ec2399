// bench/bench_common.hpp
//
// Shared plumbing for the table/figure reproduction harnesses: command-line
// options (scale, seed), wall-clock timing and banner output. Each bench
// binary regenerates one table or figure of the paper; see EXPERIMENTS.md.

#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "analysis/accuracy.hpp"
#include "bench/progress.hpp"
#include "bench/trajectory.hpp"
#include "core/accuracy.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/procpool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/proc.hpp"
#include "web/population.hpp"

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

/// Reads all of `text` as a T; false on an empty, partial or out-of-range
/// number.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc{} && end == text.data() + text.size();
}

/// A downscale factor the population model accepts: a whole finite number
/// above zero whose domain count fits the 32-bit domain ids.
inline bool parse_scale(std::string_view text, double& out) {
    return parse_whole(text, out) && web::PopulationModel::valid_scale(out);
}

inline Options parse_options(int argc, char** argv, std::uint64_t default_count = 0) {
    Options options;
    options.count = default_count;
    // --help prints the usage and exits 0; an unknown flag (a typo like
    // --scal=5000) or a value that does not parse exits 2 with it.
    const auto usage = [&](const char* bad) {
        if (bad != nullptr) std::fprintf(stderr, "bad argument '%s'\n", bad);
        std::fprintf(
            bad == nullptr ? stdout : stderr,
            "usage: %s [--scale=N] [--scales=A,B,C] [--seed=N] [--count=N] [--csv=prefix] "
            "[--telemetry=path|off] [--threads=N] [--journal=dir] [--procs=N] "
            "[--resume] [--scrub] [--trace=file] [--progress[=N]] "
            "[--trajectory=file]\n",
            argv[0]);
        std::exit(bad == nullptr ? 0 : 2);
    };
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const std::string_view a{arg};
        // The value of `--name=`, or nullopt when `arg` is another flag.
        const auto value = [&a](std::string_view flag) -> std::optional<std::string_view> {
            if (!a.starts_with(flag)) return std::nullopt;
            return a.substr(flag.size());
        };
        bool ok = true;
        if (const auto v = value("--scale=")) {
            ok = parse_scale(*v, options.scale);
        } else if (const auto list = value("--scales=")) {
            options.scales.clear();
            for (std::string_view rest = *list; ok;) {
                const auto comma = rest.find(',');
                double scale = 0.0;
                ok = parse_scale(rest.substr(0, comma), scale);
                options.scales.push_back(scale);
                if (comma == std::string_view::npos) break;
                rest.remove_prefix(comma + 1);
            }
        } else if (const auto v = value("--seed=")) {
            ok = parse_whole(*v, options.seed);
        } else if (const auto v = value("--count=")) {
            ok = parse_whole(*v, options.count);
        } else if (const auto v = value("--csv=")) {
            options.csv_prefix = *v;
        } else if (const auto v = value("--telemetry=")) {
            options.telemetry_path = *v;
        } else if (const auto v = value("--threads=")) {
            ok = parse_whole(*v, options.threads);
        } else if (const auto v = value("--journal=")) {
            options.journal_dir = *v;
        } else if (const auto v = value("--procs=")) {
            ok = parse_whole(*v, options.procs);
        } else if (a == "--resume") {
            options.resume = true;
        } else if (a == "--scrub") {
            options.scrub = true;
        } else if (const auto v = value("--trace=")) {
            options.trace_path = *v;
        } else if (a == "--progress") {
            options.progress_every = 500;
        } else if (const auto v = value("--progress=")) {
            ok = parse_whole(*v, options.progress_every);
        } else if (const auto v = value("--trajectory=")) {
            options.trajectory_path = *v;
        } else {
            usage(a == "--help" ? nullptr : arg);
        }
        if (!ok) usage(arg);
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

/// Reports an output the harness could not write and exits 1: a bench run
/// that lost an artifact has failed.
[[noreturn]] inline void write_failed(const std::string& path) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
}

/// The campaign week of sample `sample` when `weeks` samples spread evenly
/// over the 58-week campaign (CW 15/2022 - CW 20/2023), ends included.
inline int sampled_week(unsigned sample, unsigned weeks) {
    return static_cast<int>(sample * 57 / (weeks > 1 ? weeks - 1 : 1));
}

/// Calls `visit(domain, sample, attempt, trace)` for every OK connection of
/// the spin-capable QUIC domains over `weeks` sampled weeks and returns how
/// many there were: the §5.1 corpus of Figures 3 and 4 ("all IPv4
/// connections with spin bit activity throughout the campaign"). `attempt`
/// indexes the trace within its DomainScan.
template <typename Visit>
std::uint64_t for_each_accuracy_connection(const web::PopulationModel& population,
                                           unsigned weeks, Visit&& visit) {
    std::uint64_t connections = 0;
    const auto universe = population.materialize(0, population.domain_count());
    for (unsigned sample = 0; sample < weeks; ++sample) {
        scanner::ScanOptions scan_options;
        scan_options.week = sampled_week(sample, weeks);
        scanner::Campaign campaign{population, scan_options};
        for (const auto& domain : universe.domains) {
            if (!domain.quic || population.org_of(domain).spin_host_rate <= 0.0) continue;
            const auto scan = campaign.scan_domain(domain);
            for (std::size_t i = 0; i < scan.connections.size(); ++i) {
                if (scan.connections[i].outcome != qlog::ConnectionOutcome::ok) continue;
                ++connections;
                visit(domain, sample, i, scan.connections[i]);
            }
        }
    }
    return connections;
}

/// Feeds the accuracy corpus into `aggregator`; returns its connection count.
inline std::uint64_t build_accuracy_corpus(const web::PopulationModel& population,
                                           unsigned weeks,
                                           analysis::AccuracyAggregator& aggregator) {
    return for_each_accuracy_connection(
        population, weeks,
        [&aggregator](const web::Domain&, unsigned, std::size_t, const qlog::Trace& trace) {
            aggregator.add(core::assess_connection(trace));
        });
}

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
            write_failed(options.trace_path);
        }
    }
    return stats;
}

/// Writes the harness's --trajectory snapshot, if requested; exits 1 when
/// it cannot.
inline void write_trajectory(const Options& options, const Trajectory& trajectory) {
    if (options.trajectory_path.empty()) return;
    if (!write_trajectory_file(options.trajectory_path, trajectory)) std::exit(1);
}

/// Writes the run's metrics registry as a JSON sidecar next to the bench
/// output, so a BENCH_*.json delta can be attributed to specific phases.
/// `name` is the bench identifier ("table1"); the default path is
/// <name>.telemetry.json. --telemetry=off suppresses the sidecar. Exits 1
/// when the sidecar cannot be written.
inline void write_telemetry(const Options& options, const char* name,
                            const telemetry::MetricsRegistry& registry) {
    if (options.telemetry_path == "off") return;
    const std::string path = options.telemetry_path.empty()
                                 ? std::string{name} + ".telemetry.json"
                                 : options.telemetry_path;
    if (telemetry::write_json_file(registry, path)) {
        std::printf("wrote %s (%zu metrics)\n", path.c_str(), registry.size());
    } else {
        write_failed(path);
    }
}

/// Writes `content` to `<prefix><name>` atomically (write-temp + rename, so
/// a crash mid-export never leaves a torn CSV) and reports the path. Exits 1
/// when the file cannot be written.
inline void write_csv(const Options& options, const char* name, const std::string& content) {
    if (options.csv_prefix.empty()) return;
    const std::string path = options.csv_prefix + name;
    if (util::write_file_atomic(util::Io::real(), path, content)) {
        std::printf("wrote %s\n", path.c_str());
    } else {
        write_failed(path);
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
