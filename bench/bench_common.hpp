// bench/bench_common.hpp
//
// Shared plumbing for the table/figure reproduction harnesses: command-line
// options (scale, seed), wall-clock timing, banner output and the two scan
// paths the artifacts come from (run_campaign for the tables,
// for_each_corpus_domain for the figures). bench_table1 prints Tables 1-3
// from one IPv4 campaign, bench_table4 Table 4 from the IPv6 one, and
// bench_figures Figures 2-4 from one corpus. See EXPERIMENTS.md.

#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench/progress.hpp"
#include "bench/trajectory.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/procpool.hpp"
#include "scanner/shard.hpp"
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
    /// Extra per-bench knob (e.g. sampled weeks for bench_figures).
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
    /// run_campaign removes the directory when the campaign ends.
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

/// The flag a usage entry names: "--scale" for "--scale=N", "--progress"
/// for "--progress[=N]".
constexpr std::string_view flag_name(std::string_view entry) {
    return entry.substr(0, entry.find_first_of("=["));
}

/// Prints the usage, the `flags` the harness honours, and exits: 0 for
/// --help (`bad` null, usage on stdout), 2 with the usage on stderr for an
/// argument the harness refuses.
[[noreturn]] inline void usage(const char* program, std::span<const std::string_view> flags,
                               const char* bad) {
    if (bad != nullptr) std::fprintf(stderr, "bad argument '%s'\n", bad);
    std::FILE* out = bad == nullptr ? stdout : stderr;
    std::fprintf(out, "usage: %s", program);
    for (const std::string_view flag : flags) {
        std::fprintf(out, " [%.*s]", static_cast<int>(flag.size()), flag.data());
    }
    std::fprintf(out, "\n");
    std::exit(bad == nullptr ? 0 : 2);
}

/// Sets the option of `flag` from `value` (nullopt for a bare switch such as
/// --resume); false when the flag is unknown or the value does not parse.
inline bool parse_flag(std::string_view flag, std::optional<std::string_view> value,
                       Options& options) {
    if (!value) {
        if (flag == "--resume") {
            options.resume = true;
        } else if (flag == "--scrub") {
            options.scrub = true;
        } else if (flag == "--progress") {
            options.progress_every = 500;
        } else {
            return false;
        }
        return true;
    }
    const std::string_view v = *value;
    if (flag == "--scale") return parse_scale(v, options.scale);
    if (flag == "--seed") return parse_whole(v, options.seed);
    if (flag == "--count") return parse_whole(v, options.count);
    if (flag == "--threads") return parse_whole(v, options.threads);
    if (flag == "--procs") return parse_whole(v, options.procs);
    if (flag == "--progress") return parse_whole(v, options.progress_every);
    if (flag == "--scales") {
        options.scales.clear();
        for (std::string_view rest = v;;) {
            const auto comma = rest.find(',');
            double scale = 0.0;
            if (!parse_scale(rest.substr(0, comma), scale)) return false;
            options.scales.push_back(scale);
            if (comma == std::string_view::npos) return true;
            rest.remove_prefix(comma + 1);
        }
    }
    std::string* const text = flag == "--csv"          ? &options.csv_prefix
                              : flag == "--telemetry"  ? &options.telemetry_path
                              : flag == "--journal"    ? &options.journal_dir
                              : flag == "--trace"      ? &options.trace_path
                              : flag == "--trajectory" ? &options.trajectory_path
                                                       : nullptr;
    if (text != nullptr) *text = v;
    return text != nullptr;
}

/// Parses the harness flags. `flags` lists the usage entry ("--journal=dir")
/// of every flag the harness reads; any other, a typo like --scal=5000 or a
/// flag the bench would ignore, exits 2 with the usage rather than being
/// dropped without a word. --help prints the usage and exits 0.
inline Options parse_options(int argc, char** argv, std::span<const std::string_view> flags,
                             std::uint64_t default_count = 0) {
    Options options;
    options.count = default_count;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg{argv[i]};
        if (arg == "--help") usage(argv[0], flags, nullptr);
        const auto eq = arg.find('=');
        const std::string_view flag = arg.substr(0, eq);
        std::optional<std::string_view> value;
        if (eq != std::string_view::npos) value = arg.substr(eq + 1);
        const auto names_flag = [flag](std::string_view entry) {
            return flag_name(entry) == flag;
        };
        if (!std::ranges::any_of(flags, names_flag) || !parse_flag(flag, value, options)) {
            usage(argv[0], flags, argv[i]);
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
        std::error_code error;
        const auto temp = std::filesystem::temp_directory_path(error);
        if (error) {
            std::fprintf(stderr, "--procs needs a temp directory for its journal: %s\n",
                         error.message().c_str());
            std::exit(1);
        }
        const auto dir =
            temp / ("spinscope-bench-journal-" + std::to_string(util::current_pid()));
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

/// Domains per corpus work block: the id range a worker materializes and
/// scans at once. About 5 % of the ids are spin-capable QUIC domains, each
/// held with all its weekly scans until merged, so a small block keeps the
/// scans in flight few (peak RSS at 1:2000 grows by ~3 MB from 32 to 1024).
inline constexpr std::size_t kCorpusBlockDomains = 32;

/// The Figures 2-4 corpus (paper §4.2, §5.1): calls `visit(domain, scans)`
/// for every spin-capable QUIC domain, in domain-id order, where
/// `scans[sample]` is the domain's scan in sampled_week(sample, weeks).
/// Workers (scanner::run_sharded, `threads` as ScanOptions::threads) each
/// materialize one kCorpusBlockDomains block of ids at a time and scan its
/// corpus domains through one Campaign per week; `visit` runs on the calling
/// thread. A domain's scans do not depend on the thread count (DESIGN.md
/// §9), and memory is bounded by the shard window, not by the universe.
template <typename Visit>
void for_each_corpus_domain(const web::PopulationModel& population, unsigned weeks,
                            unsigned threads, Visit&& visit) {
    std::vector<scanner::Campaign> campaigns;
    campaigns.reserve(weeks);
    for (unsigned sample = 0; sample < weeks; ++sample) {
        scanner::ScanOptions scan_options;
        scan_options.week = sampled_week(sample, weeks);
        campaigns.emplace_back(population, scan_options);
    }
    struct CorpusDomain {
        web::Domain domain;
        std::vector<scanner::DomainScan> scans;  ///< one per sampled week
    };
    const scanner::ShardConfig shard{threads};
    const scanner::ShardPlan plan{population.domain_count(), kCorpusBlockDomains};
    // Block c lives in slot c % window until merged: run_sharded admits
    // block c + window only after block c's merge returned.
    std::vector<std::vector<CorpusDomain>> slots(shard.window_chunks());
    scanner::run_sharded(
        shard, plan,
        [&](std::size_t block) {
            auto& slot = slots[block % slots.size()];
            const auto universe = population.materialize(plan.chunk_begin(block),
                                                         plan.chunk_end(block));
            for (const web::Domain& domain : universe.domains) {
                if (!domain.quic || population.org_of(domain).spin_host_rate <= 0.0) continue;
                auto& entry = slot.emplace_back(CorpusDomain{domain, {}});
                entry.scans.reserve(weeks);
                for (const auto& campaign : campaigns) {
                    entry.scans.push_back(campaign.scan_domain(domain));
                }
            }
        },
        [&](std::size_t block) {
            auto& slot = slots[block % slots.size()];
            for (const CorpusDomain& entry : slot) {
                visit(entry.domain, std::span<const scanner::DomainScan>{entry.scans});
            }
            slot.clear();
        });
}

/// Runs (or, with --resume, continues) a campaign honouring the harness's
/// journal, flight-recorder and progress options. Benches that drive a
/// Campaign route it through here so every table binary gets
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
    // A journal of another campaign (other options, universe or metric
    // catalog), a journal locked by a live run or a storage failure ends
    // the run with one line and exit 1.
    bool failed = false;
    try {
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
        } else if (options.resume) {
            std::printf("resuming from journal %s\n", options.journal_dir.c_str());
            stats = campaign.reduce(sink);
        } else {
            stats = campaign.run(sink);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign failed: %s\n", e.what());
        failed = true;
    }
    // The journal parked in the temp directory goes whether or not the
    // campaign finished.
    if (options.journal_is_temp) {
        std::error_code ec;
        std::filesystem::remove_all(options.journal_dir, ec);
    }
    if (failed) std::exit(1);

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

/// Prints the bench's header. The population scale is printed only by a
/// bench whose `flags` include --scale: the others build no population.
inline void banner(const char* what, const Options& options,
                   std::span<const std::string_view> flags) {
    std::printf("=== spinscope bench: %s ===\n", what);
    if (std::ranges::any_of(flags, [](std::string_view e) { return flag_name(e) == "--scale"; })) {
        std::printf("population scale 1:%.0f, ", options.scale);
    }
    std::printf("seed %llu", static_cast<unsigned long long>(options.seed));
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
