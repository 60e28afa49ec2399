// perfbench/harness/main.cpp
//
// spinbench: the measuring half of the benchmark (perfbench/run.py builds it,
// runs it and prints the result line). One invocation runs one workload:
//
//   spinbench --workload W --seed N --seconds S --trace 0|1
//             --work-dir DIR --out-dir DIR
//   spinbench --list-metrics
//
// With --trace 0 it times the workload's public entry points end to end and
// repeats them for S seconds. With --trace 1 it measures the per-layer
// ledger instead: harness replicas of each pipeline, built from the same
// public functions the library composes internally, with a span around
// every call. The last stdout line is `RESULT <json>`.
//
// The network is netsim, spinscope's in-process simulator: no packet crosses
// a real link.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/adoption.hpp"
#include "catalog.hpp"
#include "core/constrained_monitor.hpp"
#include "inputs.hpp"
#include "ledger.hpp"
#include "qlog/trace.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/procpool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "web/population.hpp"
// Heap accounting for scanner.allocs_per_domain; this is the binary's single
// translation unit, the one place the interposer may live.
#include "telemetry/alloc_interpose.hpp"

using namespace spinscope;
namespace fs = std::filesystem;
using perfbench::Span;
using perfbench::Tracer;

namespace {

constexpr const char* kWorkloads[] = {"sweep_inproc", "sweep_reduce"};
/// Set-ups timed after every pass, so that setup_s (their median) samples
/// the host over the whole run, not over the few milliseconds that one batch
/// of set-ups takes.
constexpr int kSetupsPerPass = 8;
/// The end-to-end rate is this percentile of the per-pass rates, and the CPU
/// cost the mirror one of per-pass CPU (basis points). On a shared host other
/// tenants only ever slow a pass down, in bursts shorter than a run: on a
/// 4-vCPU cloud VM passes of identical work varied by up to 1.5x within one
/// run, and the fast passes varied least between runs.
constexpr unsigned kFastPassBp = 9000;
/// End-to-end passes per run at least, whatever --seconds says.
constexpr int kMinPasses = 3;
/// Untimed passes before timing starts, so caches fill and the heap has
/// grown to its working size (the first sweeps run up to 2x slower).
constexpr double kWarmupSeconds = 1.0;
/// Traced run: untraced/traced replica pairs per pipeline.
constexpr int kTracePairs = 2;
/// Every kSampleEvery-th chunk feeds the per-domain and to_jsonl samples.
constexpr std::size_t kSampleEvery = 8;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".";
    std::string out_dir = ".";
    bool list_metrics = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "spinbench: %s\nusage: spinbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --out-dir DIR | --list-metrics\n",
                 why);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-metrics") {
            args.list_metrics = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.list_metrics) return args;
    if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads), [&](const char* w) {
            return args.workload == w;
        }) == std::end(kWorkloads)) {
        usage(("unknown workload '" + args.workload + "'").c_str());
    }
    if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    return args;
}

// --- build and host context ----------------------------------------------------

const char* build_type() { return PERFBENCH_BUILD_TYPE; }

/// Why this binary must not be timed, or nullptr when it may.
const char* unfit_build() {
#if !defined(__OPTIMIZE__)
    return "unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#else
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) return "sanitizer build";
    return nullptr;
#endif
}

/// CPU seconds of this process plus its reaped children.
struct CpuTimes {
    double self = 0.0;
    double children = 0.0;
    [[nodiscard]] double total() const noexcept { return self + children; }
};

double seconds_of(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

CpuTimes cpu_now() {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return {seconds_of(self.ru_utime) + seconds_of(self.ru_stime),
            seconds_of(children.ru_utime) + seconds_of(children.ru_stime)};
}

double wall_since(std::int64_t start_ns) {
    return static_cast<double>(perfbench::now_ns() - start_ns) / 1e9;
}

std::uint64_t dir_bytes(const fs::path& dir) {
    std::uint64_t total = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
}

// --- output checks -----------------------------------------------------------------

class Checks {
public:
    void require(bool ok, const std::string& what) {
        if (!ok) failures_.push_back(what);
    }
    [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
    [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

private:
    std::vector<std::string> failures_;
};

// --- result ----------------------------------------------------------------------

std::string json_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// A workload-specific figure, printed by name and unit with the report.
void report(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
}

/// The run's outcome: the catalog metrics of its mode, the output digest and
/// the item counts.
class Result {
public:
    explicit Result(bool trace) : trace_{trace} {}

    /// Sets a catalog metric of this run's mode; unknown names are a bug.
    void metric(const std::string& name, double value) {
        const perfbench::MetricDef* def = trace_ ? perfbench::find_metric(perfbench::kPerLayer, name)
                                                 : perfbench::find_metric(perfbench::kEndToEnd, name);
        if (def == nullptr) throw std::logic_error("metric not in the catalog: " + name);
        metrics_[name] = value;
    }

    std::string digest;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// The RESULT line: every catalog metric of the mode must have been set.
    [[nodiscard]] std::string json(const Checks& checks) const {
        std::string out = "{\"build_type\":" + json_string(build_type());
        out += ",\"correct\":" + std::string{checks.ok() ? "true" : "false"};
        out += ",\"attempted\":" + std::to_string(attempted);
        out += ",\"failed\":" + std::to_string(failed);
        out += ",\"digest\":" + json_string(digest);
        out += ",\"metrics\":{";
        bool first = true;
        const auto emit_catalog = [&](const auto& defs) {
            for (const perfbench::MetricDef& def : defs) {
                const auto it = metrics_.find(def.name);
                if (it == metrics_.end()) {
                    throw std::logic_error(std::string{"metric not measured: "} + def.name);
                }
                out += (first ? "" : ",") + json_string(def.name) + ":{\"value\":" +
                       json_number(it->second) + ",\"unit\":" + json_string(def.unit) + "}";
                first = false;
            }
        };
        if (trace_) {
            emit_catalog(perfbench::kPerLayer);
        } else {
            emit_catalog(perfbench::kEndToEnd);
        }
        return out + "}}";
    }

private:
    bool trace_;
    std::map<std::string, double> metrics_;
};

std::string catalog_json() {
    std::string out = "{";
    const auto list = [&](const char* key, const auto& defs) {
        out += json_string(key) + ":[";
        bool first = true;
        for (const perfbench::MetricDef& def : defs) {
            out += (first ? "" : ",") + std::string{"{\"name\":"} + json_string(def.name) +
                   ",\"unit\":" + json_string(def.unit) + ",\"better\":" +
                   json_string(def.better) + "}";
            first = false;
        }
        out += "]";
    };
    list("end_to_end", perfbench::kEndToEnd);
    out += ",";
    list("per_layer", perfbench::kPerLayer);
    return out + "}";
}

// --- sweeps: end to end -------------------------------------------------------------

/// Everything a sweep needs before its first domain: the universe model, the
/// campaign and (journaled modes) an initialised map-journal directory.
struct SweepSetup {
    std::unique_ptr<web::PopulationModel> model;
    std::unique_ptr<scanner::Campaign> campaign;
};

scanner::CampaignHeader journal_header(const scanner::Campaign& campaign) {
    scanner::CampaignHeader header;
    header.seed = campaign.options().seed;
    header.week = campaign.options().week;
    header.ipv6 = campaign.options().ipv6;
    header.chunk_domains = campaign.options().chunk_domains;
    header.domain_count = campaign.domain_count();
    header.has_telemetry = true;
    return header;
}

SweepSetup make_sweep_setup(std::uint64_t seed, const std::string& journal_dir) {
    SweepSetup setup;
    setup.model = std::make_unique<web::PopulationModel>(perfbench::universe_config(seed));
    setup.campaign = std::make_unique<scanner::Campaign>(
        *setup.model, perfbench::sweep_options(seed, journal_dir));
    if (!journal_dir.empty()) {
        fs::create_directories(journal_dir);
        scanner::init_map_journal(journal_dir, journal_header(*setup.campaign), /*wipe=*/true);
    }
    return setup;
}

/// How a sweep reaches its output.
enum class SweepMode {
    inproc,   ///< Campaign::run on kWorkers threads
    durable,  ///< run_procs (kWorkers processes, map journal) + Campaign::reduce
    reduce,   ///< Campaign::reduce alone, over a complete map journal
};

/// One end-to-end sweep, timed by the benchmark's own clock.
struct SweepSample {
    double wall_s = 0.0;    ///< durable: map_s + reduce_s
    double map_s = 0.0;     ///< durable only
    double reduce_s = 0.0;  ///< durable and reduce
    double cpu_s = 0.0;     ///< process + reaped children
    double children_cpu_s = 0.0;
    std::uint64_t domains = 0;
    std::uint64_t errored = 0;
    std::uint64_t journal_bytes = 0;
    scanner::ProcPoolReport pool;
    std::string overview;
    std::string digest;
};

/// The crash-isolated map pass: every chunk scanned by worker processes and
/// published into the fsync'd map journal.
void map_pass(scanner::Campaign& campaign, SweepSample& out, Checks& checks) {
    scanner::ProcPoolOptions pool;
    pool.procs = perfbench::kWorkers;
    const CpuTimes cpu0 = cpu_now();
    const std::int64_t t0 = perfbench::now_ns();
    out.pool = scanner::run_procs(campaign, pool);
    out.map_s = wall_since(t0);
    const CpuTimes cpu1 = cpu_now();
    out.cpu_s += cpu1.total() - cpu0.total();
    out.children_cpu_s = cpu1.children - cpu0.children;
    out.journal_bytes = dir_bytes(campaign.options().journal_dir);
    checks.require(out.pool.chunks_recorded == out.pool.chunks_total,
                   "map pass left chunks unrecorded");
    checks.require(out.pool.chunks_quarantined == 0, "map pass quarantined chunks");
}

/// Runs `campaign` once in `mode`, streaming into a fresh Table 1 aggregator.
/// A metrics registry is attached, as the table benches do; the digest
/// covers the Table 1 overview and the deterministic telemetry view.
SweepSample sweep_once(const web::PopulationModel& model, scanner::Campaign& campaign,
                       SweepMode mode, Checks& checks) {
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    analysis::AdoptionAggregator aggregator{model, /*ipv6=*/false};
    const auto sink = [&aggregator](const web::Domain& domain, scanner::DomainScan&& scan) {
        aggregator.add(domain, scan);
    };

    SweepSample out;
    if (mode == SweepMode::durable) map_pass(campaign, out, checks);
    const CpuTimes cpu0 = cpu_now();
    const std::int64_t t0 = perfbench::now_ns();
    const scanner::CampaignStats stats =
        mode == SweepMode::inproc ? campaign.run(sink) : campaign.reduce(sink);
    const double seconds = wall_since(t0);
    out.cpu_s += cpu_now().total() - cpu0.total();
    if (mode != SweepMode::inproc) out.reduce_s = seconds;
    out.wall_s = out.map_s + seconds;
    campaign.set_metrics(nullptr);

    out.domains = stats.domains_scanned;
    out.errored = stats.domains_errored;
    checks.require(stats.domains_scanned == campaign.domain_count(),
                   "sweep scanned " + std::to_string(stats.domains_scanned) + " of " +
                       std::to_string(campaign.domain_count()) + " domains");
    out.overview = aggregator.render_overview_table();
    out.digest = perfbench::hex64(
        perfbench::fnv1a(telemetry::deterministic_csv(registry), perfbench::fnv1a(out.overview)));
    return out;
}

double median_of(const std::vector<double>& values) { return perfbench::median(values); }

/// Untimed warm-up passes for kWarmupSeconds, then the measured passes for
/// `seconds` (at least kMinPasses). Every pass must reproduce the first
/// warm-up pass's output digest.
template <typename Pass>
auto measured_passes(double seconds, Checks& checks, Pass&& pass) {
    const std::string warm = pass().digest;
    for (const std::int64_t t0 = perfbench::now_ns(); wall_since(t0) < kWarmupSeconds;) {
        checks.require(pass().digest == warm, "warm-up passes disagree");
    }
    std::vector<decltype(pass())> samples;
    for (const std::int64_t t0 = perfbench::now_ns();
         static_cast<int>(samples.size()) < kMinPasses || wall_since(t0) < seconds;) {
        samples.push_back(pass());
        checks.require(samples.back().digest == warm,
                       "pass " + std::to_string(samples.size()) + " output digest " +
                           samples.back().digest + " differs from the warm-up's " + warm);
    }
    return samples;
}

void run_sweep_e2e(const Args& args, SweepMode mode, Result& result, Checks& checks) {
    const fs::path work{args.work_dir};
    const bool journaled = mode != SweepMode::inproc;
    const SweepSetup setup = make_sweep_setup(args.seed, journaled ? (work / "journal").string() : "");
    // Timed set-ups build their own campaign (and journal directory, which
    // must not wipe the input journal) and discard it.
    std::vector<double> setup_seconds;
    const auto time_setups = [&] {
        for (int i = 0; i < kSetupsPerPass; ++i) {
            const std::int64_t t0 = perfbench::now_ns();
            const SweepSetup probe =
                make_sweep_setup(args.seed, journaled ? (work / "setup-journal").string() : "");
            setup_seconds.push_back(wall_since(t0));
        }
    };
    // Materializes the whole universe once, outside the timed set-ups: the
    // inputs the benchmark feeds the campaign, pinned by their digest.
    std::printf("universe: 1:%.0f of CW 20/2023 (week %d), %zu domains in %zu chunks, seed %llu, "
                "input digest %s\n",
                perfbench::kUniverseScale, perfbench::kTableOneWeek,
                setup.campaign->domain_count(), setup.campaign->chunk_count(),
                static_cast<unsigned long long>(args.seed),
                perfbench::hex64(perfbench::universe_digest(*setup.model)).c_str());

    // The reduce workload's input is the map journal of one untimed map pass.
    SweepSample input;
    if (mode == SweepMode::reduce) {
        telemetry::MetricsRegistry registry;
        setup.campaign->set_metrics(&registry);
        map_pass(*setup.campaign, input, checks);
        setup.campaign->set_metrics(nullptr);
        std::printf("input: map pass (%u worker processes) %.3f s, %llu journal bytes\n",
                    perfbench::kWorkers, input.map_s,
                    static_cast<unsigned long long>(input.journal_bytes));
    }

    const std::vector<SweepSample> samples = measured_passes(args.seconds, checks, [&] {
        SweepSample sample = sweep_once(*setup.model, *setup.campaign, mode, checks);
        time_setups();
        return sample;
    });
    for (std::size_t i = 0; i < samples.size(); ++i) {
        std::printf("sweep %2zu: %.3f s (%.0f domains/s)\n", i + 1, samples[i].wall_s,
                    static_cast<double>(samples[i].domains) / samples[i].wall_s);
    }

    std::vector<double> rate, cpu_us, reduce_s;
    std::uint64_t domains = 0, errored = 0;
    for (const SweepSample& s : samples) {
        const double n = static_cast<double>(s.domains);
        rate.push_back(n / s.wall_s);
        cpu_us.push_back(s.cpu_s * 1e6 / n);
        reduce_s.push_back(s.reduce_s);
        domains += s.domains;
        errored += s.errored;
    }
    // This process only: on sweep_reduce the worker processes of the input's
    // map pass are left out, so the figure covers the reduce alone.
    const double peak_mb = static_cast<double>(telemetry::peak_rss_bytes()) / 1e6;
    const double fast_rate = perfbench::percentile(rate, kFastPassBp);
    const double fast_cpu_us = perfbench::percentile(cpu_us, 10000 - kFastPassBp);
    const double setup_s = median_of(setup_seconds);
    result.digest = samples.front().digest;
    result.attempted = domains;
    result.failed = checks.ok() ? errored : domains;

    std::printf("\n%s: %zu sweeps, %zu set-ups:\n", args.workload.c_str(), samples.size(),
                setup_seconds.size());
    report("domains_per_sec (p90 of passes)", fast_rate, "1/s");
    report("domains_per_sec (median)", median_of(rate), "1/s");
    report("cpu_us_per_domain (p10 of passes)", fast_cpu_us, "us");
    report("cpu_us_per_domain (median)", median_of(cpu_us), "us");
    report("peak_rss_mb", peak_mb, "MB");
    report("failed_share", static_cast<double>(result.failed) / static_cast<double>(domains),
           "share");
    report("setup_s (median)", setup_s, "s");
    if (mode == SweepMode::reduce) {
        const double reduce = median_of(reduce_s);
        report("journal_bytes_per_domain",
               static_cast<double>(input.journal_bytes) / static_cast<double>(samples.front().domains),
               "B/domain");
        report("map_s", input.map_s, "s");
        report("reduce_s", reduce, "s");
        report("durable_domains_per_sec",
               static_cast<double>(samples.front().domains) / (input.map_s + reduce), "1/s");
        std::printf("  (durable rate: the input's map pass + the median reduce, each on the "
                    "benchmark's clock)\n");
    }
    std::printf("\nTable 1 overview (digest %s):\n%s\n", result.digest.c_str(),
                samples.front().overview.c_str());

    result.metric("domains_per_sec", fast_rate);
    result.metric("cpu_us_per_domain", fast_cpu_us);
    result.metric("peak_rss_mb", peak_mb);
    result.metric("setup_s", setup_s);
}

// --- observer (traced run) ----------------------------------------------------------

core::ConstrainedConfig monitor_config() {
    core::ConstrainedConfig config;
    config.log2_slots = perfbench::kMonitorLog2Slots;
    config.eviction = core::EvictionPolicy::lru;
    // A live flow is revisited every cohort-size packets; a resident quiet for
    // several full rounds belongs to a finished cohort.
    config.lru_idle_packets = 8 * perfbench::kCohortFlows;
    return config;
}

struct WireSample {
    double wall_s = 0.0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    core::ConstrainedTableCounters counters;
    std::uint64_t candidates = 0;
    std::uint64_t measured = 0;
    double err_sum = 0.0;

    [[nodiscard]] double coverage() const {
        return candidates > 0 ? static_cast<double>(measured) / static_cast<double>(candidates)
                              : 0.0;
    }
    [[nodiscard]] double mean_abs_err_ms() const {
        return measured > 0 ? err_sum / static_cast<double>(measured) : 0.0;
    }
};

/// Feeds every cohort through a fresh monitor: generate each round of the
/// cohort's packets and offer it to the monitor, then harvest the cohort's
/// flows against the reference before the next cohort contends for their
/// slots.
WireSample wire_pass(std::uint64_t seed, const std::vector<perfbench::FlowTruth>& truth,
                     Tracer& tracer, Checks& checks) {
    Tracer::Lane& lane = tracer.lane();
    core::ConstrainedMonitor monitor{monitor_config()};
    std::vector<perfbench::FlowStream> streams;
    std::vector<perfbench::WirePacket> packets;
    WireSample out;
    out.start_ns = perfbench::now_ns();
    {
        auto root = lane.span("harness.observer_wire", 0);
        for (std::uint64_t cohort = 0; cohort * perfbench::kCohortFlows < perfbench::kWireFlows;
             ++cohort) {
            const auto c = static_cast<std::int64_t>(cohort);
            {
                auto span = lane.span("wire.generate", root.id(), c);
                perfbench::start_cohort(seed, cohort, streams);
            }
            for (std::uint64_t round = 0; round < perfbench::kPacketsPerFlow; ++round) {
                {
                    auto span = lane.span("wire.generate", root.id(), c);
                    perfbench::generate_round(seed, cohort, round, streams, packets);
                }
                auto span = lane.span("core.on_datagram", root.id(), c);
                for (const perfbench::WirePacket& p : packets) {
                    monitor.on_datagram(util::TimePoint::from_nanos(p.time_ns),
                                        bytes::ConstByteSpan{p.bytes, sizeof p.bytes});
                }
            }
            {
                auto span = lane.span("core.harvest", root.id(), c);
                const std::uint64_t base = cohort * perfbench::kCohortFlows;
                for (std::uint64_t i = base; i < base + perfbench::kCohortFlows; ++i) {
                    if (!truth[i].candidate) continue;
                    ++out.candidates;
                    const auto stats = monitor.find_key(perfbench::flow_key(seed, i));
                    if (!stats || !stats->has_estimate || !stats->spin_candidate()) continue;
                    ++out.measured;
                    out.err_sum += std::fabs(stats->srtt_ms() - truth[i].srtt_ms);
                }
            }
        }
    }
    out.end_ns = perfbench::now_ns();
    out.wall_s = static_cast<double>(out.end_ns - out.start_ns) / 1e9;
    out.counters = monitor.counters();

    const auto& c = out.counters;
    checks.require(c.offered == perfbench::kWireFlows * perfbench::kPacketsPerFlow,
                   "monitor saw " + std::to_string(c.offered) + " datagrams");
    checks.require(c.offered == c.non_flow + c.sampled_out + c.tracked + c.untracked,
                   "offered != non_flow + sampled_out + tracked + untracked");
    checks.require(c.collisions == c.untracked + c.evictions,
                   "collisions != untracked + evictions");
    checks.require(out.candidates > 0 && out.measured > 0, "no flow was measured");
    return out;
}

// --- sweeps: traced replicas ----------------------------------------------------------
//
// Each replica recomposes a sweep from the public calls the library makes
// internally — Campaign::scan_chunk on two worker threads, then, in chunk
// order on the calling thread, telemetry::parse_snapshot + merge_from,
// PopulationModel::materialize_chunk and AdoptionAggregator::add — with a
// span around each call. The durable replica adds the map journal between
// the two: serialize_chunk_record + frame_record, write_map_chunk, and
// read_map_chunk in the reduce.

struct ReplicaCounts {
    std::uint64_t domains = 0;
    std::uint64_t chunks = 0;
    std::uint64_t connections = 0;
    std::uint64_t qlog_events = 0;
    std::uint64_t jsonl_events = 0;
    std::uint64_t jsonl_bytes = 0;  ///< keeps the sampled to_jsonl output observable
    std::uint64_t record_bytes = 0;
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t publish_failures = 0;
};

struct Replica {
    double wall_s = 0.0;
    double coverage = 0.0;
    std::vector<Span> spans;
    ReplicaCounts counts;
    telemetry::MetricsRegistry merged;
    std::string overview;
};

/// The ordered merge of one chunk, shared by both replicas.
void merge_chunk(Tracer::Lane& lane, std::uint64_t parent, std::size_t c,
                 const std::vector<scanner::DomainScan>& scans, const std::string& snapshot,
                 const scanner::Campaign& campaign, const web::PopulationModel& model,
                 analysis::AdoptionAggregator& aggregator, Replica& out, Checks& checks) {
    const auto chunk = static_cast<std::int64_t>(c);
    auto span = lane.span("harness.merge.chunk", parent, chunk);
    {
        auto s = lane.span("telemetry.merge", span.id(), chunk);
        auto parsed = telemetry::parse_snapshot(snapshot);
        checks.require(parsed.has_value(), "chunk telemetry snapshot does not parse");
        if (parsed) out.merged.merge_from(*parsed);
    }
    web::DomainBlock block;
    {
        auto s = lane.span("web.materialize", span.id(), chunk);
        block = model.materialize_chunk(c, campaign.options().chunk_domains);
    }
    checks.require(block.size() == scans.size(), "chunk geometry mismatch");
    {
        auto s = lane.span("analysis.add", span.id(), chunk);
        for (std::size_t j = 0; j < scans.size() && j < block.size(); ++j) {
            aggregator.add(block.domains[j], scans[j]);
        }
    }
    ReplicaCounts& counts = out.counts;
    counts.snapshot_bytes += snapshot.size();
    counts.domains += scans.size();
    ++counts.chunks;
    for (const scanner::DomainScan& scan : scans) {
        counts.connections += scan.connections.size();
        for (const qlog::Trace& trace : scan.connections) {
            counts.qlog_events += trace.sent.size() + trace.received.size();
        }
    }
}

/// Runs `work(worker_index)` on kWorkers threads and joins them; the first
/// exception a worker throws is rethrown here.
void run_workers(const std::function<void(unsigned)>& work) {
    std::mutex mutex;
    std::exception_ptr error;
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < perfbench::kWorkers; ++w) {
        threads.emplace_back([&, w] {
            try {
                work(w);
            } catch (...) {
                const std::lock_guard<std::mutex> lock{mutex};
                if (!error) error = std::current_exception();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    if (error) std::rethrow_exception(error);
}

Replica replica_inproc(const web::PopulationModel& model, const scanner::Campaign& campaign,
                       bool traced, Checks& checks) {
    Tracer tracer{traced};
    Tracer::Lane& lane = tracer.lane();
    const std::size_t chunks = campaign.chunk_count();
    const std::size_t window = 8 * perfbench::kWorkers;  // chunks in flight past the merge
    analysis::AdoptionAggregator aggregator{model, /*ipv6=*/false};
    Replica out;

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::optional<scanner::ScannedChunk>> ring(window);  // guarded by mutex
    std::size_t next_claim = 0;                                       // guarded by mutex
    std::size_t merged = 0;                                           // guarded by mutex
    bool aborted = false;                                             // guarded by mutex
    std::string worker_error;                                         // guarded by mutex
    std::exception_ptr merge_error;

    const std::int64_t t0 = perfbench::now_ns();
    {
        auto root = lane.span("harness.sweep_inproc", 0);
        const std::uint64_t root_id = root.id();
        const auto worker = [&] {
            Tracer::Lane& worker_lane = tracer.lane();
            try {
                for (;;) {
                    std::size_t c = 0;
                    {
                        std::unique_lock<std::mutex> lock{mutex};
                        cv.wait(lock, [&] {
                            return aborted || next_claim >= chunks || next_claim < merged + window;
                        });
                        if (aborted || next_claim >= chunks) return;
                        c = next_claim++;
                    }
                    scanner::ScannedChunk result;
                    {
                        auto s = worker_lane.span("scanner.scan_chunk", root_id,
                                                  static_cast<std::int64_t>(c));
                        result = campaign.scan_chunk(c);
                    }
                    {
                        const std::lock_guard<std::mutex> lock{mutex};
                        ring[c % window] = std::move(result);
                    }
                    cv.notify_all();
                }
            } catch (const std::exception& e) {
                const std::lock_guard<std::mutex> lock{mutex};
                aborted = true;
                worker_error = e.what();
            }
            cv.notify_all();
        };
        std::vector<std::thread> workers;
        for (unsigned w = 0; w < perfbench::kWorkers; ++w) workers.emplace_back(worker);
        try {
            for (std::size_t c = 0; c < chunks; ++c) {
                scanner::ScannedChunk chunk;
                {
                    std::unique_lock<std::mutex> lock{mutex};
                    cv.wait(lock, [&] { return aborted || ring[c % window].has_value(); });
                    if (aborted) break;
                    chunk = std::move(*ring[c % window]);
                    ring[c % window].reset();
                    merged = c + 1;
                }
                cv.notify_all();
                merge_chunk(lane, root_id, c, chunk.scans, chunk.telemetry_snapshot, campaign,
                            model, aggregator, out, checks);
            }
        } catch (...) {
            merge_error = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock{mutex};
            aborted = aborted || merged < chunks;
        }
        cv.notify_all();
        for (std::thread& t : workers) t.join();
    }
    if (merge_error) std::rethrow_exception(merge_error);
    checks.require(worker_error.empty(), "scan worker failed: " + worker_error);
    checks.require(out.counts.chunks == chunks, "in-process replica merged too few chunks");
    const std::int64_t t1 = perfbench::now_ns();
    out.wall_s = static_cast<double>(t1 - t0) / 1e9;
    out.spans = tracer.spans();
    out.coverage = perfbench::span_coverage(out.spans, t0, t1);
    out.overview = aggregator.render_overview_table();
    return out;
}

Replica replica_durable(const web::PopulationModel& model, const scanner::Campaign& campaign,
                        bool traced, Checks& checks) {
    Tracer tracer{traced};
    Tracer::Lane& lane = tracer.lane();
    const fs::path dir = campaign.options().journal_dir;
    const std::size_t chunks = campaign.chunk_count();
    scanner::init_map_journal(dir, journal_header(campaign), /*wipe=*/true);
    analysis::AdoptionAggregator aggregator{model, /*ipv6=*/false};
    Replica out;
    std::vector<ReplicaCounts> worker_counts(perfbench::kWorkers);

    const std::int64_t t0 = perfbench::now_ns();
    {
        auto root = lane.span("harness.sweep_durable", 0);
        {
            auto map = lane.span("harness.map", root.id());
            const std::uint64_t map_id = map.id();
            std::atomic<std::size_t> next{0};
            run_workers([&](unsigned w) {
                Tracer::Lane& worker_lane = tracer.lane();
                ReplicaCounts& counts = worker_counts[w];
                for (std::size_t c = next++; c < chunks; c = next++) {
                    const auto chunk = static_cast<std::int64_t>(c);
                    auto span = worker_lane.span("harness.map.chunk", map_id, chunk);
                    scanner::ScannedChunk result;
                    {
                        auto s = worker_lane.span("scanner.scan_chunk", span.id(), chunk);
                        result = campaign.scan_chunk(c);
                    }
                    scanner::ChunkRecord record;
                    record.chunk_index = c;
                    record.scans = std::move(result.scans);
                    record.telemetry_snapshot = std::move(result.telemetry_snapshot);
                    {
                        auto s = worker_lane.span("journal.encode", span.id(), chunk);
                        counts.record_bytes +=
                            scanner::frame_record(scanner::serialize_chunk_record(record)).size();
                    }
                    if (c % kSampleEvery == 0) {
                        auto s = worker_lane.span("qlog.to_jsonl", span.id(), chunk);
                        for (const scanner::DomainScan& scan : record.scans) {
                            for (const qlog::Trace& trace : scan.connections) {
                                counts.jsonl_events += trace.sent.size() + trace.received.size();
                                counts.jsonl_bytes += qlog::to_jsonl(trace).size();
                            }
                        }
                    }
                    {
                        auto s = worker_lane.span("journal.publish", span.id(), chunk);
                        if (!scanner::write_map_chunk(dir, record)) ++counts.publish_failures;
                    }
                }
            });
        }
        for (const ReplicaCounts& counts : worker_counts) {
            out.counts.record_bytes += counts.record_bytes;
            out.counts.jsonl_events += counts.jsonl_events;
            out.counts.publish_failures += counts.publish_failures;
        }
        checks.require(out.counts.publish_failures == 0, "map journal publish failed");
        {
            auto reduce = lane.span("harness.reduce", root.id());
            for (std::size_t c = 0; c < chunks; ++c) {
                const auto chunk = static_cast<std::int64_t>(c);
                auto span = lane.span("harness.reduce.chunk", reduce.id(), chunk);
                std::optional<scanner::ChunkRecord> record;
                {
                    auto s = lane.span("journal.parse", span.id(), chunk);
                    record = scanner::read_map_chunk(dir, c);
                }
                checks.require(record.has_value() && record->chunk_index == c,
                               "map journal record " + std::to_string(c) + " is missing");
                if (!record) break;
                merge_chunk(lane, span.id(), c, record->scans, record->telemetry_snapshot,
                            campaign, model, aggregator, out, checks);
            }
        }
    }
    const std::int64_t t1 = perfbench::now_ns();
    out.wall_s = static_cast<double>(t1 - t0) / 1e9;
    out.spans = tracer.spans();
    out.coverage = perfbench::span_coverage(out.spans, t0, t1);
    out.overview = aggregator.render_overview_table();
    return out;
}

/// Per-domain cost by outcome class over every kSampleEvery-th chunk, single
/// threaded so the process-wide allocation counters see one domain at a time.
struct DomainSample {
    std::uint64_t chunk_domains = 0;
    std::uint64_t chunk_allocs = 0;
    std::uint64_t chunk_alloc_bytes = 0;
    std::map<std::string, std::vector<double>> us;
    std::map<std::string, std::vector<double>> allocs;
};

DomainSample sample_domains(const web::PopulationModel& model, std::uint64_t seed) {
    scanner::Campaign campaign{model, perfbench::sweep_options(seed, "")};
    telemetry::MetricsRegistry throwaway;  // scan_domain publishes into it
    campaign.set_metrics(&throwaway);
    DomainSample out;
    for (std::size_t c = 0; c < campaign.chunk_count(); c += kSampleEvery) {
        {
            const telemetry::AllocSnapshot allocs;
            const scanner::ScannedChunk chunk = campaign.scan_chunk(c);
            out.chunk_allocs += allocs.count_since();
            out.chunk_alloc_bytes += allocs.bytes_since();
            out.chunk_domains += chunk.scans.size();
        }
        const web::DomainBlock block =
            model.materialize_chunk(c, campaign.options().chunk_domains);
        for (const web::Domain& domain : block.domains) {
            const telemetry::AllocSnapshot allocs;
            const std::int64_t t0 = perfbench::now_ns();
            const scanner::DomainScan scan = campaign.scan_domain(domain);
            const double us = static_cast<double>(perfbench::now_ns() - t0) / 1e3;
            const auto count = static_cast<double>(allocs.count_since());
            const char* cls = scan.quic_ok() ? "quic_ok" : (!scan.resolved ? "unresolved" : "failed");
            out.us[cls].push_back(us);
            out.allocs[cls].push_back(count);
        }
    }
    return out;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Prints one pipeline's self-time ledger.
void print_ledger(const char* pipeline, const std::vector<Span>& spans, double wall_s) {
    std::printf("\nledger %s (one traced pass, wall %.3f s):\n", pipeline, wall_s);
    std::printf("  %-22s %8s %12s %12s %8s\n", "span", "count", "total ms", "self ms", "self %");
    for (const auto& [name, t] : perfbench::layer_totals(spans)) {
        std::printf("  %-22s %8llu %12.3f %12.3f %7.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(t.count), static_cast<double>(t.total_ns) / 1e6,
                    static_cast<double>(t.self_ns) / 1e6,
                    100.0 * static_cast<double>(t.self_ns) / 1e9 / wall_s);
    }
}

/// Writes every traced pass's spans once, at the end of the run.
void write_spans(const fs::path& path,
                 const std::vector<std::pair<std::string, const std::vector<Span>*>>& passes) {
    std::ofstream out{path};
    for (const auto& [pipeline, spans] : passes) {
        for (const Span& s : *spans) {
            out << "{\"pipeline\":" << json_string(pipeline) << ",\"name\":" << json_string(s.name)
                << ",\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"chunk\":" << s.chunk
                << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
        }
    }
}

void run_traced(const Args& args, Result& result, Checks& checks) {
    const std::string journal_dir = (fs::path{args.work_dir} / "journal").string();
    const SweepSetup inproc = make_sweep_setup(args.seed, "");
    const SweepSetup durable = make_sweep_setup(args.seed, journal_dir);
    const web::PopulationModel& model = *inproc.model;
    std::uint64_t passes = 0;

    // The public entry points, untraced: references for the replicas' output
    // and the procpool figures.
    const SweepSample e2e_inproc = sweep_once(model, *inproc.campaign, SweepMode::inproc, checks);
    const SweepSample e2e_durable =
        sweep_once(*durable.model, *durable.campaign, SweepMode::durable, checks);
    passes += 2;
    checks.require(e2e_inproc.digest == e2e_durable.digest,
                   "sweep_inproc and sweep_durable outputs differ (" + e2e_inproc.digest +
                       " vs " + e2e_durable.digest + ")");
    result.digest = e2e_inproc.digest;

    // Replicas need chunk telemetry snapshots, so a registry is attached;
    // scan_chunk never writes into it.
    telemetry::MetricsRegistry attached;
    inproc.campaign->set_metrics(&attached);
    durable.campaign->set_metrics(&attached);

    std::vector<Replica> inproc_traced, durable_traced;
    std::vector<double> inproc_plain, durable_plain;
    (void)replica_inproc(model, *inproc.campaign, false, checks);  // warm-up
    (void)replica_durable(*durable.model, *durable.campaign, false, checks);
    passes += 2;
    for (int i = 0; i < kTracePairs; ++i) {
        inproc_plain.push_back(replica_inproc(model, *inproc.campaign, false, checks).wall_s);
        inproc_traced.push_back(replica_inproc(model, *inproc.campaign, true, checks));
        durable_plain.push_back(
            replica_durable(*durable.model, *durable.campaign, false, checks).wall_s);
        durable_traced.push_back(replica_durable(*durable.model, *durable.campaign, true, checks));
        passes += 4;
        checks.require(inproc_traced.back().overview == e2e_inproc.overview,
                       "in-process replica output differs from Campaign::run");
        checks.require(durable_traced.back().overview == e2e_durable.overview,
                       "durable replica output differs from run_procs + reduce");
    }
    const DomainSample sample = sample_domains(model, args.seed);
    ++passes;

    // Observer: reference pass, then untraced/traced pairs.
    const std::vector<perfbench::FlowTruth> truth =
        perfbench::reference_pass(perfbench::wire_seed(args.seed));
    std::vector<WireSample> wire_traced;
    std::vector<double> wire_plain;
    std::vector<std::vector<Span>> wire_spans;
    {
        Tracer off{false};
        (void)wire_pass(perfbench::wire_seed(args.seed), truth, off, checks);  // warm-up
        ++passes;
    }
    for (int i = 0; i < kTracePairs; ++i) {
        Tracer off{false};
        wire_plain.push_back(wire_pass(perfbench::wire_seed(args.seed), truth, off, checks).wall_s);
        Tracer on{true};
        wire_traced.push_back(wire_pass(perfbench::wire_seed(args.seed), truth, on, checks));
        wire_spans.push_back(on.spans());
        passes += 2;
    }

    // --- per-layer figures ----------------------------------------------------
    std::vector<Span> in_spans, du_spans, wi_spans;
    std::vector<double> in_walls, du_walls, wi_walls, in_cov, du_cov, wi_cov;
    ReplicaCounts in_counts, du_counts;
    for (const Replica& r : inproc_traced) {
        in_spans.insert(in_spans.end(), r.spans.begin(), r.spans.end());
        in_walls.push_back(r.wall_s);
        in_cov.push_back(r.coverage);
        in_counts.domains += r.counts.domains;
        in_counts.chunks += r.counts.chunks;
    }
    for (const Replica& r : durable_traced) {
        du_spans.insert(du_spans.end(), r.spans.begin(), r.spans.end());
        du_walls.push_back(r.wall_s);
        du_cov.push_back(r.coverage);
        du_counts.domains += r.counts.domains;
        du_counts.chunks += r.counts.chunks;
        du_counts.connections += r.counts.connections;
        du_counts.qlog_events += r.counts.qlog_events;
        du_counts.jsonl_events += r.counts.jsonl_events;
        du_counts.record_bytes += r.counts.record_bytes;
        du_counts.snapshot_bytes += r.counts.snapshot_bytes;
    }
    for (std::size_t i = 0; i < wire_traced.size(); ++i) {
        wi_spans.insert(wi_spans.end(), wire_spans[i].begin(), wire_spans[i].end());
        wi_walls.push_back(wire_traced[i].wall_s);
        wi_cov.push_back(perfbench::span_coverage(wire_spans[i], wire_traced[i].start_ns,
                                                  wire_traced[i].end_ns));
    }

    const auto ms_tail = [&](const char* prefix, const std::vector<Span>& spans, const char* name) {
        std::vector<double> ns = perfbench::durations_ns(spans, name);
        const auto supported = perfbench::highest_supported_percentile(ns.size());
        checks.require(supported.has_value() && *supported >= 9900,
                       std::string{name} + ": " + std::to_string(ns.size()) +
                           " samples do not support p99");
        result.metric(std::string{prefix} + ".ms.p50", perfbench::percentile(ns, 5000) / 1e6);
        result.metric(std::string{prefix} + ".ms.p99", perfbench::percentile(ns, 9900) / 1e6);
        result.metric(std::string{prefix} + ".samples", static_cast<double>(ns.size()));
    };
    const auto span_count = [](const std::vector<Span>& spans, const char* name) {
        return static_cast<double>(perfbench::durations_ns(spans, name).size());
    };

    std::printf("traced run: every layer, seed %llu (simulated network, no real link)\n",
                static_cast<unsigned long long>(args.seed));
    const double in_domains = static_cast<double>(in_counts.domains);
    result.metric("web.materialize.ns_per_domain",
                  per(perfbench::total_ns(in_spans, "web.materialize"), in_domains));
    ms_tail("scanner.scan_chunk", in_spans, "scanner.scan_chunk");
    result.metric("scanner.allocs_per_domain", per(static_cast<double>(sample.chunk_allocs),
                                                   static_cast<double>(sample.chunk_domains)));
    result.metric("scanner.alloc_bytes_per_domain",
                  per(static_cast<double>(sample.chunk_alloc_bytes),
                      static_cast<double>(sample.chunk_domains)));
    for (const char* cls : {"quic_ok", "failed", "unresolved"}) {
        const auto us = sample.us.find(cls);
        const auto allocs = sample.allocs.find(cls);
        const bool have = us != sample.us.end();
        checks.require(have, std::string{"domain sample has no "} + cls + " domain");
        result.metric(std::string{"scanner.scan_domain.us."} + cls, have ? median_of(us->second) : 0.0);
        result.metric(std::string{"scanner.scan_domain.allocs."} + cls,
                      have ? median_of(allocs->second) : 0.0);
        result.metric(std::string{"scanner.scan_domain.samples."} + cls,
                      have ? static_cast<double>(us->second.size()) : 0.0);
    }

    const telemetry::MetricsRegistry& reg = inproc_traced.back().merged;
    const auto counter = [&reg](const char* name) {
        const auto* c = reg.find_counter(name);
        return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    const double pass_domains = static_cast<double>(inproc_traced.back().counts.domains);
    const double attempts = counter("quic.conn.attempts");
    result.metric("netsim.events_per_domain",
                  per(counter("netsim.sim.events_processed"), pass_domains));
    const auto* hwm = reg.find_gauge("netsim.sim.queue_depth_hwm");
    result.metric("netsim.queue_depth_hwm", hwm != nullptr ? hwm->value() : 0.0);
    result.metric("quic.packets_per_domain",
                  per(counter("quic.conn.packets_sent") + counter("quic.conn.packets_received"),
                      pass_domains));
    result.metric("quic.pto_per_attempt", per(counter("quic.conn.pto_fired"), attempts));
    result.metric("quic.handshake_ok_share", per(counter("quic.conn.handshake_completed"), attempts));
    result.metric("bytes.pool.hit_ratio",
                  per(counter("bytes.pool.hits"), counter("bytes.pool.acquires")));

    const double du_domains = static_cast<double>(du_counts.domains);
    const double du_chunks = static_cast<double>(du_counts.chunks);
    result.metric("qlog.events_per_connection",
                  per(static_cast<double>(du_counts.qlog_events),
                      static_cast<double>(du_counts.connections)));
    result.metric("qlog.to_jsonl.ns_per_event",
                  per(perfbench::total_ns(du_spans, "qlog.to_jsonl"),
                      static_cast<double>(du_counts.jsonl_events)));
    result.metric("journal.encode.us_per_chunk",
                  per(perfbench::total_ns(du_spans, "journal.encode") / 1e3,
                      span_count(du_spans, "journal.encode")));
    result.metric("journal.record_bytes_per_domain",
                  per(static_cast<double>(du_counts.record_bytes), du_domains));
    ms_tail("journal.publish", du_spans, "journal.publish");
    result.metric("journal.parse.us_per_chunk",
                  per(perfbench::total_ns(du_spans, "journal.parse") / 1e3,
                      span_count(du_spans, "journal.parse")));

    const double map_s = e2e_durable.map_s;
    result.metric("procpool.map_s", map_s);
    result.metric("procpool.reduce_s", e2e_durable.reduce_s);
    result.metric("procpool.worker_cpu_s", e2e_durable.children_cpu_s);
    const double useful_s = (perfbench::total_ns(du_spans, "scanner.scan_chunk") +
                             perfbench::total_ns(du_spans, "journal.publish")) /
                            1e9 / static_cast<double>(durable_traced.size());
    result.metric("procpool.map_efficiency",
                  per(useful_s, map_s * static_cast<double>(perfbench::kWorkers)));
    result.metric("procpool.proc_restarts", static_cast<double>(e2e_durable.pool.proc_restarts));
    result.metric("procpool.io_errors", static_cast<double>(e2e_durable.pool.io_errors));

    result.metric("analysis.add.ns_per_domain",
                  per(perfbench::total_ns(in_spans, "analysis.add"), in_domains));
    result.metric("telemetry.snapshot_bytes_per_chunk",
                  per(static_cast<double>(du_counts.snapshot_bytes), du_chunks));
    result.metric("telemetry.merge.us_per_chunk",
                  per(perfbench::total_ns(du_spans, "telemetry.merge") / 1e3,
                      span_count(du_spans, "telemetry.merge")));

    double offered = 0.0;
    for (const WireSample& s : wire_traced) offered += static_cast<double>(s.counters.offered);
    const core::ConstrainedTableCounters& wc = wire_traced.back().counters;
    result.metric("core.on_datagram.ns_per_packet",
                  per(perfbench::total_ns(wi_spans, "core.on_datagram"), offered));
    result.metric("wire.generate.ns_per_packet",
                  per(perfbench::total_ns(wi_spans, "wire.generate"), offered));
    result.metric("core.tracked_share",
                  per(static_cast<double>(wc.tracked), static_cast<double>(wc.offered)));
    result.metric("core.collisions_per_kpacket",
                  per(1000.0 * static_cast<double>(wc.collisions), static_cast<double>(wc.offered)));
    result.metric("core.harvest.ns_per_flow",
                  per(perfbench::total_ns(wi_spans, "core.harvest"),
                      static_cast<double>(wire_traced.size() * perfbench::kWireFlows)));

    const auto overhead = [](const std::vector<double>& traced, const std::vector<double>& plain) {
        return median_of(traced) / median_of(plain) - 1.0;
    };
    result.metric("trace.sweep_inproc.overhead_share", overhead(in_walls, inproc_plain));
    result.metric("trace.sweep_inproc.span_coverage", median_of(in_cov));
    result.metric("trace.sweep_durable.overhead_share", overhead(du_walls, durable_plain));
    result.metric("trace.sweep_durable.span_coverage", median_of(du_cov));
    result.metric("trace.observer_wire.overhead_share", overhead(wi_walls, wire_plain));
    result.metric("trace.observer_wire.span_coverage", median_of(wi_cov));
    checks.require(median_of(in_cov) >= 0.9, "sweep_inproc spans cover under 90 % of the wall");
    checks.require(median_of(du_cov) >= 0.9, "sweep_durable spans cover under 90 % of the wall");

    print_ledger("sweep_inproc", inproc_traced.back().spans, inproc_traced.back().wall_s);
    print_ledger("sweep_durable", durable_traced.back().spans, durable_traced.back().wall_s);
    print_ledger("observer_wire", wire_spans.back(), wire_traced.back().wall_s);
    std::printf("\nprocpool (public calls, untraced): map %.3f s + reduce %.3f s = %.3f s\n",
                e2e_durable.map_s, e2e_durable.reduce_s, e2e_durable.wall_s);
    const WireSample& wire = wire_traced.back();
    std::printf("observer (untraced median): %.2f M packets/s, coverage %.6f, "
                "mean |err| %.6f ms\n",
                static_cast<double>(wire.counters.offered) / median_of(wire_plain) / 1e6,
                wire.coverage(), wire.mean_abs_err_ms());

    const fs::path spans_path =
        fs::path{args.out_dir} / ("spans-" + args.workload + ".jsonl");
    write_spans(spans_path, {{"sweep_inproc", &inproc_traced.back().spans},
                             {"sweep_durable", &durable_traced.back().spans},
                             {"observer_wire", &wire_spans.back()}});
    std::printf("wrote %s\n", spans_path.string().c_str());

    result.attempted = passes;
    result.failed = checks.ok() ? 0 : passes;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    if (args.list_metrics) {
        std::printf("%s\n", catalog_json().c_str());
        return 0;
    }
    if (const char* why = unfit_build()) {
        std::fprintf(stderr, "spinbench: refusing to measure a %s (%s)\n", why, build_type());
        return 2;
    }
    std::printf("spinbench %s: build %s, network simulated in-process (netsim), no real link\n",
                args.workload.c_str(), build_type());

    Result result{args.trace};
    Checks checks;
    try {
        fs::create_directories(args.work_dir);
        fs::create_directories(args.out_dir);
        if (args.trace) {
            run_traced(args, result, checks);
        } else if (args.workload == "sweep_inproc") {
            run_sweep_e2e(args, SweepMode::inproc, result, checks);
        } else {
            run_sweep_e2e(args, SweepMode::reduce, result, checks);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "spinbench: %s\n", e.what());
        return 1;
    }
    for (const std::string& failure : checks.failures()) {
        std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    std::printf("RESULT %s\n", result.json(checks).c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}
