// bench/bench_observer.cpp
//
// Constrained-observer accuracy sweep (DESIGN.md §14): how much spin-RTT
// utility survives a hardware budget — fixed slot count, keep-or-replace
// eviction, integer EWMA, 1-in-N sampling — as a function of that budget.
// Answers ROADMAP item 3's headline question: what coverage and accuracy
// does a 64K-slot register file retain against ~1M concurrent flows?
//
// Two sections feed one gated table (BENCH_observer.json, checked by
// scripts/bench_check.py under the spinscope-bench-observer-v1 schema):
//
//   campaign   replays real campaign traces through analysis::ObserverReplay
//              under both observer models, so the constrained numbers are
//              directly comparable with the endpoint Fig. 3/4 pipeline;
//   synthetic  a flow-scale sweep (default 256K flows/row plus the 1M-flow
//              roadmap point) of handcrafted short-header streams whose
//              per-flow ground truth is the float-EWMA reference — the
//              idealized result, per the differential suite's equivalence
//              proof — computed from the identical sample sequence.
//
// Per-row guarded metrics: coverage (measured/candidates), mean_abs_err_ms
// vs the reference, within_25ms_share, and packets_per_sec (wall, wide
// tolerance). REGEN=1 scripts/ci.sh bench re-baselines.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/observer.hpp"
#include "bench/bench_common.hpp"
#include "core/constrained_monitor.hpp"
#include "scanner/campaign.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "web/population.hpp"

using namespace spinscope;

namespace {

/// One row of the committed table.
struct Row {
    std::string id;
    unsigned log2_slots = 0;
    core::EvictionPolicy eviction = core::EvictionPolicy::none;
    std::uint32_t sample_every = 1;
    std::uint64_t flows = 0;
    // Guarded metrics.
    double coverage = 0.0;
    double mean_abs_err_ms = 0.0;
    double within_25ms_share = 0.0;
    double packets_per_sec = 0.0;
    // Context (not gated).
    std::uint64_t candidates = 0;
    std::uint64_t measured = 0;
    std::uint64_t tracked = 0;
    std::uint64_t untracked = 0;
    std::uint64_t evictions = 0;
    std::uint64_t sampled_out = 0;
    std::uint64_t active_slots = 0;
};

// --- Synthetic flow universe -------------------------------------------------
//
// Each flow's packet stream is a pure function of (seed, flow index): RTT is
// lognormal around a 50 ms median, packets arrive every RTT/4 with ±12.5 %
// jitter, and the spin flips every 4 packets — so the edge-to-edge interval
// is one (jittered) RTT, exactly what an on-path observer measures. The same
// FlowStream is replayed for the float reference and for every monitor row.

constexpr unsigned kFlipEvery = 4;

struct FlowStream {
    util::Rng rng;
    std::int64_t time_ns = 0;
    std::int64_t gap_ns = 0;
    bool spin = false;
    unsigned until_flip = kFlipEvery;

    void init(std::uint64_t seed, std::uint64_t index) {
        rng = util::Rng{util::derive_stream_seed(seed, index)};
        double rtt_ms = util::sample_lognormal(rng, std::log(50.0), 0.8);
        if (rtt_ms < 2.0) rtt_ms = 2.0;
        if (rtt_ms > 800.0) rtt_ms = 800.0;
        gap_ns = static_cast<std::int64_t>(rtt_ms * 1e6 / kFlipEvery);
        // Flows start staggered across one second so table pressure ramps in
        // rather than arriving as a phase-locked burst.
        time_ns = static_cast<std::int64_t>(rng.uniform_u64(1'000'000'000ULL));
        spin = rng.coin();
        until_flip = kFlipEvery;
    }

    /// Emits the flow's next packet: observation time and spin value.
    [[nodiscard]] std::pair<std::int64_t, bool> next() {
        const std::pair<std::int64_t, bool> out{time_ns, spin};
        time_ns += static_cast<std::int64_t>(
            static_cast<double>(gap_ns) * rng.uniform_double(0.875, 1.125));
        if (--until_flip == 0) {
            spin = !spin;
            until_flip = kFlipEvery;
        }
        return out;
    }
};

struct FlowTruth {
    double ref_srtt_ms = 0.0;
    bool candidate = false;
};

/// Float-EWMA reference per flow — the idealized observer's answer: the
/// edge detection and 1/8-weight EWMA of core::SpinEdgeObserver, run over
/// each flow's packet stream without a wire round trip.
std::vector<FlowTruth> reference_pass(std::uint64_t seed, std::uint64_t flows,
                                      std::uint64_t packets_per_flow) {
    std::vector<FlowTruth> truth(flows);
    FlowStream stream;
    for (std::uint64_t i = 0; i < flows; ++i) {
        stream.init(seed, i);
        bool have_value = false, value = false, saw_zero = false, saw_one = false;
        std::int64_t last_edge_ns = -1;
        double srtt_ms = 0.0;
        bool have_srtt = false;
        for (std::uint64_t p = 0; p < packets_per_flow; ++p) {
            const auto [t, spin] = stream.next();
            (spin ? saw_one : saw_zero) = true;
            if (!have_value) {
                have_value = true;
                value = spin;
                continue;
            }
            if (spin == value) continue;
            value = spin;
            if (last_edge_ns < 0) {
                last_edge_ns = t;
                continue;
            }
            const double sample_ms =
                static_cast<double>(t - last_edge_ns) / 1e6;
            last_edge_ns = t;
            srtt_ms = have_srtt ? srtt_ms + (sample_ms - srtt_ms) / 8.0 : sample_ms;
            have_srtt = true;
        }
        truth[i].ref_srtt_ms = srtt_ms;
        truth[i].candidate = saw_zero && saw_one && have_srtt;
    }
    return truth;
}

/// Concurrency window of the synthetic interleave: packets mix across this
/// many live flows at a time; earlier cohorts are dead weight the table must
/// shed (or drown under, for drop-new). This is the regime the paper's
/// follow-up hardware work faces: total flows per epoch >> concurrent flows.
constexpr std::uint64_t kWindow = 8192;

/// Feeds the interleaved universe through one ConstrainedMonitor and scores
/// it against the reference. Flows run in sequential cohorts of kWindow;
/// within a cohort, each round visits every member once in a per-round-
/// permuted order — realistic mixing without a 1M-entry heap.
void synthetic_row(Row& row, std::uint64_t seed, std::uint64_t packets_per_flow,
                   const std::vector<FlowTruth>& truth) {
    const std::uint64_t flows = row.flows;  // power of two by construction
    const std::uint64_t window = flows < kWindow ? flows : kWindow;
    const std::uint64_t wmask = window - 1;
    constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ULL;  // odd: bijective

    core::ConstrainedConfig config;
    config.log2_slots = row.log2_slots;
    config.eviction = row.eviction;
    config.sample_every = row.sample_every;
    // A live flow is revisited every `window` processed packets; a resident
    // quiet for several full rounds is almost certainly a dead cohort's.
    config.lru_idle_packets = 8 * window;
    core::ConstrainedMonitor monitor{config};

    std::vector<FlowStream> streams(window);
    std::uint64_t candidates = 0, measured = 0, within = 0;
    double err_sum = 0.0;
    bench::Stopwatch watch;
    std::uint8_t datagram[10] = {};
    for (std::uint64_t cohort = 0; cohort * window < flows; ++cohort) {
        const std::uint64_t base = cohort * window;
        for (std::uint64_t m = 0; m < window; ++m) streams[m].init(seed, base + m);
        for (std::uint64_t p = 0; p < packets_per_flow; ++p) {
            for (std::uint64_t j = 0; j < window; ++j) {
                const std::uint64_t m =
                    (j * kStride + p * 0x85ebca77c2b2ae63ULL) & wmask;
                const auto [t, spin] = streams[m].next();
                const std::uint64_t key = base + m + 1;  // DCID = flow index
                datagram[0] =
                    static_cast<std::uint8_t>(0x40 | (spin ? 0x20 : 0x00));
                for (unsigned b = 0; b < 8; ++b) {
                    datagram[1 + b] =
                        static_cast<std::uint8_t>(key >> (8 * (7 - b)));
                }
                monitor.on_datagram(util::TimePoint::from_nanos(t),
                                    bytes::ConstByteSpan{datagram, sizeof datagram});
            }
        }
        // Harvest this cohort before the next one contends for its slots:
        // a flow's stats are final once its cohort ends.
        for (std::uint64_t m = 0; m < window; ++m) {
            const std::uint64_t i = base + m;
            if (!truth[i].candidate) continue;
            ++candidates;
            const auto stats = monitor.find_key(i + 1);
            if (!stats || !stats->has_estimate || !stats->spin_candidate()) continue;
            ++measured;
            const double err = std::fabs(stats->srtt_ms() - truth[i].ref_srtt_ms);
            err_sum += err;
            if (err <= 25.0) ++within;
        }
    }
    const double wall = watch.seconds();

    row.candidates = candidates;
    row.measured = measured;
    row.coverage = candidates > 0 ? static_cast<double>(measured) /
                                        static_cast<double>(candidates)
                                  : 0.0;
    row.mean_abs_err_ms = measured > 0 ? err_sum / static_cast<double>(measured) : 0.0;
    row.within_25ms_share =
        measured > 0 ? static_cast<double>(within) / static_cast<double>(measured) : 0.0;
    const double total_packets =
        static_cast<double>(flows) * static_cast<double>(packets_per_flow);
    row.packets_per_sec = wall > 0.0 ? total_packets / wall : 0.0;
    const auto& c = monitor.counters();
    row.tracked = c.tracked;
    row.untracked = c.untracked;
    row.evictions = c.evictions;
    row.sampled_out = c.sampled_out;
    row.active_slots = c.active_slots;
}

// --- Campaign replay ---------------------------------------------------------

Row campaign_row(const std::string& id, const analysis::ObserverRunSummary& s,
                 const core::ConstrainedConfig* config, double wall_seconds,
                 std::uint64_t datagrams) {
    Row row;
    row.id = id;
    if (config != nullptr) {
        row.log2_slots = config->log2_slots;
        row.eviction = config->eviction;
        row.sample_every = config->sample_every;
    }
    row.flows = s.connections;
    row.candidates = s.candidates;
    row.measured = s.measured;
    row.coverage = s.coverage;
    row.mean_abs_err_ms = s.mean_abs_err_ms;
    // Campaign rows score against the QUIC-stack baseline (the Fig. 3 error
    // definition) rather than the synthetic float reference.
    row.within_25ms_share =
        s.comparable > 0 ? static_cast<double>(s.within_25ms) /
                               static_cast<double>(s.comparable)
                         : 0.0;
    row.packets_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(datagrams) / wall_seconds : 0.0;
    row.tracked = s.table.tracked;
    row.untracked = s.table.untracked;
    row.evictions = s.table.evictions;
    row.sampled_out = s.table.sampled_out;
    row.active_slots = s.table.active_slots;
    return row;
}

// --- Output ------------------------------------------------------------------

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return std::string{buf};
}

std::string to_json(const std::vector<Row>& rows, std::uint64_t seed,
                    std::uint64_t packets_per_flow) {
    std::string out = "{\"schema\":\"spinscope-bench-observer-v1\"";
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"packets_per_flow\":" + std::to_string(packets_per_flow);
    out += ",\"rows\":{";
    bool first = true;
    for (const Row& row : rows) {
        if (!first) out += ",";
        first = false;
        out += "\"" + row.id + "\":{";
        out += "\"log2_slots\":" + std::to_string(row.log2_slots);
        out += ",\"eviction\":\"" + std::string{to_cstring(row.eviction)} + "\"";
        out += ",\"sample_every\":" + std::to_string(row.sample_every);
        out += ",\"flows\":" + std::to_string(row.flows);
        out += ",\"candidates\":" + std::to_string(row.candidates);
        out += ",\"measured\":" + std::to_string(row.measured);
        out += ",\"tracked\":" + std::to_string(row.tracked);
        out += ",\"untracked\":" + std::to_string(row.untracked);
        out += ",\"evictions\":" + std::to_string(row.evictions);
        out += ",\"sampled_out\":" + std::to_string(row.sampled_out);
        out += ",\"active_slots\":" + std::to_string(row.active_slots);
        out += ",\"metrics\":{\"coverage\":" + num(row.coverage);
        out += ",\"mean_abs_err_ms\":" + num(row.mean_abs_err_ms);
        out += ",\"within_25ms_share\":" + num(row.within_25ms_share);
        out += ",\"packets_per_sec\":" + num(row.packets_per_sec);
        out += "}}";
    }
    out += "}}\n";
    return out;
}

void print_row(const Row& row) {
    std::printf(
        "  %-28s slots=2^%-2u evict=%-6s 1/%-2u flows=%-8llu "
        "coverage=%6.2f%% err=%8.3f ms within25=%6.2f%% (%llu/%llu measured)\n",
        row.id.c_str(), row.log2_slots, to_cstring(row.eviction), row.sample_every,
        static_cast<unsigned long long>(row.flows), row.coverage * 100.0,
        row.mean_abs_err_ms, row.within_25ms_share * 100.0,
        static_cast<unsigned long long>(row.measured),
        static_cast<unsigned long long>(row.candidates));
}

}  // namespace

int main(int argc, char** argv) {
    constexpr std::string_view kFlags[] = {"--scale=N", "--seed=N", "--count=N", "--trajectory=file"};
    const auto options = bench::parse_options(argc, argv, kFlags, /*default_count=*/20);
    bench::banner("Constrained observer — accuracy vs hardware budget", options, kFlags);
    const std::uint64_t packets_per_flow = options.count;

    std::vector<Row> rows;

    // Section 1: campaign traces through the Fig. 3/4 accuracy pipeline.
    {
        bench::Stopwatch watch;
        const web::PopulationModel population{{options.scale, options.seed}};
        const auto universe = population.materialize(0, population.domain_count());
        scanner::Campaign campaign{population, {}};
        analysis::ObserverReplay replay;
        for (const auto& domain : universe.domains) {
            if (!domain.quic) continue;
            const auto scan = campaign.scan_domain(domain);
            for (const auto& trace : scan.connections) {
                if (trace.outcome != qlog::ConnectionOutcome::ok) continue;
                replay.add(trace);
            }
        }
        const auto ideal = replay.run_idealized();
        core::ConstrainedConfig budget;
        budget.log2_slots = 16;
        budget.eviction = core::EvictionPolicy::lru;
        const auto constrained = replay.run_constrained(budget);
        const double wall = watch.seconds();
        const std::uint64_t datagrams = constrained.summary.table.offered;
        rows.push_back(campaign_row("campaign_idealized", ideal.summary, nullptr,
                                    wall, datagrams));
        rows.push_back(campaign_row("campaign_constrained_64k_lru",
                                    constrained.summary, &budget, wall, datagrams));
        std::printf("campaign replay: %zu connections, %llu wire datagrams\n",
                    replay.connection_count(),
                    static_cast<unsigned long long>(datagrams));
        std::printf("%s\n", constrained.aggregator.render_headlines().c_str());
    }

    // Section 2: synthetic sweep. Base rows at 256K flows cover the budget
    // axes; the roadmap row pushes ~1M flows through 64K slots.
    {
        using core::EvictionPolicy;
        const std::uint64_t base_flows = std::uint64_t{1} << 18;
        const std::uint64_t roadmap_flows = std::uint64_t{1} << 20;
        struct Spec {
            const char* id;
            unsigned log2_slots;
            EvictionPolicy eviction;
            std::uint32_t sample_every;
            std::uint64_t flows;
        };
        const Spec specs[] = {
            {"slots14_none", 14, EvictionPolicy::none, 1, base_flows},
            {"slots14_lru", 14, EvictionPolicy::lru, 1, base_flows},
            {"slots14_random", 14, EvictionPolicy::random, 1, base_flows},
            {"slots16_none", 16, EvictionPolicy::none, 1, base_flows},
            {"slots16_lru", 16, EvictionPolicy::lru, 1, base_flows},
            {"slots16_random", 16, EvictionPolicy::random, 1, base_flows},
            {"slots18_lru", 18, EvictionPolicy::lru, 1, base_flows},
            {"slots16_lru_sample2", 16, EvictionPolicy::lru, 2, base_flows},
            {"slots16_lru_sample8", 16, EvictionPolicy::lru, 8, base_flows},
            {"roadmap_1m_flows_64k_none", 16, EvictionPolicy::none, 1, roadmap_flows},
            {"roadmap_1m_flows_64k_slots", 16, EvictionPolicy::lru, 1, roadmap_flows},
        };

        const auto base_truth =
            reference_pass(options.seed, base_flows, packets_per_flow);
        const auto roadmap_truth =
            reference_pass(options.seed, roadmap_flows, packets_per_flow);
        std::printf("\nsynthetic sweep (%llu packets/flow):\n",
                    static_cast<unsigned long long>(packets_per_flow));
        for (const Spec& spec : specs) {
            Row row;
            row.id = spec.id;
            row.log2_slots = spec.log2_slots;
            row.eviction = spec.eviction;
            row.sample_every = spec.sample_every;
            row.flows = spec.flows;
            synthetic_row(row, options.seed, packets_per_flow,
                          spec.flows == base_flows ? base_truth : roadmap_truth);
            print_row(row);
            rows.push_back(row);
        }
    }

    // ROADMAP item 3's answer, spelled out.
    const Row* budget_row = nullptr;
    for (const Row& row : rows) {
        if (row.id == "roadmap_1m_flows_64k_slots") budget_row = &row;
    }
    if (budget_row != nullptr) {
        std::printf(
            "\nroadmap: 64K slots vs %llu flows -> %.1f%% coverage, "
            "%.2f ms mean |err|, %.1f%% of measured flows within 25 ms\n",
            static_cast<unsigned long long>(budget_row->flows),
            budget_row->coverage * 100.0, budget_row->mean_abs_err_ms,
            budget_row->within_25ms_share * 100.0);
    }

    if (!options.trajectory_path.empty()) {
        const std::string json = to_json(rows, options.seed, packets_per_flow);
        if (util::write_file_atomic(util::Io::real(), options.trajectory_path, json)) {
            std::printf("wrote %s (%zu rows)\n", options.trajectory_path.c_str(),
                        rows.size());
        } else {
            std::fprintf(stderr, "failed to write %s\n",
                         options.trajectory_path.c_str());
            return 1;
        }
    }
    return 0;
}
