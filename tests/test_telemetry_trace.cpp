// Flight-recorder suite (DESIGN.md §12): the Chrome trace-event writer, the
// resource probes and the campaign timeline they record.
//
// The contract under test: the sim trace of a campaign is BYTE-IDENTICAL for
// every thread count, and a killed-and-resumed campaign re-drives the same
// spans with only the `replayed` flag flipped — the flight recorder is part
// of the determinism contract, not a best-effort log. This TU also includes
// telemetry/alloc_interpose.hpp (its one allowed TU in this binary), so the
// allocation-accounting half of the probes is exercised for real.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "scanner/campaign.hpp"
#include "telemetry/alloc_interpose.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/trace.hpp"
#include "web/population.hpp"

namespace spinscope::telemetry {
namespace {

// --- Minimal JSON validator --------------------------------------------------
// Just enough of RFC 8259 to reject structurally torn output; no number
// pedantry beyond strtod, no \u escapes (the writer never emits them).

struct JsonParser {
    const std::string& s;
    std::size_t pos = 0;

    void skip_ws() {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                                  s[pos] == '\r')) {
            ++pos;
        }
    }
    bool literal(const char* lit) {
        const std::size_t n = std::string::traits_type::length(lit);
        if (s.compare(pos, n, lit) != 0) return false;
        pos += n;
        return true;
    }
    bool string() {
        if (pos >= s.size() || s[pos] != '"') return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size()) return false;
            }
            ++pos;
        }
        if (pos >= s.size()) return false;
        ++pos;  // closing quote
        return true;
    }
    bool number() {
        const char* begin = s.c_str() + pos;
        char* end = nullptr;
        (void)std::strtod(begin, &end);
        if (end == begin) return false;
        pos += static_cast<std::size_t>(end - begin);
        return true;
    }
    bool value() {
        skip_ws();
        if (pos >= s.size()) return false;
        switch (s[pos]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos;  // '{'
        skip_ws();
        if (pos < s.size() && s[pos] == '}') return ++pos, true;
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (pos >= s.size() || s[pos] != ':') return false;
            ++pos;
            if (!value()) return false;
            skip_ws();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= s.size() || s[pos] != '}') return false;
        ++pos;
        return true;
    }
    bool array() {
        ++pos;  // '['
        skip_ws();
        if (pos < s.size() && s[pos] == ']') return ++pos, true;
        while (true) {
            if (!value()) return false;
            skip_ws();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= s.size() || s[pos] != ']') return false;
        ++pos;
        return true;
    }
};

bool is_valid_json(const std::string& text) {
    JsonParser p{text};
    if (!p.value()) return false;
    p.skip_ws();
    return p.pos == text.size();
}

// --- Trace-event extraction --------------------------------------------------
// Splits "traceEvents":[...] into its top-level objects (quote-aware, so an
// escaped brace inside an error-string arg cannot desync the walk) and pulls
// the fields the ordering assertions need.

struct ParsedEvent {
    char ph = '?';
    int tid = -1;
    double ts = -1.0;  ///< microseconds; -1 for metadata events (no ts)
    std::string raw;
};

std::vector<ParsedEvent> parse_events(const std::string& json) {
    std::vector<ParsedEvent> events;
    const std::size_t array_at = json.find("\"traceEvents\":[");
    EXPECT_NE(array_at, std::string::npos);
    if (array_at == std::string::npos) return events;

    std::size_t depth = 0;
    std::size_t start = 0;
    bool in_string = false;
    for (std::size_t i = array_at; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            if (++depth == 1) start = i;
        } else if (c == '}') {
            if (depth-- == 1) {
                ParsedEvent event;
                event.raw = json.substr(start, i - start + 1);
                const auto field = [&event](const char* key) -> const char* {
                    const std::size_t at = event.raw.find(key);
                    return at == std::string::npos
                               ? nullptr
                               : event.raw.c_str() + at +
                                     std::string::traits_type::length(key);
                };
                if (const char* ph = field("\"ph\":\"")) event.ph = *ph;
                if (const char* tid = field("\"tid\":")) event.tid = std::atoi(tid);
                if (const char* ts = field("\"ts\":")) event.ts = std::atof(ts);
                events.push_back(std::move(event));
            }
        } else if (c == ']' && depth == 0 && i > array_at + 14) {
            break;
        }
    }
    return events;
}

// --- Campaign harness --------------------------------------------------------

// ~110 domains at seed 1 — 7 chunks at the default chunk_domains=16 (the
// same corpus as the journal suite).
web::PopulationModel tiny_population() { return web::PopulationModel{{2'000'000.0, 1}}; }

scanner::ScanOptions traced_options(unsigned threads) {
    scanner::ScanOptions options;
    options.threads = threads;
    return options;
}

/// Runs a campaign with a recorder attached and returns the two trace JSONs.
struct TracedRun {
    std::string sim;
    std::string wall;
    scanner::CampaignStats stats;
    std::string deterministic_telemetry;
};

TracedRun run_traced(const web::PopulationModel& population, const scanner::ScanOptions& options,
                     bool reduce = false) {
    scanner::Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    TraceRecorder trace;
    campaign.set_trace(&trace);
    const auto sink = [](const web::Domain&, scanner::DomainScan&&) {};
    TracedRun result;
    result.stats = reduce ? campaign.reduce(sink) : campaign.run(sink);
    result.sim = trace.to_json(TraceClock::sim);
    result.wall = trace.to_json(TraceClock::wall);
    result.deterministic_telemetry = telemetry::deterministic_csv(registry);
    return result;
}

class TraceTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_trace_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

// --- Recorder unit tests -----------------------------------------------------

TEST(TraceArgTest, FormatsScalars) {
    EXPECT_EQ(TraceArg::num("n", std::uint64_t{42}).value, "42");
    EXPECT_EQ(TraceArg::num("f", 1.5).value, "1.5");
    EXPECT_EQ(TraceArg::str("s", "plain").value, "\"plain\"");
    // Quotes and backslashes escape; control characters are dropped, so an
    // arbitrary scan-error string can never tear the JSON.
    EXPECT_EQ(TraceArg::str("s", "a\"b\\c\nd").value, "\"a\\\"b\\\\cd\"");
}

TEST(TraceRecorderTest, LaneTidsFollowRegistrationOrder) {
    TraceRecorder trace;
    EXPECT_EQ(trace.lane(TraceClock::sim, "merge"), 0);
    EXPECT_EQ(trace.lane(TraceClock::sim, "aux"), 1);
    EXPECT_EQ(trace.lane(TraceClock::sim, "merge"), 0);  // lookup, not re-register
    // The two clocks have independent tid spaces.
    EXPECT_EQ(trace.lane(TraceClock::wall, "merge"), 0);
    EXPECT_EQ(trace.wall_lane_for_current_thread("worker"), 1);
    EXPECT_EQ(trace.wall_lane_for_current_thread("worker"), 1);  // sticky per thread
}

TEST(TraceRecorderTest, EmitsWellFormedChromeTraceJson) {
    TraceRecorder trace;
    const int lane = trace.lane(TraceClock::sim, "merge (chunk timeline)");
    trace.complete(TraceClock::sim, lane, "chunk", 1000, 500,
                   {TraceArg::num("chunk", std::uint64_t{0}),
                    TraceArg::str("note", "with \"quotes\"")});
    trace.instant(TraceClock::sim, lane, "quarantine", 1200,
                  {TraceArg::num("chunk", std::uint64_t{7})});
    trace.counter(TraceClock::sim, "domains", 1500, 16.0);
    trace.complete(TraceClock::wall, trace.lane(TraceClock::wall, "worker 0"),
                   "scan chunk", 0, 2000);

    for (const TraceClock clock : {TraceClock::sim, TraceClock::wall}) {
        const std::string json = trace.to_json(clock);
        EXPECT_TRUE(is_valid_json(json)) << json;
        EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
        // Metadata (process/thread names) precedes the first real event.
        EXPECT_LT(json.find("process_name"), json.find("\"ph\":\"X\""));
        EXPECT_NE(json.find("thread_sort_index"), std::string::npos);
    }
    const std::string sim = trace.to_json(TraceClock::sim);
    // Timestamps are <ns/1000>.<frac3> microseconds, formatted from integers.
    EXPECT_NE(sim.find("\"ts\":1.000"), std::string::npos);
    EXPECT_NE(sim.find("\"dur\":0.500"), std::string::npos);
    EXPECT_NE(sim.find("\"s\":\"t\""), std::string::npos);  // instant scope
    EXPECT_NE(sim.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceRecorderTest, WallSidecarPathDerivation) {
    EXPECT_EQ(TraceRecorder::wall_sidecar_path("campaign.trace.json"),
              "campaign.trace.wall.json");
    EXPECT_EQ(TraceRecorder::wall_sidecar_path("trace"), "trace.wall.json");
    EXPECT_EQ(TraceRecorder::wall_sidecar_path("dir/run.json"), "dir/run.wall.json");
}

TEST_F(TraceTest, WriteEmitsSimFileAndWallSidecar) {
    TraceRecorder trace;
    trace.complete(TraceClock::sim, trace.lane(TraceClock::sim, "merge"), "chunk", 0, 10);
    trace.instant(TraceClock::wall, trace.lane(TraceClock::wall, "worker 0"), "go", 5);

    const std::string path = (dir_ / "campaign.trace.json").string();
    ASSERT_TRUE(trace.write(path));
    for (const std::string& file : {path, TraceRecorder::wall_sidecar_path(path)}) {
        std::ifstream in{file, std::ios::binary};
        ASSERT_TRUE(in.good()) << file;
        std::string text{std::istreambuf_iterator<char>{in},
                         std::istreambuf_iterator<char>{}};
        ASSERT_FALSE(text.empty()) << file;
        EXPECT_EQ(text.back(), '\n');
        text.pop_back();
        EXPECT_TRUE(is_valid_json(text)) << file;
    }
}

TEST(TraceRecorderTest, BookkeepingMetricsStayOutOfTheDeterministicView) {
    TraceRecorder trace;
    trace.instant(TraceClock::sim, trace.lane(TraceClock::sim, "merge"), "quarantine", 1);
    MetricsRegistry registry;
    registry.counter(CounterId::scanner_connections).add(5);
    trace.publish_metrics(registry);

    ASSERT_NE(registry.find_counter("trace.events_sim"), nullptr);
    EXPECT_EQ(registry.find_counter("trace.events_sim")->value(), 1u);
    ASSERT_NE(registry.find_counter("trace.lanes"), nullptr);

    // trace.* counts depend on lane geometry and wall events, obs.* on the
    // host — both are excluded from the determinism contract.
    EXPECT_EQ(info(CounterId::trace_events_sim).metric_class, MetricClass::chunk_geometry);
    EXPECT_EQ(info(CounterId::trace_lanes).metric_class, MetricClass::chunk_geometry);
    EXPECT_EQ(info(GaugeId::obs_resource_campaign_wall_seconds).metric_class, MetricClass::host);
    EXPECT_EQ(info(CounterId::scanner_connections).metric_class, MetricClass::deterministic);

    const std::string csv = deterministic_csv(registry);
    EXPECT_EQ(csv.find("trace."), std::string::npos);
    EXPECT_NE(csv.find("scanner.connections"), std::string::npos);
}

// --- Resource probes (interposer lives in THIS translation unit) ------------

TEST(ResourceProbeTest, AllocInterposerCountsThisBinary) {
    ASSERT_TRUE(alloc::active());
    const AllocSnapshot before;
    {
        std::vector<char> block(1 << 16);
        block[0] = 1;
        ASSERT_EQ(block[0], 1);
    }
    EXPECT_GE(before.count_since(), 1u);
    EXPECT_GE(before.bytes_since(), std::uint64_t{1} << 16);
}

TEST(ResourceProbeTest, PublishesObsGaugesOutsideTheDeterministicView) {
    ResourceProbe probe;
    std::vector<char> block(1 << 16);
    block[0] = 1;
    const ResourceProbe::Report report = probe.sample();
    EXPECT_TRUE(report.alloc_active);
    EXPECT_GE(report.allocs, 1u);
    EXPECT_GE(report.alloc_bytes, std::uint64_t{1} << 16);
    EXPECT_GE(report.wall_seconds, 0.0);
#if defined(__linux__)
    EXPECT_GT(report.peak_rss, 0u);
    EXPECT_GT(current_rss_bytes(), 0u);
#endif

    MetricsRegistry registry;
    registry.counter(CounterId::scanner_connections).add(1);
    probe.publish(registry);
    for (const GaugeId id :
         {GaugeId::obs_resource_campaign_wall_seconds, GaugeId::obs_resource_campaign_peak_rss_bytes,
          GaugeId::obs_resource_campaign_allocs, GaugeId::obs_resource_campaign_alloc_bytes}) {
        EXPECT_NE(registry.find(id), nullptr) << info(id).name;
        EXPECT_EQ(info(id).metric_class, MetricClass::host) << info(id).name;
    }
    EXPECT_EQ(deterministic_csv(registry).find("obs."), std::string::npos);
}

// --- Campaign timeline -------------------------------------------------------

TEST(CampaignTraceTest, SimTraceIsByteIdenticalAcrossThreadCounts) {
    const web::PopulationModel population = tiny_population();
    const TracedRun baseline = run_traced(population, traced_options(1));

    ASSERT_TRUE(is_valid_json(baseline.sim)) << baseline.sim;
    ASSERT_TRUE(is_valid_json(baseline.wall));
    EXPECT_NE(baseline.sim.find("\"name\":\"chunk\""), std::string::npos);
    EXPECT_NE(baseline.sim.find("\"name\":\"domains\""), std::string::npos);
    EXPECT_NE(baseline.sim.find("\"replayed\":0"), std::string::npos);
    // Wall sidecar carries the scheduling story (worker + merge lanes).
    EXPECT_NE(baseline.wall.find("scan chunk"), std::string::npos);
    EXPECT_NE(baseline.wall.find("merge chunk"), std::string::npos);

    for (const unsigned threads : {2u, 8u}) {
        const TracedRun run = run_traced(population, traced_options(threads));
        EXPECT_EQ(run.sim, baseline.sim) << "threads=" << threads;
        EXPECT_EQ(run.deterministic_telemetry, baseline.deterministic_telemetry)
            << "threads=" << threads;
    }
}

TEST(CampaignTraceTest, SimTimestampsAreNonDecreasingPerLane) {
    const TracedRun run = run_traced(tiny_population(), traced_options(8));
    const std::vector<ParsedEvent> events = parse_events(run.sim);
    ASSERT_FALSE(events.empty());

    std::size_t timed = 0;
    std::vector<double> last_ts;  // per tid
    for (const ParsedEvent& event : events) {
        if (event.ph == 'M') continue;  // metadata has no timestamp
        ASSERT_GE(event.tid, 0) << event.raw;
        ASSERT_GE(event.ts, 0.0) << event.raw;
        if (last_ts.size() <= static_cast<std::size_t>(event.tid)) {
            last_ts.resize(static_cast<std::size_t>(event.tid) + 1, 0.0);
        }
        // Non-decreasing, not strictly increasing: a chunk span shares its
        // start timestamp with its first instant, and zero-sim-time domains
        // produce exact ties.
        EXPECT_GE(event.ts, last_ts[static_cast<std::size_t>(event.tid)]) << event.raw;
        last_ts[static_cast<std::size_t>(event.tid)] = event.ts;
        ++timed;
    }
    EXPECT_GT(timed, 7u);  // at least one span per chunk plus counters
}

TEST_F(TraceTest, KillAndResumeReplaysTheSameTimelineFlaggedReplayed) {
    const web::PopulationModel population = tiny_population();
    scanner::ScanOptions options = traced_options(1);
    options.chunk_domains = 4;  // two batch files: the kill leaves one
    const TracedRun baseline = run_traced(population, options);

    scanner::ScanOptions journaled = options;
    journaled.threads = 2;
    journaled.journal_dir = (dir_ / "journal").string();
    {
        struct Kill {};
        scanner::Campaign campaign{population, journaled};
        telemetry::MetricsRegistry registry;  // header must match run_traced's
        campaign.set_metrics(&registry);
        std::uint64_t merged = 0;
        EXPECT_THROW(campaign.run([&](const web::Domain&, scanner::DomainScan&&) {
                         if (merged >= 2 * journaled.chunk_domains) throw Kill{};
                         ++merged;
                     }),
                     Kill);
    }

    const TracedRun reduced = run_traced(population, journaled, /*reduce=*/true);
    ASSERT_TRUE(is_valid_json(reduced.sim));
    // The replayed chunks are flagged, the rescanned ones are not; flipping
    // the flag back recovers the uninterrupted trace byte for byte.
    EXPECT_NE(reduced.sim.find("\"replayed\":1"), std::string::npos);
    EXPECT_NE(reduced.sim.find("\"replayed\":0"), std::string::npos);
    EXPECT_NE(reduced.wall.find("journal publish"), std::string::npos);
    std::string normalized = reduced.sim;
    constexpr std::string_view kReplayed = "\"replayed\":1";
    for (std::size_t at = normalized.find(kReplayed); at != std::string::npos;
         at = normalized.find(kReplayed, at)) {
        normalized[at + kReplayed.size() - 1] = '0';
    }
    EXPECT_EQ(normalized, baseline.sim);
    EXPECT_EQ(reduced.deterministic_telemetry, baseline.deterministic_telemetry);
}

TEST(CampaignTraceTest, AttachingARecorderDoesNotPerturbDeterministicTelemetry) {
    const web::PopulationModel population = tiny_population();
    const scanner::ScanOptions options = traced_options(1);

    scanner::Campaign plain{population, options};
    telemetry::MetricsRegistry plain_registry;
    plain.set_metrics(&plain_registry);
    plain.run([](const web::Domain&, scanner::DomainScan&&) {});

    const TracedRun traced = run_traced(population, options);
    EXPECT_EQ(traced.deterministic_telemetry, deterministic_csv(plain_registry));
}

}  // namespace
}  // namespace spinscope::telemetry
