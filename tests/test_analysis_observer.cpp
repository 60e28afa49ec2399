// Tests for analysis::ObserverReplay (DESIGN.md §14.4): the Fig. 3/4
// accuracy pipeline re-run from an on-path observer's viewpoint.
//
// Two pins on one small campaign:
//  * a cross-observer oracle — a perfect flow table with the default
//    observer config sees exactly what the endpoint sees in received order,
//    so the idealized run must reproduce the endpoint pipeline connection
//    for connection;
//  * the constrained run under a tiny LRU table, pinned to exact summary
//    and table counters and checked against the §14.3 accounting identities.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/accuracy.hpp"
#include "analysis/observer.hpp"
#include "core/accuracy.hpp"
#include "qlog/trace.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

namespace spinscope::analysis {
namespace {

/// Every successful connection trace of a small campaign, in scan order.
std::vector<qlog::Trace> campaign_traces() {
    const web::PopulationModel population{{50000.0, 1}};
    const scanner::Campaign campaign{population, {}};
    const auto universe = population.materialize(0, population.domain_count());
    std::vector<qlog::Trace> traces;
    for (const auto& domain : universe.domains) {
        if (!domain.quic) continue;
        auto scan = campaign.scan_domain(domain);
        for (auto& trace : scan.connections) {
            if (trace.outcome == qlog::ConnectionOutcome::ok) traces.push_back(std::move(trace));
        }
    }
    return traces;
}

ObserverReplay replay_of(const std::vector<qlog::Trace>& traces) {
    ObserverReplay replay;
    for (const auto& trace : traces) replay.add(trace);
    return replay;
}

void expect_same_histogram(const util::Histogram& a, const util::Histogram& b) {
    ASSERT_EQ(a.bin_count(), b.bin_count());
    for (std::size_t i = 0; i < a.bin_count(); ++i) EXPECT_EQ(a.bin(i), b.bin(i)) << "bin " << i;
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.total(), b.total());
}

void expect_same_aggregate(const AccuracyAggregator& a, const AccuracyAggregator& b) {
    for (std::size_t s = 0; s < kSeriesCount; ++s) {
        const auto series = static_cast<AccuracySeries>(s);
        SCOPED_TRACE(to_cstring(series));
        expect_same_histogram(a.abs_histogram(series), b.abs_histogram(series));
        expect_same_histogram(a.ratio_histogram(series), b.ratio_histogram(series));
        const AccuracyHeadline ha = a.headline(series);
        const AccuracyHeadline hb = b.headline(series);
        EXPECT_EQ(ha.connections, hb.connections);
        EXPECT_EQ(ha.overestimate_share, hb.overestimate_share);
        EXPECT_EQ(ha.within_25ms_share, hb.within_25ms_share);
        EXPECT_EQ(ha.over_200ms_share, hb.over_200ms_share);
        EXPECT_EQ(ha.within_ratio_125_share, hb.within_ratio_125_share);
        EXPECT_EQ(ha.within_ratio_2_share, hb.within_ratio_2_share);
        EXPECT_EQ(ha.over_ratio_3_share, hb.over_ratio_3_share);
        EXPECT_EQ(ha.underestimate_share, hb.underestimate_share);
    }
    EXPECT_EQ(a.reordering().connections, b.reordering().connections);
    EXPECT_EQ(a.reordering().differing, b.reordering().differing);
    EXPECT_EQ(a.reordering().diff_below_1ms, b.reordering().diff_below_1ms);
    EXPECT_EQ(a.reordering().improved, b.reordering().improved);
    EXPECT_EQ(a.render_abs_figure(), b.render_abs_figure());
    EXPECT_EQ(a.render_ratio_figure(), b.render_ratio_figure());
}

TEST(ObserverReplayOracle, IdealizedRunEqualsEndpointReceivedOrder) {
    const auto traces = campaign_traces();
    const ObserverReplay replay = replay_of(traces);

    // The endpoint's own received-order view: a wire observer cannot sort
    // by packet number, so its "sorted" series is the received one.
    AccuracyAggregator expected;
    std::uint64_t connections = 0;
    std::uint64_t candidates = 0;
    for (const auto& trace : traces) {
        if (core::spin_observations(trace).empty()) continue;  // replay ignores these
        ++connections;
        core::ConnectionAssessment assessment = core::assess_connection(trace);
        assessment.spin_sorted = assessment.spin_received;
        if (assessment.spin_received.has_samples()) ++candidates;
        expected.add(assessment);
    }

    const ObserverRun run = replay.run_idealized();
    EXPECT_EQ(run.summary.connections, connections);
    EXPECT_EQ(run.summary.candidates, candidates);
    ASSERT_GT(run.summary.candidates, 0u);
    EXPECT_EQ(run.summary.measured, run.summary.candidates);
    EXPECT_DOUBLE_EQ(run.summary.coverage, 1.0);
    EXPECT_EQ(run.summary.table.offered, 0u);  // no table in the idealized model
    expect_same_aggregate(run.aggregator, expected);
}

TEST(ObserverReplayConstrained, TinyLruTableIsPinnedAndAccounted) {
    const auto traces = campaign_traces();
    const ObserverReplay replay = replay_of(traces);
    std::uint64_t datagrams = 0;
    for (const auto& trace : traces) datagrams += core::spin_observations(trace).size();

    core::ConstrainedConfig config;
    config.log2_slots = 5;  // 32 slots for the whole campaign
    config.eviction = core::EvictionPolicy::lru;
    config.lru_idle_packets = 32;
    const ObserverRun run = replay.run_constrained(config);

    const ObserverRunSummary& s = run.summary;
    const core::ConstrainedTableCounters& t = s.table;
    // Accounting identities (DESIGN.md §14.3). Every replayed datagram is a
    // well-formed short-header packet, so the idealized table would have
    // tracked all of them.
    EXPECT_EQ(t.offered, datagrams);
    EXPECT_EQ(t.non_flow, 0u);
    EXPECT_EQ(t.offered, t.non_flow + t.sampled_out + t.tracked + t.untracked);
    EXPECT_EQ(t.collisions, t.untracked + t.evictions);
    EXPECT_EQ(datagrams - t.tracked, t.sampled_out + t.untracked);
    EXPECT_LE(t.active_slots, 32u);
    EXPECT_LE(s.measured, s.connections);
    EXPECT_LE(s.comparable, s.measured);
    EXPECT_LE(s.within_25ms, s.comparable);

    // Exact values: the replay is a pure function of the campaign.
    EXPECT_EQ(s.connections, 499u);
    EXPECT_EQ(s.candidates, 45u);
    EXPECT_EQ(s.measured, 7u);
    EXPECT_EQ(s.comparable, 7u);
    EXPECT_EQ(s.within_25ms, 2u);
    EXPECT_NEAR(s.mean_abs_err_ms, 683.809230016667, 1e-9);
    EXPECT_EQ(t.offered, 23314u);
    EXPECT_EQ(t.sampled_out, 0u);
    EXPECT_EQ(t.tracked, 20756u);
    EXPECT_EQ(t.untracked, 2558u);
    EXPECT_EQ(t.collisions, 4484u);
    EXPECT_EQ(t.evictions, 1926u);
    EXPECT_EQ(t.active_slots, 32u);
}

}  // namespace
}  // namespace spinscope::analysis
