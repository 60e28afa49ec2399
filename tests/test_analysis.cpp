// Unit tests for the analysis aggregators (Tables 1-4, Figures 2-4).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/accuracy.hpp"
#include "analysis/adoption.hpp"
#include "analysis/csv.hpp"
#include "analysis/longitudinal.hpp"

namespace spinscope::analysis {
namespace {

using util::Duration;
using util::TimePoint;

qlog::PacketEvent one_rtt(std::int64_t ms, quic::PacketNumber pn, bool spin) {
    return {TimePoint::origin() + Duration::millis(ms), quic::PacketType::one_rtt, pn, spin,
            100, true};
}

qlog::Trace make_trace(std::initializer_list<bool> spins, std::vector<double> quic_samples,
                       qlog::ConnectionOutcome outcome = qlog::ConnectionOutcome::ok) {
    qlog::Trace trace;
    trace.host = "www.x";
    trace.ip = "10.0.0.1";
    trace.outcome = outcome;
    quic::PacketNumber pn = 0;
    std::int64_t t = 0;
    for (const bool spin : spins) {
        trace.record_received(one_rtt(t, pn++, spin));
        t += 30;
    }
    trace.metrics.rtt_samples_ms = std::move(quic_samples);
    return trace;
}

scanner::DomainScan make_scan(std::vector<qlog::Trace> traces) {
    scanner::DomainScan scan;
    scan.resolved = true;
    scan.connections = std::move(traces);
    return scan;
}

// --- assess_domain ------------------------------------------------------------

TEST(ClassifyDomain, NotQuicWithoutOkConnections) {
    scanner::DomainScan scan;
    scan.resolved = true;
    EXPECT_EQ(assess_domain(scan).cls, DomainSpinClass::not_quic);
    scan.connections.push_back(
        make_trace({}, {}, qlog::ConnectionOutcome::handshake_timeout));
    EXPECT_EQ(assess_domain(scan).cls, DomainSpinClass::not_quic);
}

TEST(ClassifyDomain, SingleBehaviours) {
    EXPECT_EQ(assess_domain(make_scan({make_trace({false, false, false}, {20.0})})).cls,
              DomainSpinClass::all_zero);
    EXPECT_EQ(assess_domain(make_scan({make_trace({true, true}, {20.0})})).cls,
              DomainSpinClass::all_one);
    EXPECT_EQ(assess_domain(make_scan({make_trace({false, true, false, true}, {20.0})})).cls,
              DomainSpinClass::spinning);
}

TEST(ClassifyDomain, SpinningTakesPrecedence) {
    auto scan = make_scan({make_trace({false, false}, {20.0}),
                           make_trace({false, true, false, true}, {20.0})});
    EXPECT_EQ(assess_domain(scan).cls, DomainSpinClass::spinning);
}

TEST(ClassifyDomain, MixedFixedValues) {
    auto scan = make_scan({make_trace({false, false}, {20.0}),
                           make_trace({true, true}, {20.0})});
    EXPECT_EQ(assess_domain(scan).cls, DomainSpinClass::mixed);
}

TEST(ClassifyDomain, GreasedWhenFilterFires) {
    // Spin period 30 ms but stack says ~50 ms: the filter treats it as
    // presumed greasing.
    auto scan = make_scan({make_trace({false, true, false, true}, {50.0, 52.0})});
    EXPECT_EQ(assess_domain(scan).cls, DomainSpinClass::greased);
}

TEST(ClassifyDomain, VerdictKeepsOkAssessmentsInTraceOrder) {
    // A failed attempt between two OK ones is not assessed, and the OK ones
    // keep their trace order.
    const auto verdict = assess_domain(make_scan(
        {make_trace({false, true, false, true}, {20.0}),
         make_trace({false, true, false, true}, {20.0}, qlog::ConnectionOutcome::handshake_timeout),
         make_trace({false, false, false}, {20.0})}));
    EXPECT_EQ(verdict.cls, DomainSpinClass::spinning);
    ASSERT_EQ(verdict.ok.size(), 2u);
    EXPECT_EQ(verdict.ok[0].behavior, core::SpinBehavior::spinning);
    EXPECT_EQ(verdict.ok[1].behavior, core::SpinBehavior::all_zero);
}

// --- in_list -------------------------------------------------------------------

TEST(InList, MembershipRules) {
    web::Domain domain;
    domain.set_segment(web::Segment::czds_cno);
    domain.on_toplist = false;
    EXPECT_TRUE(in_list(domain, ListId::czds));
    EXPECT_TRUE(in_list(domain, ListId::cno));
    EXPECT_FALSE(in_list(domain, ListId::toplists));

    domain.on_toplist = true;
    EXPECT_TRUE(in_list(domain, ListId::toplists));

    domain.set_segment(web::Segment::czds_other);
    EXPECT_TRUE(in_list(domain, ListId::czds));
    EXPECT_FALSE(in_list(domain, ListId::cno));

    domain.set_segment(web::Segment::toplist_extra);
    EXPECT_FALSE(in_list(domain, ListId::czds));
    EXPECT_FALSE(in_list(domain, ListId::cno));
    EXPECT_TRUE(in_list(domain, ListId::toplists));
}

// --- AdoptionAggregator ----------------------------------------------------------

class AdoptionTest : public ::testing::Test {
protected:
    AdoptionTest() : population_{{200000.0, 20230520}}, aggregator_{population_, false} {}

    web::PopulationModel population_;
    AdoptionAggregator aggregator_;
};

TEST_F(AdoptionTest, CountsFunnelMonotonically) {
    // Synthesize: one unresolved, one resolved non-QUIC, one spinning.
    const web::Domain d0 = population_.domain(0);
    scanner::DomainScan unresolved;
    unresolved.resolved = false;
    aggregator_.add(d0, unresolved);

    scanner::DomainScan no_quic;
    no_quic.resolved = true;
    aggregator_.add(d0, no_quic);

    aggregator_.add(d0, make_scan({make_trace({false, true, false, true}, {25.0})}));

    for (std::size_t l = 0; l < kListCount; ++l) {
        const auto& c = aggregator_.list(static_cast<ListId>(l));
        EXPECT_GE(c.domains_total, c.domains_resolved);
        EXPECT_GE(c.domains_resolved, c.domains_quic);
        EXPECT_GE(c.domains_quic, c.domains_spin);
    }
    const auto& czds = aggregator_.list(ListId::czds);
    if (in_list(d0, ListId::czds)) {
        EXPECT_EQ(czds.domains_total, 3u);
        EXPECT_EQ(czds.domains_resolved, 2u);
        EXPECT_EQ(czds.domains_quic, 1u);
        EXPECT_EQ(czds.domains_spin, 1u);
        EXPECT_EQ(czds.ips_spin.size(), 1u);
    }
}

TEST_F(AdoptionTest, OrgConnectionCounting) {
    const auto universe = population_.materialize(0, population_.domain_count());
    const web::Domain* cno_domain = nullptr;
    for (const auto& d : universe.domains) {
        if (d.segment() == web::Segment::czds_cno && d.resolves) {
            cno_domain = &d;
            break;
        }
    }
    ASSERT_NE(cno_domain, nullptr);
    aggregator_.add(*cno_domain,
                    make_scan({make_trace({false, true, false}, {25.0}),
                               make_trace({false, false}, {25.0}),
                               make_trace({false, true, false}, {25.0},
                                          qlog::ConnectionOutcome::handshake_timeout)}));
    const auto& orgs = aggregator_.orgs();
    std::uint64_t total = 0;
    std::uint64_t spin = 0;
    for (const auto& org : orgs) {
        total += org.connections;
        spin += org.spin_connections;
    }
    EXPECT_EQ(total, 2u);  // both OK connections counted, the failed one not
    EXPECT_EQ(spin, 1u);   // only the flipping one
    const auto sum = [](const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
        std::uint64_t n = 0;
        for (const auto& entry : counts) n += entry.second;
        return n;
    };
    EXPECT_EQ(sum(aggregator_.webserver_connections()), 2u);
    EXPECT_EQ(sum(aggregator_.webserver_connections(/*spinning_only=*/true)), 1u);
}

TEST_F(AdoptionTest, RenderersProduceTables) {
    const web::Domain d0 = population_.domain(0);
    aggregator_.add(d0, make_scan({make_trace({false, true, false, true}, {25.0})}));
    EXPECT_NE(aggregator_.render_overview_table().find("Resolved"), std::string::npos);
    EXPECT_NE(aggregator_.render_org_table().find("AS Organization"), std::string::npos);
    EXPECT_NE(aggregator_.render_config_table().find("All Zero"), std::string::npos);
}

// --- AccuracyAggregator ----------------------------------------------------------

TEST(AccuracyAgg, HeadlineSharesFromKnownInputs) {
    AccuracyAggregator agg;
    // The make_trace square wave has a 30 ms spin period.
    // Connection A: spin 30 vs quic 24 -> over, ratio 1.25, diff 6 ms.
    agg.add(core::assess_connection(make_trace({false, true, false, true, false}, {24.0})));
    // Connection B: spin 30 vs quic 10 -> over, ratio 3.0, diff 20 ms.
    agg.add(core::assess_connection(make_trace({false, true, false, true, false}, {10.0})));
    const auto h = agg.headline(AccuracySeries::spin_received);
    EXPECT_EQ(h.connections, 2u);
    EXPECT_DOUBLE_EQ(h.overestimate_share, 1.0);
    EXPECT_DOUBLE_EQ(h.within_25ms_share, 1.0);
    EXPECT_DOUBLE_EQ(h.over_200ms_share, 0.0);
    EXPECT_DOUBLE_EQ(h.within_ratio_125_share, 0.5);
    EXPECT_DOUBLE_EQ(h.within_ratio_2_share, 0.5);
    EXPECT_DOUBLE_EQ(h.underestimate_share, 0.0);
}

TEST(AccuracyAgg, GreasedGoesToGreaseSeries) {
    AccuracyAggregator agg;
    agg.add(core::assess_connection(make_trace({false, true, false, true}, {50.0, 52.0})));
    EXPECT_EQ(agg.headline(AccuracySeries::spin_received).connections, 0u);
    const auto grease = agg.headline(AccuracySeries::grease_received);
    EXPECT_EQ(grease.connections, 1u);
    EXPECT_DOUBLE_EQ(grease.underestimate_share, 1.0);
}

TEST(AccuracyAgg, NonCandidatesIgnored) {
    AccuracyAggregator agg;
    agg.add(core::assess_connection(make_trace({false, false, false}, {20.0})));
    EXPECT_EQ(agg.headline(AccuracySeries::spin_received).connections, 0u);
    EXPECT_EQ(agg.reordering().connections, 0u);
}

TEST(AccuracyAgg, ReorderingImpactDetection) {
    AccuracyAggregator agg;
    // Build a trace whose R and S means differ (reordered straggler).
    qlog::Trace trace;
    trace.outcome = qlog::ConnectionOutcome::ok;
    trace.record_received(one_rtt(0, 0, false));
    trace.record_received(one_rtt(40, 1, true));
    trace.record_received(one_rtt(80, 3, false));
    trace.record_received(one_rtt(81, 2, true));
    trace.record_received(one_rtt(120, 4, true));
    trace.metrics.rtt_samples_ms = {1.0};  // tiny baseline: not greased? min spin 1ms >= 1
    const auto assessment = core::assess_connection(trace);
    agg.add(assessment);
    if (assessment.behavior == core::SpinBehavior::spinning) {
        EXPECT_EQ(agg.reordering().connections, 1u);
        EXPECT_EQ(agg.reordering().differing, 1u);
    }
    // A clean connection adds a non-differing data point.
    agg.add(core::assess_connection(make_trace({false, true, false, true}, {25.0})));
    EXPECT_GT(agg.reordering().connections, 0u);
    EXPECT_NE(agg.render_reordering_impact().find("differing"), std::string::npos);
}

TEST(AccuracyAgg, FiguresRender) {
    AccuracyAggregator agg;
    agg.add(core::assess_connection(make_trace({false, true, false, true}, {25.0})));
    EXPECT_NE(agg.render_abs_figure().find("Figure 3"), std::string::npos);
    EXPECT_NE(agg.render_ratio_figure().find("Figure 4"), std::string::npos);
    EXPECT_NE(agg.render_headlines().find("paper Spin(R)"), std::string::npos);
}

// --- LongitudinalAggregator -------------------------------------------------------

TEST(Longitudinal, HistogramCountsWeeks) {
    LongitudinalAggregator agg{4};
    // Bit w of each mask is week w: (connected, spun).
    agg.add_domain(0b1111, 0b1111);  // connected+spun all 4 weeks
    agg.add_domain(0b1111, 0b0011);  // connected all, spun 2 weeks
    agg.add_domain(0b1011, 0b1111);  // spun but missed week 2's connection -> excluded
    agg.add_domain(0b1111, 0b0000);  // never spun -> not in the population at all

    EXPECT_EQ(agg.spun_any(), 3u);
    EXPECT_EQ(agg.connected_all(), 2u);
    const auto histogram = agg.weeks_spinning_histogram();
    EXPECT_EQ(histogram.total(), 2u);
    EXPECT_EQ(histogram.count(4), 1u);
    EXPECT_EQ(histogram.count(2), 1u);
    EXPECT_EQ(histogram.count(3), 0u);
}

TEST(Longitudinal, OutOfRangeWeekIgnored) {
    LongitudinalAggregator agg{2};
    // Spinning only in weeks 2 and 3 of a 2-week campaign counts nowhere.
    agg.add_domain(0b1100, 0b1100);
    EXPECT_EQ(agg.spun_any(), 0u);
    EXPECT_EQ(agg.connected_all(), 0u);
    // An out-of-range connected bit does not stand in for a missed week.
    agg.add_domain(0b0101, 0b0011);
    EXPECT_EQ(agg.spun_any(), 1u);
    EXPECT_EQ(agg.connected_all(), 0u);
    // An out-of-range spun bit adds no week to the histogram.
    agg.add_domain(0b0011, 0b1101);
    EXPECT_EQ(agg.connected_all(), 1u);
    EXPECT_EQ(agg.weeks_spinning_histogram().count(1), 1u);
    EXPECT_EQ(agg.weeks_spinning_histogram().count(2), 0u);
}

TEST(Longitudinal, RfcSharesAreConditionedDistribution) {
    LongitudinalAggregator agg{12};
    for (const unsigned lottery : {8u, 16u}) {
        const auto shares = agg.rfc_shares(lottery);
        ASSERT_EQ(shares.size(), 13u);
        double sum = 0.0;
        for (unsigned k = 1; k <= 12; ++k) sum += shares[k];
        EXPECT_NEAR(sum, 1.0, 1e-9);
        EXPECT_DOUBLE_EQ(shares[0], 0.0);
    }
    // 1-in-16 spins more often than 1-in-8 at the top bin.
    EXPECT_GT(agg.rfc_shares(16)[12], agg.rfc_shares(8)[12]);
}

TEST(Csv, HistogramExportsParse) {
    AccuracyAggregator agg;
    agg.add(core::assess_connection(make_trace({false, true, false, true}, {25.0})));
    const auto abs_csv = abs_histogram_csv(agg);
    const auto ratio_csv = ratio_histogram_csv(agg);
    // Header + one row per bin + under/overflow rows.
    const auto lines = [](const std::string& text) {
        return std::count(text.begin(), text.end(), '\n');
    };
    EXPECT_EQ(static_cast<std::size_t>(lines(abs_csv)),
              agg.abs_histogram(AccuracySeries::spin_received).bin_count() + 3);
    EXPECT_EQ(static_cast<std::size_t>(lines(ratio_csv)),
              agg.ratio_histogram(AccuracySeries::spin_received).bin_count() + 3);
    EXPECT_EQ(abs_csv.find("bin_low,bin_high,spin_r"), 0u);
    // Every data row has exactly 5 commas.
    std::istringstream in{abs_csv};
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) {
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5) << line;
    }
}

TEST(Csv, WeeksExport) {
    LongitudinalAggregator agg{4};
    agg.add_domain(0b1111, 0b1111);
    const auto csv = weeks_histogram_csv(agg);
    EXPECT_EQ(csv.find("weeks,measured,rfc9000,rfc9312"), 0u);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);  // header + 4 weeks
    EXPECT_NE(csv.find("4,1"), std::string::npos);  // all-4-weeks share = 1
}

TEST(Longitudinal, RendersFigure) {
    LongitudinalAggregator agg{12};
    agg.add_domain(0xFFF, 0x555);  // connected every week, spun every other week
    const auto out = agg.render_figure();
    EXPECT_NE(out.find("Figure 2"), std::string::npos);
    EXPECT_NE(out.find("RFC 9000"), std::string::npos);
}

}  // namespace
}  // namespace spinscope::analysis
