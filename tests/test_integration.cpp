// End-to-end integration tests: population -> campaign -> qlog -> analysis,
// including cross-checks between aggregates and serialization round-trips
// through the full pipeline.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/accuracy.hpp"
#include "analysis/adoption.hpp"
#include "analysis/longitudinal.hpp"
#include "core/accuracy.hpp"
#include "qlog/trace.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

namespace spinscope {
namespace {

class PipelineTest : public ::testing::Test {
protected:
    PipelineTest()
        : population_{{20000.0, 20230520}},
          universe_{population_.materialize(0, population_.domain_count())} {}

    web::PopulationModel population_;
    web::DomainBlock universe_;
};

TEST_F(PipelineTest, SweepProducesConsistentFunnel) {
    scanner::ScanOptions options;
    options.week = 57;
    scanner::Campaign campaign{population_, options};
    analysis::AdoptionAggregator aggregator{population_, false};
    campaign.run([&](const web::Domain& domain, scanner::DomainScan&& scan) {
        aggregator.add(domain, scan);
    });

    for (std::size_t l = 0; l < analysis::kListCount; ++l) {
        const auto& c = aggregator.list(static_cast<analysis::ListId>(l));
        // Domain funnel is monotone.
        EXPECT_GE(c.domains_total, c.domains_resolved);
        EXPECT_GE(c.domains_resolved, c.domains_quic);
        EXPECT_GE(c.domains_quic,
                  c.domains_spin + c.domains_all_zero + c.domains_all_one + c.domains_grease);
        // IP funnel is monotone and spin IPs exist only among QUIC IPs.
        EXPECT_GE(c.ips_resolved.size(), c.ips_quic.size());
        EXPECT_GE(c.ips_quic.size(), c.ips_spin.size());
        for (const web::Domain& d : universe_.domains) {
            EXPECT_TRUE(!c.ips_spin.contains(d) || c.ips_quic.contains(d)) << d.id;
        }
    }

    // com/net/org is a subset of CZDS in every counter.
    const auto& czds = aggregator.list(analysis::ListId::czds);
    const auto& cno = aggregator.list(analysis::ListId::cno);
    EXPECT_GE(czds.domains_total, cno.domains_total);
    EXPECT_GE(czds.domains_quic, cno.domains_quic);
    EXPECT_GE(czds.domains_spin, cno.domains_spin);

    // Sanity: some spin activity exists at this scale.
    EXPECT_GT(czds.domains_spin, 0u);
    EXPECT_GT(czds.domains_all_zero, czds.domains_spin);
}

TEST_F(PipelineTest, Table2ConnectionsMatchClassifiedScans) {
    scanner::ScanOptions options;
    options.week = 57;
    scanner::Campaign campaign{population_, options};
    analysis::AdoptionAggregator aggregator{population_, false};
    std::uint64_t expected_connections = 0;
    campaign.run([&](const web::Domain& domain, scanner::DomainScan&& scan) {
        if (analysis::in_list(domain, analysis::ListId::cno)) {
            const bool quic_ok = scan.quic_ok();
            for (const auto& trace : scan.connections) {
                if (quic_ok && trace.outcome == qlog::ConnectionOutcome::ok) {
                    ++expected_connections;
                }
            }
        }
        aggregator.add(domain, scan);
    });
    std::uint64_t counted = 0;
    for (const auto& org : aggregator.orgs()) counted += org.connections;
    EXPECT_EQ(counted, expected_connections);
}

TEST_F(PipelineTest, QlogRoundTripPreservesAssessment) {
    scanner::ScanOptions options;
    scanner::Campaign campaign{population_, options};
    int checked = 0;
    for (const auto& domain : universe_.domains) {
        if (!domain.quic || population_.org_of(domain).spin_host_rate <= 0.3) continue;
        const auto scan = campaign.scan_domain(domain);
        for (const auto& trace : scan.connections) {
            if (trace.outcome != qlog::ConnectionOutcome::ok) continue;
            const auto direct = core::assess_connection(trace);
            const auto parsed = qlog::parse_jsonl(qlog::to_jsonl(trace));
            ASSERT_TRUE(parsed.has_value());
            const auto through_disk = core::assess_connection(*parsed);
            EXPECT_EQ(direct.behavior, through_disk.behavior);
            EXPECT_EQ(direct.spin_received.samples_ms, through_disk.spin_received.samples_ms);
            EXPECT_DOUBLE_EQ(direct.quic_mean_ms, through_disk.quic_mean_ms);
            ++checked;
        }
        if (checked >= 10) break;
    }
    EXPECT_GE(checked, 1);
}

TEST_F(PipelineTest, SpinningConnectionsProduceUsableAccuracyData) {
    scanner::ScanOptions options;
    options.week = 57;
    scanner::Campaign campaign{population_, options};
    analysis::AccuracyAggregator accuracy;
    for (const auto& domain : universe_.domains) {
        if (!domain.quic || population_.org_of(domain).spin_host_rate <= 0.0) continue;
        const auto verdict = analysis::assess_domain(campaign.scan_domain(domain));
        for (const auto& assessment : verdict.ok) accuracy.add(assessment);
    }
    const auto headline = accuracy.headline(analysis::AccuracySeries::spin_received);
    ASSERT_GT(headline.connections, 10u);
    // The dominant qualitative finding must hold at any scale: the spin bit
    // overestimates for the overwhelming majority of connections.
    EXPECT_GT(headline.overestimate_share, 0.85);
    EXPECT_LT(headline.underestimate_share, 0.15);
}

TEST_F(PipelineTest, LongitudinalWeeksVary) {
    analysis::LongitudinalAggregator longitudinal{4};
    std::vector<scanner::Campaign> campaigns;
    for (unsigned week = 0; week < 4; ++week) {
        scanner::ScanOptions options;
        options.week = static_cast<int>(week * 15);
        campaigns.emplace_back(population_, options);
    }
    for (const auto& domain : universe_.domains) {
        if (!domain.quic || population_.org_of(domain).spin_host_rate <= 0.0) continue;
        std::uint32_t connected = 0;
        std::uint32_t spun = 0;
        for (unsigned week = 0; week < 4; ++week) {
            const auto scan = campaigns[week].scan_domain(domain);
            if (scan.quic_ok()) connected |= 1U << week;
            if (analysis::assess_domain(scan).cls == analysis::DomainSpinClass::spinning) {
                spun |= 1U << week;
            }
        }
        longitudinal.add_domain(connected, spun);
    }
    EXPECT_GT(longitudinal.spun_any(), 10u);
    const auto histogram = longitudinal.weeks_spinning_histogram();
    // Spin activity is neither all-or-nothing: some domains miss weeks.
    EXPECT_GT(histogram.total(), 0u);
    std::uint64_t partial = 0;
    for (unsigned k = 1; k < 4; ++k) partial += histogram.count(k);
    EXPECT_GT(partial, 0u);
    EXPECT_GT(histogram.count(4), 0u);
}

TEST_F(PipelineTest, Ipv6SweepHasDistinctFootprint) {
    scanner::ScanOptions v4;
    v4.week = 57;
    scanner::ScanOptions v6 = v4;
    v6.ipv6 = true;
    analysis::AdoptionAggregator agg4{population_, false};
    analysis::AdoptionAggregator agg6{population_, true};
    scanner::Campaign campaign4{population_, v4};
    scanner::Campaign campaign6{population_, v6};
    campaign4.run([&](const web::Domain& d, scanner::DomainScan&& s) { agg4.add(d, s); });
    campaign6.run([&](const web::Domain& d, scanner::DomainScan&& s) { agg6.add(d, s); });
    const auto& czds4 = agg4.list(analysis::ListId::czds);
    const auto& czds6 = agg6.list(analysis::ListId::czds);
    // Fewer v6-resolved domains, but per-domain v6 hosts at the shared
    // hosters (§4.4's "drastically more IPs" relative to domain count).
    EXPECT_LT(czds6.domains_resolved, czds4.domains_resolved);
    ASSERT_GT(czds6.domains_quic, 0u);
    const double v6_ip_per_quic_domain =
        static_cast<double>(czds6.ips_quic.size()) / static_cast<double>(czds6.domains_quic);
    const double v4_ip_per_quic_domain =
        static_cast<double>(czds4.ips_quic.size()) / static_cast<double>(czds4.domains_quic);
    EXPECT_GT(v6_ip_per_quic_domain, v4_ip_per_quic_domain);
}

}  // namespace
}  // namespace spinscope
