// Unit and integration tests for the HTTP/3-mini protocol and the campaign
// scanner.

#include <gtest/gtest.h>

#include "scanner/campaign.hpp"
#include "util/format.hpp"
#include "scanner/http3_mini.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

// --- HTTP/3-mini -------------------------------------------------------------

TEST(Http3Mini, RequestRoundTrip) {
    const auto request = build_request("www.example.org");
    const auto host = parse_request(request);
    ASSERT_TRUE(host.has_value());
    EXPECT_EQ(*host, "www.example.org");
}

TEST(Http3Mini, RequestCarriesResearchHint) {
    // The paper's ethics appendix: every request embeds a research hint.
    const auto request = build_request("www.example.org");
    const std::string text{request.begin(), request.end()};
    EXPECT_NE(text.find("research"), std::string::npos);
}

TEST(Http3Mini, RequestRejectsGarbage) {
    EXPECT_FALSE(parse_request({}).has_value());
    const std::string junk = "POST /";
    EXPECT_FALSE(parse_request(spinscope::util::as_bytes(junk)).has_value());
}

TEST(Http3Mini, OkResponseRoundTrip) {
    auto response = build_response_headers(200, "", "LiteSpeed");
    const auto body = build_body(500);
    response.insert(response.end(), body.begin(), body.end());
    const auto info = parse_response(response);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->status, 200);
    EXPECT_EQ(info->server_name, "LiteSpeed");
    EXPECT_TRUE(info->location.empty());
    EXPECT_EQ(info->body_bytes, 500u);
}

TEST(Http3Mini, RedirectResponseRoundTrip) {
    const auto response = build_response_headers(301, "example.org", "nginx-quic");
    const auto info = parse_response(response);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->status, 301);
    EXPECT_EQ(info->location, "example.org");
    EXPECT_EQ(info->body_bytes, 0u);
}

TEST(Http3Mini, ResponseRejectsGarbage) {
    EXPECT_FALSE(parse_response({}).has_value());
    const std::string junk = "HTTP/1.1 200 OK";
    EXPECT_FALSE(parse_response(spinscope::util::as_bytes(junk)).has_value());
}

TEST(Http3Mini, BodyIsDeterministicFiller) {
    const auto a = build_body(1000);
    const auto b = build_body(1000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 1000u);
}

TEST(Http3Mini, BodyMatchesThePerByteFillerDefinition) {
    constexpr std::string_view filler = "<p>spinscope synthetic page content</p>";
    ASSERT_EQ(filler.size(), 39u);
    for (const std::size_t size : {0u, 1u, 38u, 39u, 40u, 78u, 4096u, 300000u}) {
        std::vector<std::uint8_t> expected(size);
        for (std::size_t i = 0; i < size; ++i) {
            expected[i] = static_cast<std::uint8_t>(filler[i % filler.size()]);
        }
        EXPECT_EQ(build_body(size), expected) << "size " << size;
    }
}

TEST(Http3Mini, SettingsDifferPerRole) {
    EXPECT_NE(build_settings(true), build_settings(false));
}

// --- Campaign ----------------------------------------------------------------

class CampaignTest : public ::testing::Test {
protected:
    CampaignTest() : population_{{20000.0, 20230520}} {}

    const web::Domain* find_domain(bool quic, bool resolves = true,
                                   bool want_spin_org = false) {
        for (const auto& d : population_.domains()) {
            if (d.resolves != resolves) continue;
            if (resolves && d.quic != quic) continue;
            if (want_spin_org && population_.org_of(d).spin_host_rate <= 0.3) continue;
            return &d;
        }
        return nullptr;
    }

    web::Population population_;
};

TEST_F(CampaignTest, UnresolvedDomainIsNotScanned) {
    const auto* domain = find_domain(false, false);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    EXPECT_FALSE(scan.resolved);
    EXPECT_TRUE(scan.connections.empty());
    EXPECT_FALSE(scan.quic_ok());
}

TEST_F(CampaignTest, NonQuicDomainTimesOut) {
    const auto* domain = find_domain(false);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    EXPECT_TRUE(scan.resolved);
    ASSERT_EQ(scan.connections.size(), 1u);
    EXPECT_EQ(scan.connections[0].outcome, qlog::ConnectionOutcome::handshake_timeout);
    EXPECT_FALSE(scan.quic_ok());
    // The client sent Initials (PTO retries) into the void.
    EXPECT_GE(scan.connections[0].sent.size(), 2u);
    EXPECT_TRUE(scan.connections[0].received.empty());
}

TEST_F(CampaignTest, QuicDomainCompletes) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    EXPECT_TRUE(scan.quic_ok());
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 200);
    EXPECT_EQ(scan.final_response->server_name, population_.stack_of(*domain).name);
    // The final trace carries a usable stack baseline.
    EXPECT_FALSE(scan.connections.back().metrics.rtt_samples_ms.empty());
}

TEST_F(CampaignTest, HostsArePrefixedWithWww) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    ASSERT_FALSE(scan.connections.empty());
    EXPECT_EQ(scan.connections.front().host.rfind("www.", 0), 0u);
}

TEST_F(CampaignTest, RedirectsFollowedOnce) {
    const web::Domain* redirecting = nullptr;
    for (const auto& d : population_.domains()) {
        if (d.quic && d.redirects) {
            redirecting = &d;
            break;
        }
    }
    ASSERT_NE(redirecting, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*redirecting);
    ASSERT_EQ(scan.connections.size(), 2u);
    EXPECT_TRUE(scan.quic_ok());
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 200);
    // Second connection targets the redirect location (no www prefix).
    EXPECT_NE(scan.connections[0].host, scan.connections[1].host);
}

TEST_F(CampaignTest, Ipv6ScanSkipsV4OnlyDomains) {
    const web::Domain* v4_only = nullptr;
    for (const auto& d : population_.domains()) {
        if (d.resolves && !d.has_ipv6) {
            v4_only = &d;
            break;
        }
    }
    ASSERT_NE(v4_only, nullptr);
    ScanOptions options;
    options.ipv6 = true;
    Campaign campaign{population_, options};
    const auto scan = campaign.scan_domain(*v4_only);
    EXPECT_FALSE(scan.resolved);
}

TEST_F(CampaignTest, ScanIsDeterministic) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto a = campaign.scan_domain(*domain);
    const auto b = campaign.scan_domain(*domain);
    ASSERT_EQ(a.connections.size(), b.connections.size());
    for (std::size_t i = 0; i < a.connections.size(); ++i) {
        ASSERT_EQ(a.connections[i].received.size(), b.connections[i].received.size());
        for (std::size_t p = 0; p < a.connections[i].received.size(); ++p) {
            ASSERT_EQ(a.connections[i].received[p].time.count_nanos(),
                      b.connections[i].received[p].time.count_nanos());
            ASSERT_EQ(a.connections[i].received[p].spin, b.connections[i].received[p].spin);
        }
    }
}

TEST_F(CampaignTest, DifferentWeeksResampleBehaviour) {
    const auto* domain = find_domain(true, true, true);
    ASSERT_NE(domain, nullptr);
    ScanOptions week0;
    week0.week = 0;
    ScanOptions week9;
    week9.week = 9;
    const auto a = Campaign{population_, week0}.scan_domain(*domain);
    const auto b = Campaign{population_, week9}.scan_domain(*domain);
    EXPECT_TRUE(a.quic_ok());
    EXPECT_TRUE(b.quic_ok());
    // Packet timings differ across weeks (new RNG stream).
    ASSERT_FALSE(a.connections[0].received.empty());
    ASSERT_FALSE(b.connections[0].received.empty());
    EXPECT_NE(a.connections[0].received.back().time.count_nanos(),
              b.connections[0].received.back().time.count_nanos());
}

TEST_F(CampaignTest, StackRttBaselineNearConfiguredPathRtt) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    ASSERT_TRUE(scan.quic_ok());
    const auto& metrics = scan.connections.back().metrics;
    ASSERT_GT(metrics.min_rtt_ms, 0.0);
    EXPECT_NEAR(metrics.min_rtt_ms, domain->rtt_ms(), domain->rtt_ms() * 0.4 + 3.0);
}

TEST_F(CampaignTest, RunVisitsEveryDomain) {
    // A tiny population keeps the full sweep fast.
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    std::size_t visited = 0;
    campaign.run([&](const web::Domain&, DomainScan&&) { ++visited; });
    EXPECT_EQ(visited, tiny.domains().size());
}

TEST_F(CampaignTest, DeadlineWithPendingEventsIsAttemptTimeout) {
    // A deadline far below the handshake timeout cuts the simulation short
    // while timers are still queued: the attempt must be reported as
    // attempt_timeout, not conflated with a protocol-level abort.
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    ScanOptions options;
    options.attempt_deadline = util::Duration::micros(50);  // < one-way delay
    Campaign campaign{population_, options};
    const auto scan = campaign.scan_domain(*domain);
    ASSERT_EQ(scan.connections.size(), 1u);
    EXPECT_EQ(scan.connections[0].outcome, qlog::ConnectionOutcome::attempt_timeout);
    EXPECT_FALSE(scan.quic_ok());
}

TEST_F(CampaignTest, RunReturnsConsistentStats) {
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    std::uint64_t quic_ok_seen = 0;
    const CampaignStats stats =
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            if (scan.quic_ok()) ++quic_ok_seen;
        });
    EXPECT_EQ(stats.domains_scanned, tiny.domains().size());
    EXPECT_GE(stats.domains_scanned, stats.domains_resolved);
    EXPECT_GE(stats.domains_resolved, stats.domains_quic_ok);
    EXPECT_EQ(stats.domains_quic_ok, quic_ok_seen);
    // Every connection has exactly one outcome.
    std::uint64_t outcome_total = 0;
    for (const auto count : stats.outcomes) outcome_total += count;
    EXPECT_EQ(outcome_total, stats.connections);
    EXPECT_EQ(stats.outcome(qlog::ConnectionOutcome::ok) > 0, stats.domains_quic_ok > 0);
    EXPECT_GE(stats.quic_ok_rate(), 0.0);
    EXPECT_LE(stats.quic_ok_rate(), 1.0);
    EXPECT_GE(stats.wall_seconds, 0.0);
    // The snapshot renders (labels + outcome breakdown).
    const std::string rendered = stats.render();
    EXPECT_NE(rendered.find("domains scanned"), std::string::npos);
    EXPECT_NE(rendered.find("outcome ok"), std::string::npos);
}

TEST_F(CampaignTest, ProgressCallbackFiresEveryN) {
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    std::vector<std::uint64_t> checkpoints;
    campaign.set_progress(2, [&](const CampaignStats& stats) {
        checkpoints.push_back(stats.domains_scanned);
    });
    campaign.run([](const web::Domain&, DomainScan&&) {});
    ASSERT_EQ(checkpoints.size(), tiny.domains().size() / 2);
    for (std::size_t i = 0; i < checkpoints.size(); ++i) {
        EXPECT_EQ(checkpoints[i], (i + 1) * 2);
    }
}

TEST_F(CampaignTest, MetricsRegistrySpansAllLayers) {
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    const auto stats = campaign.run([](const web::Domain&, DomainScan&&) {});

    // The sidecar's acceptance bar: >= 10 distinct metrics spanning netsim,
    // quic and scanner.
    EXPECT_GE(registry.size(), 10u);
    std::size_t netsim = 0;
    std::size_t quic = 0;
    std::size_t scanner = 0;
    const auto tally = [&](const std::string& name) {
        if (name.rfind("netsim.", 0) == 0) ++netsim;
        if (name.rfind("quic.", 0) == 0) ++quic;
        if (name.rfind("scanner.", 0) == 0) ++scanner;
    };
    for (const auto& entry : registry.counters()) tally(entry.first);
    for (const auto& entry : registry.gauges()) tally(entry.first);
    for (const auto& entry : registry.histograms()) tally(entry.first);
    EXPECT_GT(netsim, 0u);
    EXPECT_GT(quic, 0u);
    EXPECT_GT(scanner, 0u);

    // Cross-layer consistency: scanner counters match the returned stats,
    // and every attempt produced exactly one quic.conn attempt record.
    EXPECT_EQ(registry.counter("scanner.domains_scanned").value(), stats.domains_scanned);
    EXPECT_EQ(registry.counter("scanner.connections").value(), stats.connections);
    EXPECT_EQ(registry.counter("quic.conn.attempts").value(), stats.connections);
    EXPECT_EQ(registry.counter("scanner.outcome.ok").value(),
              stats.outcome(qlog::ConnectionOutcome::ok));
    // Phase histograms recorded one attempt-phase sample per first attempt.
    const auto* attempt_hist = registry.find_histogram("scanner.phase.attempt_ms");
    ASSERT_NE(attempt_hist, nullptr);
    EXPECT_EQ(attempt_hist->count(), stats.domains_resolved);
    // Simulated time was accounted separately from wall clock.
    const auto* sim_hist = registry.find_histogram("scanner.attempt_sim_ms");
    ASSERT_NE(sim_hist, nullptr);
    EXPECT_EQ(sim_hist->count(), stats.connections);
    // The simulator layer reported event totals.
    EXPECT_GT(registry.counter("netsim.sim.events_processed").value(), 0u);
    EXPECT_GT(registry.counter("netsim.sim.events.link.delivery").value(), 0u);
}

}  // namespace
}  // namespace spinscope::scanner
