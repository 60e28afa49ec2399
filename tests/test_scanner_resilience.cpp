// Campaign resilience tests: hostile-universe sweeps finish, classify every
// attempt and stay within the per-domain attempt and simulated-time bounds,
// an attached empty fault plan leaves campaign results byte-identical, and
// bad knobs are rejected at construction.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "qlog/trace.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

web::PopulationConfig hostile_config(double transient_share, double transient_probability) {
    web::PopulationConfig cfg;
    cfg.scale = 200000.0;  // ~1k domains: a fast full sweep
    cfg.seed = 1;
    cfg.host_fault_rate = 1.0;  // every serving host is broken
    cfg.transient_fault_share = transient_share;
    cfg.transient_fault_probability = transient_probability;
    return cfg;
}

/// One attempt per hop, each cut at attempt_deadline: a scan never holds
/// more than kMaxRedirects + 1 attempts or that many deadlines of simulated
/// time, however hostile its targets.
void expect_bounded(const DomainScan& scan, const ScanOptions& options) {
    const int hops = kMaxRedirects + 1;
    EXPECT_LE(scan.attempts.size(), static_cast<std::size_t>(hops));
    EXPECT_LE(scan.sim_time, options.attempt_deadline * hops);
}

TEST(Resilience, HostileSweepCompletesAndClassifiesEveryAttempt) {
    // Persistent faults only: every attempt against a QUIC host hits its
    // host's failure mode. The sweep must still finish, classify every
    // attempt (including protocol_error for garbage payloads) and never
    // fall back to the graceful-degradation error path.
    const web::PopulationModel hostile{hostile_config(/*transient_share=*/0.0, 0.6)};
    Campaign campaign{hostile, {}};
    std::uint64_t faulted_attempts = 0;
    const CampaignStats stats =
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            expect_bounded(scan, campaign.options());
            ASSERT_EQ(scan.attempts.size(), scan.connections.size());
            for (std::size_t i = 0; i < scan.attempts.size(); ++i) {
                EXPECT_EQ(scan.attempts[i].outcome, scan.connections[i].outcome);
                if (scan.attempts[i].server_fault != faults::ServerFaultMode::none) {
                    ++faulted_attempts;
                }
            }
        });

    EXPECT_EQ(stats.domains_scanned, hostile.domain_count());
    EXPECT_EQ(stats.domains_errored, 0u);
    EXPECT_EQ(stats.domains_quic_ok, 0u) << "no host is healthy in this universe";

    // Every attempt got exactly one outcome...
    std::uint64_t outcome_total = 0;
    for (const auto count : stats.outcomes) outcome_total += count;
    EXPECT_EQ(outcome_total, stats.connections);
    // ...and exactly one server-fault class (index 0 = healthy).
    std::uint64_t fault_total = 0;
    for (std::size_t mode = 1; mode < stats.server_faults.size(); ++mode) {
        fault_total += stats.server_faults[mode];
    }
    EXPECT_EQ(fault_total, faulted_attempts);
    EXPECT_EQ(fault_total + stats.server_faults[0], stats.connections);
    EXPECT_GT(fault_total, 0u);

    // Garbage payloads surfaced as protocol errors, not crashes or hangs.
    EXPECT_GT(stats.outcome(qlog::ConnectionOutcome::protocol_error), 0u);
    const std::string rendered = stats.render();
    EXPECT_NE(rendered.find("domains errored"), std::string::npos);
    EXPECT_NE(rendered.find("fault"), std::string::npos);
}

TEST(Resilience, EmptyFaultPlanIsByteIdenticalToNoPlan) {
    // An engaged-but-empty FaultPlan attaches an idle injector to every
    // link; the injector draws no randomness, so every trace of the sweep
    // must serialize identically to a plan-free sweep with the same seed.
    const web::PopulationModel tiny{{200000.0, 1}};

    const auto sweep_jsonl = [&tiny](bool attach_empty_plan) {
        ScanOptions options;
        if (attach_empty_plan) options.fault_plan = faults::FaultPlan{};
        Campaign campaign{tiny, options};
        std::string jsonl;
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            for (const auto& trace : scan.connections) jsonl += qlog::to_jsonl(trace);
        });
        return jsonl;
    };

    const std::string without = sweep_jsonl(false);
    const std::string with = sweep_jsonl(true);
    ASSERT_FALSE(without.empty());
    EXPECT_EQ(without, with);
}

TEST(Resilience, ActiveFaultPlanDegradesButNeverCrashesTheSweep) {
    const web::PopulationModel tiny{{2000000.0, 1}};
    ScanOptions options;
    faults::FaultPlan plan;
    plan.burst_loss.enabled = true;
    plan.burst_loss.p_good_to_bad = 0.02;
    plan.duplicate_probability = 0.05;
    options.fault_plan = plan;
    Campaign campaign{tiny, options};
    const CampaignStats stats = campaign.run(
        [&](const web::Domain&, DomainScan&& scan) { expect_bounded(scan, campaign.options()); });
    EXPECT_EQ(stats.domains_scanned, tiny.domain_count());
    EXPECT_EQ(stats.domains_errored, 0u);
    std::uint64_t outcome_total = 0;
    for (const auto count : stats.outcomes) outcome_total += count;
    EXPECT_EQ(outcome_total, stats.connections);
}

TEST(Resilience, CampaignConstructorRejectsInvalidKnobs) {
    const web::PopulationModel tiny{{2000000.0, 1}};

    ScanOptions zero_attempts;
    zero_attempts.journal_retry.max_attempts = 0;
    EXPECT_THROW((Campaign{tiny, zero_attempts}), std::invalid_argument);

    ScanOptions bad_plan;
    bad_plan.fault_plan = faults::FaultPlan{};
    bad_plan.fault_plan->duplicate_probability = std::nan("");
    EXPECT_THROW((Campaign{tiny, bad_plan}), std::invalid_argument);

    ScanOptions negative_deadline;
    negative_deadline.attempt_deadline = util::Duration::zero();
    EXPECT_THROW((Campaign{tiny, negative_deadline}), std::invalid_argument);
}

}  // namespace
}  // namespace spinscope::scanner
