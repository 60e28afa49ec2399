// Fault-injection unit tests: Gilbert–Elliott burst-loss statistics,
// blackhole windows, delay spikes, duplicate delivery, the zero-draw
// guarantee of an empty plan, retry-policy determinism, and the validation
// rules for fault/link/scan knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "faults/faults.hpp"
#include "faults/retry_policy.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace spinscope::faults {
namespace {

using netsim::Datagram;
using util::Duration;
using util::Rng;
using util::TimePoint;

TEST(GilbertElliott, StationaryLossAndBurstLengthMatchTheory) {
    FaultPlan plan;
    plan.burst_loss.enabled = true;
    plan.burst_loss.p_good_to_bad = 0.01;
    plan.burst_loss.p_bad_to_good = 0.25;
    plan.burst_loss.loss_good = 0.0;
    plan.burst_loss.loss_bad = 1.0;
    FaultInjector injector{plan, Rng{0x6e11}};

    const int n = 200'000;
    for (int i = 0; i < n; ++i) {
        (void)injector.on_send(TimePoint::origin());
    }
    const auto& stats = injector.stats();

    // Stationary loss = pi_bad * loss_bad, pi_bad = p_gb / (p_gb + p_bg).
    const double pi_bad = 0.01 / (0.01 + 0.25);
    const double loss = static_cast<double>(stats.burst_dropped) / n;
    EXPECT_NEAR(loss, pi_bad, 0.20 * pi_bad) << "stationary loss off by > 20 %";

    // With loss_bad = 1 every bad-state datagram drops, so drops per burst
    // entry estimate the mean sojourn 1 / p_bad_to_good = 4.
    ASSERT_GT(stats.burst_entries, 100u);
    const double mean_burst =
        static_cast<double>(stats.burst_dropped) / static_cast<double>(stats.burst_entries);
    EXPECT_NEAR(mean_burst, 4.0, 0.8);
}

TEST(GilbertElliott, FixedSeedIsDeterministic) {
    FaultPlan plan;
    plan.burst_loss.enabled = true;
    plan.burst_loss.p_good_to_bad = 0.05;
    FaultInjector a{plan, Rng{7}};
    FaultInjector b{plan, Rng{7}};
    for (int i = 0; i < 5'000; ++i) {
        const auto va = a.on_send(TimePoint::origin());
        const auto vb = b.on_send(TimePoint::origin());
        ASSERT_EQ(va.drop, vb.drop);
    }
    EXPECT_EQ(a.stats().burst_dropped, b.stats().burst_dropped);
    EXPECT_EQ(a.stats().burst_entries, b.stats().burst_entries);
}

TEST(Faults, BlackholeWindowDropsExactlyInside) {
    FaultPlan plan;
    plan.blackholes.push_back({TimePoint::origin() + Duration::millis(10),
                               TimePoint::origin() + Duration::millis(20)});
    FaultInjector injector{plan, Rng{1}};

    EXPECT_FALSE(injector.on_send(TimePoint::origin() + Duration::millis(9)).drop);
    const auto at_start = injector.on_send(TimePoint::origin() + Duration::millis(10));
    EXPECT_TRUE(at_start.drop);
    EXPECT_TRUE(at_start.blackholed);
    EXPECT_TRUE(injector.on_send(TimePoint::origin() + Duration::millis(19)).drop);
    // End is exclusive.
    EXPECT_FALSE(injector.on_send(TimePoint::origin() + Duration::millis(20)).drop);
    EXPECT_EQ(injector.stats().blackhole_dropped, 2u);
    EXPECT_EQ(injector.stats().burst_dropped, 0u);
}

TEST(Faults, DelaySpikesFireOnceEachInTimeOrder) {
    FaultPlan plan;
    // Declared out of order on purpose; the injector sorts.
    plan.delay_spikes.push_back({TimePoint::origin() + Duration::millis(30), Duration::millis(7)});
    plan.delay_spikes.push_back({TimePoint::origin() + Duration::millis(10), Duration::millis(3)});
    FaultInjector injector{plan, Rng{1}};

    EXPECT_TRUE(injector.on_send(TimePoint::origin() + Duration::millis(5)).extra_delay.is_zero());
    // First datagram at/after the first spike absorbs it; the next does not.
    EXPECT_EQ(injector.on_send(TimePoint::origin() + Duration::millis(12)).extra_delay,
              Duration::millis(3));
    EXPECT_TRUE(
        injector.on_send(TimePoint::origin() + Duration::millis(13)).extra_delay.is_zero());
    EXPECT_EQ(injector.on_send(TimePoint::origin() + Duration::millis(31)).extra_delay,
              Duration::millis(7));
    EXPECT_EQ(injector.stats().delay_spiked, 2u);
}

TEST(Faults, DuplicateProbabilityOneDuplicatesEverything) {
    FaultPlan plan;
    plan.duplicate_probability = 1.0;
    FaultInjector injector{plan, Rng{1}};
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(injector.on_send(TimePoint::origin()).duplicate);
    }
    EXPECT_EQ(injector.stats().duplicated, 10u);
}

TEST(Faults, PlanValidationRejectsNanAndInvertedWindows) {
    FaultPlan nan_plan;
    nan_plan.burst_loss.loss_bad = std::nan("");
    EXPECT_THROW(nan_plan.validate(), std::invalid_argument);

    FaultPlan clamped;
    clamped.duplicate_probability = 1.5;
    clamped.validate();
    EXPECT_EQ(clamped.duplicate_probability, 1.0);

    FaultPlan inverted;
    inverted.blackholes.push_back({TimePoint::origin() + Duration::millis(5),
                                   TimePoint::origin() + Duration::millis(1)});
    EXPECT_THROW(inverted.validate(), std::invalid_argument);

    FaultPlan negative_spike;
    negative_spike.delay_spikes.push_back({TimePoint::origin(), Duration::millis(-1)});
    EXPECT_THROW(negative_spike.validate(), std::invalid_argument);
}

// --- link integration -------------------------------------------------------

netsim::LinkConfig jittery_link() {
    netsim::LinkConfig cfg;
    cfg.base_delay = Duration::millis(10);
    cfg.jitter_scale = Duration::millis(2);
    cfg.loss_probability = 0.05;
    cfg.reorder_probability = 0.02;
    return cfg;
}

std::vector<std::int64_t> arrival_times(bool attach_empty_plan) {
    netsim::Simulator sim;
    netsim::Link link{sim, jittery_link(), Rng{0x11aa}};
    if (attach_empty_plan) link.attach_faults(FaultPlan{}, Rng{0x77});
    std::vector<std::int64_t> arrivals;
    link.set_receiver([&](spinscope::bytes::ConstByteSpan) {
        arrivals.push_back((sim.now() - TimePoint::origin()).count_nanos());
    });
    for (int i = 0; i < 500; ++i) {
        sim.schedule_at(TimePoint::origin() + Duration::micros(100 * i),
                        [&link] { link.send(Datagram(800, 0x5a)); });
    }
    sim.run();
    return arrivals;
}

TEST(Faults, EmptyPlanAttachedIsByteIdenticalToNoPlan) {
    // The injector draws no randomness for an empty plan, so the link's own
    // loss/jitter/reorder draws — and thus the delivery schedule — are
    // identical whether or not the plan is attached.
    EXPECT_EQ(arrival_times(false), arrival_times(true));
}

TEST(Faults, LinkCountsFaultDropsAndDuplicates) {
    netsim::Simulator sim;
    netsim::LinkConfig cfg;
    cfg.base_delay = Duration::millis(1);
    netsim::Link link{sim, cfg, Rng{3}};
    FaultPlan plan;
    plan.duplicate_probability = 1.0;
    link.attach_faults(plan, Rng{4});
    std::uint64_t delivered = 0;
    link.set_receiver([&](spinscope::bytes::ConstByteSpan) { ++delivered; });
    for (int i = 0; i < 20; ++i) link.send(Datagram(100, 1));
    sim.run();
    EXPECT_EQ(delivered, 40u);  // every datagram delivered twice
    EXPECT_EQ(link.stats().fault_duplicated, 20u);
    EXPECT_EQ(link.stats().delivered, 40u);

    telemetry::MetricsRegistry registry;
    link.publish_metrics(registry, netsim::LinkDirection::forward);
    EXPECT_NE(registry.find_counter("netsim.link.forward.fault.duplicated"), nullptr);
}

TEST(Faults, LinkBlackholeIsTotalOutage) {
    netsim::Simulator sim;
    netsim::LinkConfig cfg;
    cfg.base_delay = Duration::millis(1);
    netsim::Link link{sim, cfg, Rng{3}};
    FaultPlan plan;
    plan.blackholes.push_back({TimePoint::origin() + Duration::millis(5),
                               TimePoint::origin() + Duration::millis(15)});
    link.attach_faults(plan, Rng{4});
    std::uint64_t delivered = 0;
    link.set_receiver([&](spinscope::bytes::ConstByteSpan) { ++delivered; });
    for (int i = 0; i < 20; ++i) {
        sim.schedule_at(TimePoint::origin() + Duration::millis(i),
                        [&link] { link.send(Datagram(100, 1)); });
    }
    sim.run();
    EXPECT_EQ(link.stats().fault_blackhole_dropped, 10u);  // t = 5..14
    EXPECT_EQ(delivered, 10u);
}

// --- LinkConfig validation --------------------------------------------------

TEST(LinkValidation, NanProbabilityThrowsOutOfRangeClamps) {
    netsim::LinkConfig nan_cfg;
    nan_cfg.loss_probability = std::nan("");
    EXPECT_THROW(netsim::validate_link_config(nan_cfg), std::invalid_argument);

    netsim::LinkConfig clamp_cfg;
    clamp_cfg.loss_probability = 2.5;
    clamp_cfg.reorder_probability = -0.5;
    netsim::validate_link_config(clamp_cfg);
    EXPECT_EQ(clamp_cfg.loss_probability, 1.0);
    EXPECT_EQ(clamp_cfg.reorder_probability, 0.0);
}

TEST(LinkValidation, InvertedReorderRangeThrowsFromLinkConstructor) {
    netsim::LinkConfig cfg;
    cfg.reorder_extra_min = Duration::millis(5);
    cfg.reorder_extra_max = Duration::millis(1);
    netsim::Simulator sim;
    EXPECT_THROW((netsim::Link{sim, cfg, Rng{1}}), std::invalid_argument);
}

// --- retry policy -----------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsAndCapsDeterministically) {
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff = Duration::millis(200);
    policy.multiplier = 2.0;
    policy.max_backoff = Duration::seconds(1);
    policy.full_jitter = false;

    Rng rng{1};  // unused without jitter
    EXPECT_EQ(policy.backoff_delay(1, rng), Duration::millis(200));
    EXPECT_EQ(policy.backoff_delay(2, rng), Duration::millis(400));
    EXPECT_EQ(policy.backoff_delay(3, rng), Duration::millis(800));
    EXPECT_EQ(policy.backoff_delay(4, rng), Duration::seconds(1));   // capped
    EXPECT_EQ(policy.backoff_delay(40, rng), Duration::seconds(1));  // no overflow
}

TEST(RetryPolicy, FullJitterStaysInRangeAndIsSeedDeterministic) {
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.full_jitter = true;
    Rng a{42};
    Rng b{42};
    for (int k = 1; k <= 20; ++k) {
        const Duration da = policy.backoff_delay(k, a);
        const Duration db = policy.backoff_delay(k, b);
        EXPECT_EQ(da, db) << "same seed must give the same backoff";
        EXPECT_FALSE(da.is_negative());
        EXPECT_LE(da.as_ms(), policy.max_backoff.as_ms());
    }
}

TEST(RetryPolicy, ShouldRetrySemanticsAndValidation) {
    RetryPolicy bad;
    bad.max_attempts = 0;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad.max_attempts = 2;
    bad.multiplier = 0.5;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad.multiplier = std::nan("");
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace spinscope::faults
