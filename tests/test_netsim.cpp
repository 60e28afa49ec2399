// Unit tests for the discrete-event simulator and the link model.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bytes/bytes.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace spinscope::netsim {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Simulator, RunsEventsInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_after(Duration::millis(30), [&] { order.push_back(3); });
    sim.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
    sim.schedule_after(Duration::millis(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now().count_nanos(), Duration::millis(30).count_nanos());
    EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulator, SameTimeIsFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_after(Duration::millis(5), [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, PastEventsClampToNow) {
    Simulator sim;
    bool ran = false;
    sim.schedule_after(Duration::millis(10), [&] {
        sim.schedule_at(TimePoint::origin(), [&] {
            ran = true;
            EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(10));
        });
    });
    sim.run();
    EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
    Simulator sim;
    int count = 0;
    sim.schedule_after(Duration::millis(5), [&] { ++count; });
    sim.schedule_after(Duration::millis(15), [&] { ++count; });
    const bool drained = sim.run_until(TimePoint::origin() + Duration::millis(10));
    EXPECT_FALSE(drained);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(10));
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_TRUE(sim.run_until(TimePoint::origin() + Duration::seconds(1)));
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) sim.schedule_after(Duration::millis(1), recurse);
    };
    sim.schedule_after(Duration::millis(1), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
}

TEST(Simulator, RunStepsBounds) {
    Simulator sim;
    int count = 0;
    for (int i = 0; i < 10; ++i) sim.schedule_after(Duration::millis(i), [&] { ++count; });
    sim.run_steps(4);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(sim.pending(), 6u);
}

TEST(Timer, FiresOnceAtExpiry) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(7), [&] { ++fires; });
    EXPECT_TRUE(timer.armed());
    EXPECT_EQ(timer.expiry(), TimePoint::origin() + Duration::millis(7));
    sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, CancelSuppressesFiring) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(5), [&] { ++fires; });
    timer.cancel();
    EXPECT_FALSE(timer.armed());
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmInvalidatesPrevious) {
    Simulator sim;
    Timer timer{sim};
    std::vector<int> fired;
    timer.set_after(Duration::millis(5), [&] { fired.push_back(1); });
    timer.set_after(Duration::millis(9), [&] { fired.push_back(2); });
    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(Timer, DestructionWithPendingFiringIsSafe) {
    Simulator sim;
    int fires = 0;
    {
        Timer timer{sim};
        timer.set_after(Duration::millis(3), [&] { ++fires; });
    }  // timer destroyed with the event still queued
    sim.run();
    EXPECT_EQ(fires, 0);  // generation state kept alive, callback suppressed
}

TEST(Timer, RearmWithStaleFiringQueuedFiresOnlyNewExpiry) {
    // Arm at 5 ms, re-arm to 2 ms while the 5 ms firing is still queued: the
    // stale queue entry must become a no-op (generation bumped), the new one
    // must fire, and the timer must not "fire twice".
    Simulator sim;
    Timer timer{sim};
    std::vector<std::int64_t> fired_at;
    timer.set_after(Duration::millis(5), [&] { fired_at.push_back(sim.now().count_nanos()); });
    timer.set_after(Duration::millis(2), [&] { fired_at.push_back(sim.now().count_nanos()); });
    EXPECT_EQ(sim.pending(), 2u);  // the stale entry is still in the queue
    sim.run();
    ASSERT_EQ(fired_at.size(), 1u);
    EXPECT_EQ(fired_at[0], Duration::millis(2).count_nanos());
    EXPECT_EQ(sim.processed(), 2u);  // stale entry processed as a no-op
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmAfterPartialRunSuppressesStaleEntry) {
    // Run past nothing, leave the first firing queued, then re-arm *later*:
    // the earlier queued entry has a stale generation and must not fire.
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(4), [&] { ++fires; });
    sim.run_until(TimePoint::origin() + Duration::millis(1));  // firing still queued
    timer.set_after(Duration::millis(10), [&] { fires += 100; });
    sim.run();
    EXPECT_EQ(fires, 100);  // only the re-armed firing ran
}

TEST(Timer, CancelThenRearmStillFires) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(3), [&] { fires = 1; });
    timer.cancel();
    timer.set_after(Duration::millis(6), [&] { fires = 2; });
    sim.run();
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(timer.expiry(), TimePoint::never());
}

TEST(Timer, DestroyAfterPartialRunWithQueuedFiringIsSafe) {
    Simulator sim;
    int fires = 0;
    {
        Timer timer{sim};
        timer.set_after(Duration::millis(5), [&] { ++fires; });
        sim.run_until(TimePoint::origin() + Duration::millis(1));
        EXPECT_EQ(sim.pending(), 1u);
    }  // destroyed while its (now stale) firing is still queued
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Simulator, RunStepsSafetyValveStopsSelfRescheduling) {
    // A pathological event that always reschedules itself would hang run();
    // run_steps must bound it to exactly max_events callbacks.
    Simulator sim;
    std::uint64_t count = 0;
    std::function<void()> reschedule = [&] {
        ++count;
        sim.schedule_after(Duration::millis(1), reschedule);
    };
    sim.schedule_after(Duration::millis(1), reschedule);
    sim.run_steps(100);
    EXPECT_EQ(count, 100u);
    EXPECT_EQ(sim.pending(), 1u);  // the next self-rescheduled event remains
    EXPECT_EQ(sim.processed(), 100u);
}

TEST(Simulator, RunStepsZeroIsNoOp) {
    Simulator sim;
    int count = 0;
    sim.schedule_after(Duration::millis(1), [&] { ++count; });
    sim.run_steps(0);
    EXPECT_EQ(count, 0);
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, TracksQueueDepthHighWaterMark) {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_after(Duration::millis(i), [] {});
    EXPECT_EQ(sim.queue_depth_high_water(), 5u);
    sim.run();
    // Draining does not lower the high-water mark.
    EXPECT_EQ(sim.queue_depth_high_water(), 5u);
    EXPECT_EQ(sim.scheduled(), 5u);
}

TEST(Simulator, CountsProcessedEventsPerCategory) {
    Simulator sim;
    sim.schedule_after(Duration::millis(1), [] {}, "io");
    sim.schedule_after(Duration::millis(2), [] {}, "io");
    sim.schedule_after(Duration::millis(3), [] {}, "app");
    sim.schedule_after(Duration::millis(4), [] {});  // untagged
    sim.run();
    const auto& counts = sim.category_counts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_STREQ(counts[0].first, "io");
    EXPECT_EQ(counts[0].second, 2u);
    EXPECT_STREQ(counts[1].first, "app");
    EXPECT_EQ(counts[1].second, 1u);
}

TEST(Simulator, PublishMetricsExportsCountersAndHighWater) {
    Simulator sim;
    sim.schedule_after(Duration::millis(1), [] {}, "io");
    sim.schedule_after(Duration::millis(2), [] {});
    sim.run();

    telemetry::MetricsRegistry registry;
    sim.publish_metrics(registry);
    EXPECT_EQ(registry.counter("netsim.sim.events_scheduled").value(), 2u);
    EXPECT_EQ(registry.counter("netsim.sim.events_processed").value(), 2u);
    EXPECT_EQ(registry.counter("netsim.sim.events.io").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("netsim.sim.queue_depth_hwm").value(), 2.0);

    // Additive publish: a second simulator merges counters, max-merges hwm.
    Simulator other;
    for (int i = 0; i < 4; ++i) other.schedule_after(Duration::millis(i), [] {});
    other.run();
    other.publish_metrics(registry);
    EXPECT_EQ(registry.counter("netsim.sim.events_processed").value(), 6u);
    EXPECT_DOUBLE_EQ(registry.gauge("netsim.sim.queue_depth_hwm").value(), 4.0);
}

TEST(Simulator, SameInstantFifoHoldsAcrossRecycledSlots) {
    // Events run and free their slots while new ones are scheduled into
    // them, so slot order drifts from scheduling order; only the latter
    // may decide among events at one instant.
    Simulator sim;
    std::vector<std::string> order;
    const auto at = TimePoint::origin() + Duration::millis(1);
    const auto log = [&order](std::string name) {
        return [&order, name = std::move(name)] { order.push_back(name); };
    };
    sim.schedule_at(at, [&] {
        order.push_back("a");
        sim.schedule_at(at, log("a1"));  // takes a's freed slot
        sim.schedule_at(at, log("a2"));  // a fresh slot
    });
    sim.schedule_at(at, [&] {
        order.push_back("b");
        sim.schedule_at(at, log("b1"));  // takes b's freed slot, below a2's
        sim.schedule_at(at + Duration::millis(1), log("late"));
        sim.schedule_at(at, log("b2"));
    });
    sim.schedule_at(at, log("c"));
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a1", "a2", "b1", "b2", "late"}));

    // Many rounds of recycling: each instant keeps its scheduling order.
    std::vector<int> fired;
    int next = 0;
    for (int round = 0; round < 50; ++round) {
        const auto when = at + Duration::millis(10 + round / 5);
        for (int i = 0; i < 3; ++i) {
            sim.schedule_at(when, [&fired, id = next++] { fired.push_back(id); });
        }
        sim.run_steps(2);
    }
    sim.run();
    ASSERT_EQ(fired.size(), 150u);
    for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LT(fired[i - 1], fired[i]);
}

TEST(Simulator, DestructionReturnsEveryQueuedPooledBuffer) {
    bytes::BufferPool pool;
    {
        Simulator sim;
        LinkConfig config;
        config.base_delay = Duration::millis(5);
        Link link{sim, config, util::Rng{7}};
        int received = 0;
        link.set_receiver([&received](bytes::ConstByteSpan) { ++received; });
        for (int i = 0; i < 20; ++i) {
            bytes::Buffer datagram = pool.acquire(64);
            datagram.resize(64, static_cast<std::uint8_t>(i));
            link.send(std::move(datagram));
            // Direct events owning a pooled buffer too.
            sim.schedule_after(Duration::millis(100 + i), [buffer = pool.acquire(32)] {});
        }
        sim.run_steps(5);  // some deliveries ran, freeing slots; most still queued
        EXPECT_EQ(received, 5);
        EXPECT_GT(sim.pending(), 0u);
        EXPECT_EQ(pool.stats().outstanding, 35u);
    }
    EXPECT_EQ(pool.stats().outstanding, 0u);
    EXPECT_EQ(pool.stats().acquires, 40u);
}

TEST(Simulator, InstrumentationMatchesAHandComputedRun) {
    Simulator sim;
    const auto t = [](int ms) { return TimePoint::origin() + Duration::millis(ms); };
    const auto noop = [] {};
    sim.schedule_at(t(5), noop, "io");  // seq 0
    sim.schedule_at(
        t(1),
        [&] {  // seq 1: depth 3 after its pop, 6 after these three
            sim.schedule_after(Duration::millis(1), noop, "io");  // seq 4, t=2
            sim.schedule_after(Duration::millis(1), noop, "io");  // seq 5, t=2
            sim.schedule_after(Duration::millis(10), noop);       // seq 6, t=11
        },
        "app");
    sim.schedule_at(t(1), noop);        // seq 2, untagged
    sim.schedule_at(t(3), noop, "io");  // seq 3

    // Runs seq 1, 2, 4, 5, 3, 0; seq 6 (t=11) stays queued.
    EXPECT_FALSE(sim.run_until(t(6)));
    EXPECT_EQ(sim.scheduled(), 7u);
    EXPECT_EQ(sim.processed(), 6u);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.queue_depth_high_water(), 6u);
    const auto& counts = sim.category_counts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_STREQ(counts[0].first, "app");
    EXPECT_EQ(counts[0].second, 1u);
    EXPECT_STREQ(counts[1].first, "io");
    EXPECT_EQ(counts[1].second, 4u);

    telemetry::MetricsRegistry registry;
    sim.publish_metrics(registry);
    EXPECT_EQ(registry.counter("netsim.sim.events_scheduled").value(), 7u);
    EXPECT_EQ(registry.counter("netsim.sim.events_processed").value(), 6u);
    EXPECT_EQ(registry.counter("netsim.sim.events.app").value(), 1u);
    EXPECT_EQ(registry.counter("netsim.sim.events.io").value(), 4u);
    EXPECT_DOUBLE_EQ(registry.gauge("netsim.sim.queue_depth_hwm").value(), 6.0);
    EXPECT_EQ(registry.size(), 5u);  // untagged events get no category counter

    sim.run();
    EXPECT_EQ(sim.processed(), 7u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.now(), t(11));
    EXPECT_EQ(sim.queue_depth_high_water(), 6u);
}

TEST(Timer, TimerEventsAreCategorized) {
    Simulator sim;
    Timer timer{sim};
    timer.set_after(Duration::millis(1), [] {});
    sim.run();
    const auto& counts = sim.category_counts();
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_STREQ(counts[0].first, "timer");
    EXPECT_EQ(counts[0].second, 1u);
}

TEST(Timer, RearmFromInsideCallback) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    std::function<void()> cb = [&] {
        if (++fires < 3) timer.set_after(Duration::millis(1), cb);
    };
    timer.set_after(Duration::millis(1), cb);
    sim.run();
    EXPECT_EQ(fires, 3);
}

// ---------------------------------------------------------------------------

Datagram make_datagram(std::size_t size, std::uint8_t fill = 0xab) {
    return Datagram(size, fill);
}

TEST(Link, DeliversWithBaseDelay) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(12);
    Link link{sim, config, util::Rng{1}};
    TimePoint delivered_at = TimePoint::never();
    link.set_receiver([&](bytes::ConstByteSpan dg) {
        delivered_at = sim.now();
        EXPECT_EQ(dg.size(), 100u);
    });
    link.send(make_datagram(100));
    sim.run();
    EXPECT_EQ(delivered_at, TimePoint::origin() + Duration::millis(12));
    EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(Link, LossDropsDatagrams) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.loss_probability = 0.5;
    Link link{sim, config, util::Rng{2}};
    int received = 0;
    link.set_receiver([&](bytes::ConstByteSpan) { ++received; });
    constexpr int kSent = 4000;
    for (int i = 0; i < kSent; ++i) link.send(make_datagram(10));
    sim.run();
    EXPECT_EQ(link.stats().sent, static_cast<std::uint64_t>(kSent));
    EXPECT_EQ(link.stats().delivered + link.stats().dropped,
              static_cast<std::uint64_t>(kSent));
    EXPECT_NEAR(static_cast<double>(received) / kSent, 0.5, 0.03);
}

TEST(Link, FifoEnforcedUnderJitter) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(5);
    config.jitter_scale = Duration::millis(4);
    config.jitter_sigma = 1.0;
    Link link{sim, config, util::Rng{3}};
    std::vector<std::uint8_t> order;
    link.set_receiver([&](bytes::ConstByteSpan dg) { order.push_back(dg[0]); });
    for (std::uint8_t i = 0; i < 200; ++i) link.send(Datagram(4, i));
    sim.run();
    ASSERT_EQ(order.size(), 200u);
    for (std::uint8_t i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(Link, ReorderEventsCanOvertake) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(5);
    config.reorder_probability = 0.3;
    config.reorder_extra_min = Duration::millis(2);
    config.reorder_extra_max = Duration::millis(10);
    Link link{sim, config, util::Rng{4}};
    std::vector<std::uint8_t> order;
    link.set_receiver([&](bytes::ConstByteSpan dg) { order.push_back(dg[0]); });
    for (std::uint8_t i = 0; i < 100; ++i) {
        link.send(Datagram(4, i));
        // Space sends so an extra delay can actually cause overtaking.
        sim.run_until(sim.now() + Duration::millis(1));
    }
    sim.run();
    ASSERT_EQ(order.size(), 100u);
    bool out_of_order = false;
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i] < order[i - 1]) out_of_order = true;
    }
    EXPECT_TRUE(out_of_order);
    EXPECT_GT(link.stats().reordered, 0u);
}

TEST(Link, TapsSeeDeliveredDatagramsOnly) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.loss_probability = 0.5;
    Link link{sim, config, util::Rng{5}};
    int tapped = 0;
    int received = 0;
    link.add_tap([&](TimePoint, bytes::ConstByteSpan) { ++tapped; });
    link.set_receiver([&](bytes::ConstByteSpan) { ++received; });
    for (int i = 0; i < 1000; ++i) link.send(make_datagram(8));
    sim.run();
    EXPECT_EQ(tapped, received);
    EXPECT_LT(tapped, 1000);
}

TEST(Link, CountsDeliveredAndDroppedBytes) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.loss_probability = 0.5;
    Link link{sim, config, util::Rng{42}};
    link.set_receiver([](bytes::ConstByteSpan) {});
    for (int i = 0; i < 200; ++i) link.send(make_datagram(100));
    sim.run();
    const auto& stats = link.stats();
    EXPECT_EQ(stats.delivered_bytes, stats.delivered * 100);
    EXPECT_EQ(stats.dropped_bytes, stats.dropped * 100);
    EXPECT_EQ(stats.delivered_bytes + stats.dropped_bytes, 200u * 100u);

    telemetry::MetricsRegistry registry;
    link.publish_metrics(registry, "netsim.link");
    EXPECT_EQ(registry.counter("netsim.link.sent").value(), 200u);
    EXPECT_EQ(registry.counter("netsim.link.delivered").value(), stats.delivered);
    EXPECT_EQ(registry.counter("netsim.link.delivered_bytes").value(), stats.delivered_bytes);
    EXPECT_EQ(registry.counter("netsim.link.dropped_bytes").value(), stats.dropped_bytes);
}

TEST(Link, BandwidthSerializesBackToBack) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.bandwidth_bps = 8'000'000;  // 1 byte / us
    Link link{sim, config, util::Rng{6}};
    std::vector<TimePoint> arrivals;
    link.set_receiver([&](bytes::ConstByteSpan) { arrivals.push_back(sim.now()); });
    link.send(make_datagram(1000));  // 1 ms serialization
    link.send(make_datagram(1000));
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // Second datagram leaves a full serialization slot later.
    EXPECT_EQ((arrivals[1] - arrivals[0]).count_micros(), 1000);
}

TEST(Link, NoReceiverIsSafe) {
    Simulator sim;
    Link link{sim, LinkConfig{}, util::Rng{7}};
    link.send(make_datagram(10));
    sim.run();
    EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(Path, BaseRttIsSumOfDirections) {
    Simulator sim;
    util::Rng rng{8};
    LinkConfig forward;
    forward.base_delay = Duration::millis(7);
    LinkConfig back;
    back.base_delay = Duration::millis(9);
    Path path{sim, forward, back, rng};
    EXPECT_EQ(path.base_rtt(), Duration::millis(16));
}

}  // namespace
}  // namespace spinscope::netsim
