// Unit tests for the discrete-event simulator and the link model.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bytes/bytes.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/alloc_interpose.hpp"  // this binary's one interposing TU
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"

namespace spinscope::netsim {
namespace {

using telemetry::CounterId;
using telemetry::GaugeId;
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

/// Milliseconds since the origin, for timer firing logs.
std::int64_t at_ms(const Simulator& sim) {
    return (sim.now() - TimePoint::origin()).count_millis();
}

TEST(Timer, FiresOnceAtExpiry) {
    Simulator sim;
    int fires = 0;
    Timer timer{sim, [&] { ++fires; }};
    timer.set_after(Duration::millis(7));
    EXPECT_TRUE(timer.armed());
    EXPECT_EQ(timer.expiry(), TimePoint::origin() + Duration::millis(7));
    sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, CancelSuppressesFiring) {
    Simulator sim;
    int fires = 0;
    Timer timer{sim, [&] { ++fires; }};
    timer.set_after(Duration::millis(5));
    timer.cancel();
    EXPECT_FALSE(timer.armed());
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmInvalidatesPrevious) {
    Simulator sim;
    std::vector<std::int64_t> fired_ms;
    Timer timer{sim, [&] { fired_ms.push_back(at_ms(sim)); }};
    timer.set_after(Duration::millis(5));
    timer.set_after(Duration::millis(9));
    sim.run();
    EXPECT_EQ(fired_ms, (std::vector<std::int64_t>{9}));
}

TEST(Timer, DestructionWithPendingFiringIsSafe) {
    Simulator sim;
    int fires = 0;
    {
        Timer timer{sim, [&] { ++fires; }};
        timer.set_after(Duration::millis(3));
    }  // timer destroyed with the event still queued
    sim.run();
    EXPECT_EQ(fires, 0);  // the queued key finds its timer cancelled
    EXPECT_EQ(sim.processed(), 1u);
}

TEST(Timer, RearmWithStaleFiringQueuedFiresOnlyNewExpiry) {
    // Arm at 5 ms, re-arm to 2 ms while the 5 ms key is still queued: an
    // earlier arm queues its own key, the 5 ms one must become a no-op, and
    // the timer must not "fire twice".
    Simulator sim;
    std::vector<std::int64_t> fired_at;
    Timer timer{sim, [&] { fired_at.push_back(sim.now().count_nanos()); }};
    timer.set_after(Duration::millis(5));
    timer.set_after(Duration::millis(2));
    EXPECT_EQ(sim.pending(), 2u);  // the superseded key is still in the queue
    sim.run();
    ASSERT_EQ(fired_at.size(), 1u);
    EXPECT_EQ(fired_at[0], Duration::millis(2).count_nanos());
    EXPECT_EQ(sim.processed(), 2u);  // superseded key processed as a no-op
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmAfterPartialRunSuppressesStaleEntry) {
    // Run past nothing, leave the first key queued, then re-arm *later*: the
    // queued key must not fire at 4 ms but move to the new expiry.
    Simulator sim;
    std::vector<std::int64_t> fired_ms;
    Timer timer{sim, [&] { fired_ms.push_back(at_ms(sim)); }};
    timer.set_after(Duration::millis(4));
    sim.run_until(TimePoint::origin() + Duration::millis(1));  // firing still queued
    timer.set_after(Duration::millis(10));
    sim.run();
    EXPECT_EQ(fired_ms, (std::vector<std::int64_t>{11}));  // only the re-armed firing ran
}

TEST(Timer, CancelThenRearmStillFires) {
    Simulator sim;
    std::vector<std::int64_t> fired_ms;
    Timer timer{sim, [&] { fired_ms.push_back(at_ms(sim)); }};
    timer.set_after(Duration::millis(3));
    timer.cancel();
    timer.set_after(Duration::millis(6));
    sim.run();
    EXPECT_EQ(fired_ms, (std::vector<std::int64_t>{6}));
    EXPECT_EQ(timer.expiry(), TimePoint::never());
}

TEST(Timer, DestroyAfterPartialRunWithQueuedFiringIsSafe) {
    Simulator sim;
    int fires = 0;
    {
        Timer timer{sim, [&] { ++fires; }};
        timer.set_after(Duration::millis(5));
        sim.run_until(TimePoint::origin() + Duration::millis(1));
        EXPECT_EQ(sim.pending(), 1u);
    }  // destroyed while its key is still queued
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, ArmRearmAndCancelAllocateNothing) {
    ASSERT_TRUE(telemetry::alloc::active());
    Simulator sim;
    int fires = 0;
    Timer timer{sim, [&] { ++fires; }};
    timer.set_after(Duration::millis(1));  // warm-up: sizes the timer table and heap
    sim.run();

    const telemetry::AllocSnapshot allocs;
    for (int i = 0; i < 1000; ++i) {
        timer.set_after(Duration::millis(2));
        timer.set_after(Duration::millis(1));  // earlier re-arm: a second key
        timer.cancel();
        timer.set_after(Duration::millis(3));
        sim.run();
    }
    EXPECT_EQ(allocs.count_since(), 0u);
    EXPECT_EQ(fires, 1001);
    // Per round: the 1 ms key requeues to 3 ms, the 2 ms key is dropped and
    // the requeued key fires.
    EXPECT_EQ(sim.processed(), 3001u);
}

TEST(Timer, CallbackMayDestroyItsOwnTimer) {
    // The callback re-arms, then destroys its own timer and keeps using its
    // captures: the entry (and the heap-owned capture) must outlive the call.
    Simulator sim;
    std::optional<Timer> timer;
    const std::string payload(64, 'x');
    std::vector<std::string> seen;
    timer.emplace(sim, [&, payload] {
        timer->set_after(Duration::millis(1));
        timer.reset();
        seen.push_back(payload);
    });
    timer->set_after(Duration::millis(1));
    sim.run_until(TimePoint::origin() + Duration::millis(1));
    EXPECT_EQ(seen, (std::vector<std::string>{payload}));
    EXPECT_EQ(sim.pending(), 1u);  // the dead timer's re-arm stays queued

    // A successor recycles the entry while the dead timer's 2 ms key is still
    // queued. Both of its arms are later, so that key carries them: popped at
    // 2 ms, it must move to the successor's last arm rather than fire.
    std::vector<std::int64_t> fired_ms;
    Timer successor{sim, [&] { fired_ms.push_back(at_ms(sim)); }};
    successor.set_after(Duration::millis(5));
    successor.set_after(Duration::millis(5));
    sim.run();
    EXPECT_EQ(fired_ms, (std::vector<std::int64_t>{6}));
    EXPECT_EQ(seen.size(), 1u);
    // Three keys pop: the 1 ms firing, the dead timer's 2 ms key (requeued
    // for the successor) and the successor's 6 ms firing. Each arm still
    // draws a sequence number.
    EXPECT_EQ(sim.processed(), 3u);
    EXPECT_EQ(sim.scheduled(), 4u);
}

TEST(Timer, CallbackMayConstructTimersThatGrowTheTable) {
    // A firing callback builds enough timers to grow the table many times
    // over; the running callback and its captures must not move.
    Simulator sim;
    std::vector<std::unique_ptr<Timer>> spawned;
    std::vector<std::int64_t> fired_ms;
    const std::string payload(64, 'y');
    std::string seen;
    Timer parent{sim, [&, payload] {
        for (int i = 0; i < 200; ++i) {
            spawned.push_back(
                std::make_unique<Timer>(sim, [&] { fired_ms.push_back(at_ms(sim)); }));
            spawned.back()->set_after(Duration::millis(1 + i % 3));
        }
        seen = payload;
    }};
    parent.set_after(Duration::millis(1));
    sim.run();
    EXPECT_EQ(seen, payload);
    ASSERT_EQ(fired_ms.size(), 200u);
    for (std::size_t i = 1; i < fired_ms.size(); ++i) EXPECT_LE(fired_ms[i - 1], fired_ms[i]);
    EXPECT_EQ(fired_ms.front(), 2);
    EXPECT_EQ(fired_ms.back(), 4);
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

/// The netsim.sim.events.* counts `sim` publishes; 0 for an absent counter.
std::array<std::uint64_t, 3> category_counts(const Simulator& sim) {
    telemetry::MetricsRegistry registry;
    sim.publish_metrics(registry);
    std::array<std::uint64_t, 3> counts{};
    const CounterId ids[] = {CounterId::netsim_sim_events_conn_flush,
                             CounterId::netsim_sim_events_link_delivery,
                             CounterId::netsim_sim_events_timer};
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (const auto* c = registry.find(ids[i])) counts[i] = c->value();
    }
    return counts;
}
constexpr std::size_t kFlush = 0;
constexpr std::size_t kDelivery = 1;
constexpr std::size_t kTimer = 2;

TEST(Simulator, CountsProcessedEventsPerCategory) {
    Simulator sim;
    sim.schedule_after(Duration::millis(1), [] {}, EventCategory::link_delivery);
    sim.schedule_after(Duration::millis(2), [] {}, EventCategory::link_delivery);
    sim.schedule_after(Duration::millis(3), [] {}, EventCategory::conn_flush);
    sim.schedule_after(Duration::millis(4), [] {});  // untagged
    sim.run();
    const auto counts = category_counts(sim);
    EXPECT_EQ(counts[kDelivery], 2u);
    EXPECT_EQ(counts[kFlush], 1u);
    EXPECT_EQ(counts[kTimer], 0u);
}

TEST(Simulator, PublishMetricsExportsCountersAndHighWater) {
    Simulator sim;
    sim.schedule_after(Duration::millis(1), [] {}, EventCategory::link_delivery);
    sim.schedule_after(Duration::millis(2), [] {});
    sim.run();

    telemetry::MetricsRegistry registry;
    sim.publish_metrics(registry);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_scheduled).value(), 2u);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_processed).value(), 2u);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_link_delivery).value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge(GaugeId::netsim_sim_queue_depth_hwm).value(), 2.0);

    // Additive publish: a second simulator merges counters, max-merges hwm.
    Simulator other;
    for (int i = 0; i < 4; ++i) other.schedule_after(Duration::millis(i), [] {});
    other.run();
    other.publish_metrics(registry);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_processed).value(), 6u);
    EXPECT_DOUBLE_EQ(registry.gauge(GaugeId::netsim_sim_queue_depth_hwm).value(), 4.0);
}

TEST(Link, PublishesUnderItsDirection) {
    Simulator sim;
    Link link{sim, LinkConfig{}, util::Rng{5}};
    link.attach_faults(faults::FaultPlan{}, util::Rng{6});  // publishes .fault.* too
    link.send(Datagram(100, 1));
    sim.run();
    telemetry::MetricsRegistry forward;
    telemetry::MetricsRegistry back;
    link.publish_metrics(forward, LinkDirection::forward);
    link.publish_metrics(back, LinkDirection::back);
    // Both directions publish every link counter, each under its own
    // prefix, with the same value behind the same suffix.
    std::size_t published = 0;
    for (const auto& m : telemetry::kCounters) {
        const bool is_forward = m.name.starts_with("netsim.link.forward.");
        const bool is_back = m.name.starts_with("netsim.link.return.");
        EXPECT_EQ(forward.find_counter(m.name) != nullptr, is_forward) << m.name;
        EXPECT_EQ(back.find_counter(m.name) != nullptr, is_back) << m.name;
        if (!is_forward) continue;
        const std::string twin = "netsim.link.return." + std::string{m.name.substr(20)};
        ASSERT_NE(back.find_counter(twin), nullptr) << twin;
        EXPECT_EQ(back.find_counter(twin)->value(), forward.find_counter(m.name)->value());
        ++published;
    }
    EXPECT_EQ(published, 11u);
    EXPECT_EQ(forward.find_counter("netsim.link.forward.sent")->value(), 1u);
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
    // An instant's first round runs the previous instant, so the later
    // rounds schedule into its freed slots.
    std::vector<int> fired;
    int next = 0;
    for (int round = 0; round < 50; ++round) {
        const auto when = at + Duration::millis(10 + round / 5);
        for (int i = 0; i < 3; ++i) {
            sim.schedule_at(when, [&fired, id = next++] { fired.push_back(id); });
        }
        sim.run_until(when - Duration::millis(1));
    }
    sim.run();
    ASSERT_EQ(fired.size(), 150u);
    for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LT(fired[i - 1], fired[i]);
}

TEST(Simulator, DestructionReturnsEveryQueuedPooledBuffer) {
    bytes::Recycler& recycler = bytes::Recycler::local();
    const bytes::Recycler::Stats before = recycler.stats();
    const auto outstanding = [&] { return recycler.stats().outstanding - before.outstanding; };
    {
        Simulator sim;
        LinkConfig config;
        config.base_delay = Duration::millis(5);
        Link link{sim, config, util::Rng{7}};
        int received = 0;
        link.set_receiver([&received](bytes::ConstByteSpan) { ++received; });
        for (int i = 0; i < 20; ++i) {
            bytes::Buffer datagram = recycler.acquire(64);
            datagram.resize(64, static_cast<std::uint8_t>(i));
            link.send(std::move(datagram));
            // Direct events owning a pooled buffer too.
            sim.schedule_after(Duration::millis(100 + i), [buffer = recycler.acquire(32)] {});
        }
        // The deliveries ran, freeing their slots; the direct events are
        // still queued.
        sim.run_until(TimePoint::origin() + Duration::millis(50));
        EXPECT_EQ(received, 20);
        EXPECT_EQ(sim.pending(), 20u);
        EXPECT_EQ(outstanding(), 20);
    }
    EXPECT_EQ(outstanding(), 0);
    EXPECT_EQ(recycler.stats().acquires - before.acquires, 40u);
}

TEST(Simulator, InstrumentationMatchesAHandComputedRun) {
    Simulator sim;
    const auto t = [](int ms) { return TimePoint::origin() + Duration::millis(ms); };
    const auto noop = [] {};
    constexpr auto io = EventCategory::link_delivery;
    sim.schedule_at(t(5), noop, io);  // seq 0
    sim.schedule_at(
        t(1),
        [&] {  // seq 1: depth 3 after its pop, 6 after these three
            sim.schedule_after(Duration::millis(1), noop, io);  // seq 4, t=2
            sim.schedule_after(Duration::millis(1), noop, io);  // seq 5, t=2
            sim.schedule_after(Duration::millis(10), noop);     // seq 6, t=11
        },
        EventCategory::conn_flush);
    sim.schedule_at(t(1), noop);      // seq 2, untagged
    sim.schedule_at(t(3), noop, io);  // seq 3

    // Runs seq 1, 2, 4, 5, 3, 0; seq 6 (t=11) stays queued.
    EXPECT_FALSE(sim.run_until(t(6)));
    EXPECT_EQ(sim.scheduled(), 7u);
    EXPECT_EQ(sim.processed(), 6u);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.queue_depth_high_water(), 6u);

    telemetry::MetricsRegistry registry;
    sim.publish_metrics(registry);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_scheduled).value(), 7u);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_processed).value(), 6u);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_conn_flush).value(), 1u);
    EXPECT_EQ(registry.counter(CounterId::netsim_sim_events_link_delivery).value(), 4u);
    EXPECT_DOUBLE_EQ(registry.gauge(GaugeId::netsim_sim_queue_depth_hwm).value(), 6.0);
    EXPECT_EQ(registry.size(), 5u);  // untagged events get no category counter

    sim.run();
    EXPECT_EQ(sim.processed(), 7u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.now(), t(11));
    EXPECT_EQ(sim.queue_depth_high_water(), 6u);
}

TEST(Timer, TimerEventsAreCategorized) {
    Simulator sim;
    Timer timer{sim, [] {}};
    timer.set_after(Duration::millis(1));
    sim.run();
    EXPECT_EQ(category_counts(sim)[kTimer], 1u);

    // A key that requeues for a later re-arm counts as a processed timer
    // event, and so does its firing.
    timer.set_after(Duration::millis(1));
    timer.set_after(Duration::millis(2));
    sim.run();
    const auto counts = category_counts(sim);
    EXPECT_EQ(counts[kTimer], 3u);
    EXPECT_EQ(counts[kDelivery] + counts[kFlush], 0u);
}

TEST(Timer, ForwardRearmsKeepOneQueuedKey) {
    Simulator sim;
    std::vector<std::int64_t> fired_ms;
    Timer timer{sim, [&] { fired_ms.push_back(at_ms(sim)); }};
    for (int i = 1; i <= 1000; ++i) {
        timer.set_after(Duration::millis(i));
        EXPECT_LE(sim.pending(), 1u);
    }
    EXPECT_EQ(sim.scheduled(), 1000u);
    EXPECT_EQ(sim.queue_depth_high_water(), 1u);
    sim.run();
    EXPECT_EQ(fired_ms, (std::vector<std::int64_t>{1000}));
    EXPECT_EQ(sim.processed(), 2u);  // the 1 ms key requeued once, then fired
}

TEST(Timer, DeferredRearmKeepsItsSameInstantOrder) {
    // The re-arm to 10 ms draws its sequence number before the event below
    // is scheduled for the same instant, so it fires first, although its key
    // is requeued (at 5 ms) after that event was queued.
    Simulator sim;
    std::vector<std::string> order;
    Timer timer{sim, [&] { order.push_back("timer"); }};
    const auto at = TimePoint::origin() + Duration::millis(10);
    timer.set_after(Duration::millis(5));
    timer.set_at(at);
    sim.schedule_at(at, [&] { order.push_back("event"); });
    EXPECT_EQ(sim.pending(), 2u);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"timer", "event"}));
}

TEST(Timer, CancelWhileARearmIsDeferredFiresNothing) {
    Simulator sim;
    int fires = 0;
    Timer timer{sim, [&] { ++fires; }};
    timer.set_after(Duration::millis(2));
    timer.set_after(Duration::millis(8));
    sim.run_until(TimePoint::origin() + Duration::millis(4));  // key moved to 8 ms
    EXPECT_EQ(sim.pending(), 1u);
    timer.cancel();
    sim.run();
    EXPECT_EQ(fires, 0);
    EXPECT_FALSE(timer.armed());
    EXPECT_EQ(sim.processed(), 2u);
}

TEST(Timer, EarlierRearmFiresOnTime) {
    Simulator sim;
    std::vector<std::int64_t> fired_ms;
    Timer timer{sim, [&] { fired_ms.push_back(at_ms(sim)); }};
    timer.set_after(Duration::millis(9));
    timer.set_after(Duration::millis(12));  // deferred onto the 9 ms key
    timer.set_after(Duration::millis(3));   // earlier than that key
    sim.run();
    EXPECT_EQ(fired_ms, (std::vector<std::int64_t>{3}));
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, RecycledEntryNeverFiresItsPreviousOwnersArm) {
    Simulator sim;
    std::vector<std::string> fired;
    {
        Timer first{sim, [&] { fired.push_back("first"); }};
        first.set_after(Duration::millis(4));
    }  // its 4 ms key stays queued
    Timer second{sim, [&] { fired.push_back("second@" + std::to_string(at_ms(sim))); }};
    sim.run_until(TimePoint::origin() + Duration::millis(10));
    EXPECT_TRUE(fired.empty());  // the recycled entry is unarmed

    {
        Timer third{sim, [&] { fired.push_back("third"); }};
        third.set_after(Duration::millis(5));  // 15 ms
        third.set_after(Duration::millis(7));  // deferred: 17 ms
    }  // destroyed with its key queued and a re-arm deferred
    Timer fourth{sim, [&] { fired.push_back("fourth@" + std::to_string(at_ms(sim))); }};
    fourth.set_after(Duration::millis(9));  // deferred onto the 15 ms key
    sim.run();
    EXPECT_EQ(fired, (std::vector<std::string>{"fourth@19"}));
}

TEST(Timer, RearmFromInsideCallback) {
    Simulator sim;
    int fires = 0;
    Timer* self = nullptr;
    Timer timer{sim, [&] {
        if (++fires < 3) self->set_after(Duration::millis(1));
    }};
    self = &timer;
    timer.set_after(Duration::millis(1));
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
    link.publish_metrics(registry, LinkDirection::back);
    EXPECT_EQ(registry.counter(CounterId::netsim_link_return_sent).value(), 200u);
    EXPECT_EQ(registry.counter(CounterId::netsim_link_return_delivered).value(), stats.delivered);
    EXPECT_EQ(registry.counter(CounterId::netsim_link_return_delivered_bytes).value(),
              stats.delivered_bytes);
    EXPECT_EQ(registry.counter(CounterId::netsim_link_return_dropped_bytes).value(),
              stats.dropped_bytes);
    EXPECT_EQ(registry.find_counter("netsim.link.forward.sent"), nullptr);
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
