// Unit tests for the telemetry subsystem: registry instruments, log-scale
// histogram bucketing, spans, and the JSON/CSV/table exporters.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bytes/bytes.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "telemetry/alloc_interpose.hpp"  // this binary's one interposing TU
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/span.hpp"

namespace spinscope::telemetry {
namespace {

TEST(Counter, AccumulatesAndStartsAtZero) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndSetMax) {
    Gauge g;
    g.set(5.0);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
    g.set_max(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);  // smaller value does not win
    g.set_max(9.0);
    EXPECT_DOUBLE_EQ(g.value(), 9.0);
    g.set(1.0);  // plain set always overwrites
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Gauge, SetMaxOnFreshGaugeTakesAnyValue) {
    Gauge g;
    g.set_max(-7.0);  // no prior value: even a negative one is adopted
    EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST(Histogram, BucketBoundsAreGeometric) {
    Histogram h{{1.0, 2.0, 8}};
    EXPECT_DOUBLE_EQ(h.bucket_lower_bound(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucket_lower_bound(3), 8.0);
    EXPECT_DOUBLE_EQ(h.bucket_lower_bound(7), 128.0);
    EXPECT_EQ(h.buckets().size(), 8u);
}

TEST(Histogram, BucketCountsAreCorrect) {
    // Bucket i of {min=1, factor=2, n=4} spans [2^i, 2^(i+1)) with bucket 0
    // also absorbing underflow and bucket 3 absorbing overflow.
    Histogram h{{1.0, 2.0, 4}};
    h.record(0.25);  // underflow -> bucket 0
    h.record(1.0);   // exactly at bound 0 -> bucket 0
    h.record(1.9);   // bucket 0
    h.record(2.0);   // exactly at bound 1 -> bucket 1
    h.record(3.999);
    h.record(4.0);  // bucket 2
    h.record(7.5);  // bucket 2
    h.record(8.0);  // bucket 3
    h.record(1e9);  // overflow -> bucket 3
    const auto& buckets = h.buckets();
    EXPECT_EQ(buckets[0], 3u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 2u);
    EXPECT_EQ(buckets[3], 2u);
    EXPECT_EQ(h.count(), 9u);
    EXPECT_DOUBLE_EQ(h.min(), 0.25);
    EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Histogram, SumAndMeanTrackRecordedValues) {
    Histogram h{{0.001, 2.0, 16}};
    h.record(1.0);
    h.record(2.0);
    h.record(3.0);
    EXPECT_DOUBLE_EQ(h.sum(), 6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, EmptyHistogramIsAllZero) {
    Histogram h{{1.0, 10.0, 4}};
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
    MetricsRegistry registry;
    Counter& a = registry.counter("x.count");
    a.add(3);
    Counter& b = registry.counter("x.count");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);

    Histogram& h1 = registry.histogram("x.hist", {1.0, 2.0, 4});
    // A second lookup with a different spec returns the existing geometry.
    Histogram& h2 = registry.histogram("x.hist", {99.0, 3.0, 7});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.spec().bucket_count, 4u);
}

TEST(MetricsRegistry, NamespacesAreIndependent) {
    MetricsRegistry registry;
    registry.counter("same.name").add(1);
    registry.gauge("same.name").set(2.0);
    (void)registry.histogram("same.name");
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_NE(registry.find_counter("same.name"), nullptr);
    EXPECT_NE(registry.find_gauge("same.name"), nullptr);
    EXPECT_NE(registry.find_histogram("same.name"), nullptr);
    EXPECT_EQ(registry.find_counter("missing"), nullptr);
}

TEST(MetricsRegistry, ComposedStringAndLiteralNamesResolveToOneInstrument) {
    MetricsRegistry registry;
    registry.counter(MetricName{"netsim.link", ".forward", ".sent"}).add(1);
    registry.counter(std::string{"netsim.link.forward.sent"}).add(2);
    registry.counter("netsim.link.forward.sent").add(3);
    EXPECT_EQ(registry.size(), 1u);
    const Counter* c = registry.find_counter(MetricName{"netsim.link.forward", ".sent"});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c, registry.find_counter(std::string{"netsim.link.forward.sent"}));
    EXPECT_EQ(c, registry.find_counter("netsim.link.forward.sent"));
    EXPECT_EQ(c->value(), 6u);
    EXPECT_EQ(registry.counters().begin()->first, "netsim.link.forward.sent");

    registry.histogram(MetricName{"quic.conn", ".min_rtt_ms"}).record(1.0);
    registry.histogram("quic.conn.min_rtt_ms").record(2.0);
    ASSERT_NE(registry.find_histogram("quic.conn.min_rtt_ms"), nullptr);
    EXPECT_EQ(registry.find_histogram("quic.conn.min_rtt_ms")->count(), 2u);
}

TEST(MetricsRegistry, ConditionalInstrumentsStayAbsentUntilHit) {
    netsim::Simulator sim;
    util::Rng rng{1};
    qlog::Trace trace;
    quic::ConnectionConfig cfg;
    cfg.role = quic::Role::client;
    cfg.handshake_timeout = util::Duration::seconds(3);
    quic::Connection client{sim, cfg, rng, [](netsim::Datagram) {}, &trace};

    MetricsRegistry before;
    client.publish_metrics(before);
    sim.publish_metrics(before);
    EXPECT_NE(before.find_counter("quic.conn.attempts"), nullptr);
    EXPECT_EQ(before.find_counter("quic.conn.handshake_failed"), nullptr);
    EXPECT_EQ(before.find_counter("quic.conn.failed_after_handshake"), nullptr);
    EXPECT_EQ(before.find_counter("quic.conn.protocol_error"), nullptr);
    EXPECT_EQ(before.find_histogram("quic.conn.min_rtt_ms"), nullptr);
    EXPECT_EQ(before.find_counter("netsim.sim.events.timer"), nullptr);

    // Nothing answers: the handshake times out.
    client.connect();
    sim.run();
    ASSERT_TRUE(client.failed());
    MetricsRegistry after;
    client.publish_metrics(after);
    sim.publish_metrics(after);
    ASSERT_NE(after.find_counter("quic.conn.handshake_failed"), nullptr);
    EXPECT_EQ(after.find_counter("quic.conn.handshake_failed")->value(), 1u);
    EXPECT_EQ(after.find_counter("quic.conn.failed_after_handshake"), nullptr);
    EXPECT_EQ(after.find_histogram("quic.conn.min_rtt_ms"), nullptr);
    EXPECT_NE(after.find_counter("netsim.sim.events.timer"), nullptr);

    // A link without a fault plan publishes no fault counters.
    netsim::Link link{sim, netsim::LinkConfig{}, util::Rng{2}};
    link.publish_metrics(after, "netsim.link.forward");
    EXPECT_NE(after.find_counter("netsim.link.forward.sent"), nullptr);
    EXPECT_EQ(after.find_counter("netsim.link.forward.fault.burst_dropped"), nullptr);
}

TEST(MetricsRegistry, NameLongerThanTheCompositionBufferThrowsLengthError) {
    const std::string longest(MetricName::kMaxLength, 'p');
    EXPECT_EQ(MetricName{longest}.view(), longest);
    EXPECT_EQ(MetricName({longest.substr(1), "x"}).view().size(), MetricName::kMaxLength);
    EXPECT_THROW(MetricName({longest, "x"}), std::length_error);

    // A publisher handed an over-long prefix fails before creating anything.
    MetricsRegistry registry;
    netsim::Simulator sim;
    EXPECT_THROW(sim.publish_metrics(registry, longest), std::length_error);
    bytes::BufferPool pool;
    EXPECT_THROW(pool.publish_metrics(registry, longest), std::length_error);
    EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsRegistry, RepublishingExistingNamesAllocatesNothing) {
    ASSERT_TRUE(alloc::active());
    netsim::Simulator sim;
    netsim::Link link{sim, netsim::LinkConfig{}, util::Rng{2}};
    bytes::BufferPool pool;
    qlog::Trace trace;
    quic::ConnectionConfig cfg;
    cfg.role = quic::Role::client;
    quic::Connection client{sim, cfg, util::Rng{1}, [](netsim::Datagram) {}, &trace};
    client.connect();
    sim.run();

    MetricsRegistry registry;
    const auto publish = [&] {
        sim.publish_metrics(registry);
        link.publish_metrics(registry, "netsim.link.forward");
        client.publish_metrics(registry);
        pool.publish_metrics(registry);
        record_sim_time(registry, "scanner.attempt_sim_ms", sim.now() - util::TimePoint::origin());
        ScopedTimer timer{registry, "scanner.phase.attempt_ms"};
    };
    publish();
    const std::size_t instruments = registry.size();
    const AllocSnapshot allocs;
    publish();
    EXPECT_EQ(allocs.count_since(), 0u);
    EXPECT_EQ(registry.size(), instruments);
}

TEST(Span, FinishRecordsIntoHistogram) {
    MetricsRegistry registry;
    Span span{registry, "phase.test_ms"};
    const double ms = span.finish();
    EXPECT_GE(ms, 0.0);
    const Histogram* h = registry.find_histogram("phase.test_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    // finish() is idempotent.
    EXPECT_DOUBLE_EQ(span.finish(), 0.0);
    EXPECT_EQ(h->count(), 1u);
}

TEST(ScopedTimer, RecordsOnScopeExit) {
    MetricsRegistry registry;
    {
        ScopedTimer timer{registry, "phase.scoped_ms"};
    }
    {
        ScopedTimer timer{registry, "phase.scoped_ms"};
    }
    const Histogram* h = registry.find_histogram("phase.scoped_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
}

TEST(SimTime, RecordsDurationMillis) {
    MetricsRegistry registry;
    record_sim_time(registry, "attempt.sim_ms", util::Duration::millis(250));
    record_sim_time(registry, "attempt.sim_ms", util::Duration::millis(-5));  // clamped
    const Histogram* h = registry.find_histogram("attempt.sim_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_DOUBLE_EQ(h->max(), 250.0);
    EXPECT_DOUBLE_EQ(h->min(), 0.0);
}

TEST(Export, JsonContainsAllKindsInSortedOrder) {
    MetricsRegistry registry;
    registry.counter("b.count").add(7);
    registry.counter("a.count").add(1);
    registry.gauge("z.gauge").set(2.5);
    registry.histogram("m.hist", {1.0, 2.0, 3}).record(2.0);

    const std::string json = to_json(registry);
    EXPECT_NE(json.find("\"schema\":\"spinscope-telemetry-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"b.count\":7"), std::string::npos);
    EXPECT_NE(json.find("\"z.gauge\":2.5"), std::string::npos);
    EXPECT_NE(json.find("\"bucket_counts\":[0,1,0]"), std::string::npos);
    // Name-sorted: "a.count" must precede "b.count".
    EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
}

TEST(Export, JsonIsDeterministic) {
    auto build = [] {
        MetricsRegistry registry;
        registry.counter("x").add(1);
        registry.gauge("y").set(3.0);
        registry.histogram("z").record(0.5);
        return to_json(registry);
    };
    EXPECT_EQ(build(), build());
}

TEST(Export, CsvListsEveryInstrument) {
    MetricsRegistry registry;
    registry.counter("c").add(3);
    registry.gauge("g").set(1.25);
    registry.histogram("h", {1.0, 2.0, 4}).record(5.0);

    const std::string csv = to_csv(registry);
    EXPECT_NE(csv.find("kind,name,field,value\n"), std::string::npos);
    EXPECT_NE(csv.find("counter,c,value,3\n"), std::string::npos);
    EXPECT_NE(csv.find("gauge,g,value,1.25\n"), std::string::npos);
    EXPECT_NE(csv.find("histogram,h,count,1\n"), std::string::npos);
    EXPECT_NE(csv.find("histogram,h,bucket_ge_4,1\n"), std::string::npos);
}

TEST(Export, TableRendersEveryMetricName) {
    MetricsRegistry registry;
    registry.counter("layer.counter").add(1234567);
    registry.gauge("layer.gauge").set(0.5);
    registry.histogram("layer.hist").record(1.0);
    const std::string table = render_table(registry);
    EXPECT_NE(table.find("layer.counter"), std::string::npos);
    EXPECT_NE(table.find("layer.gauge"), std::string::npos);
    EXPECT_NE(table.find("layer.hist"), std::string::npos);
    EXPECT_NE(table.find("1 234 567"), std::string::npos);  // grouped digits
}

TEST(Export, WriteJsonFileRoundTripsThroughDisk) {
    MetricsRegistry registry;
    registry.counter("disk.count").add(9);
    const std::string path = ::testing::TempDir() + "spinscope_telemetry_test.json";
    ASSERT_TRUE(write_json_file(registry, path));
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), to_json(registry) + "\n");
    std::remove(path.c_str());
}

TEST(Merge, CounterAddsAndGaugeTakesMax) {
    Counter a;
    Counter b;
    a.add(3);
    b.add(39);
    a.merge_from(b);
    EXPECT_EQ(a.value(), 42u);

    Gauge g;
    Gauge higher;
    Gauge lower;
    g.set(5.0);
    higher.set(9.0);
    lower.set(1.0);
    g.merge_from(higher);
    EXPECT_DOUBLE_EQ(g.value(), 9.0);
    g.merge_from(lower);
    EXPECT_DOUBLE_EQ(g.value(), 9.0);  // max-merge: smaller shard never wins

    // An empty source gauge must not drag a real value down to 0.
    Gauge untouched;
    g.merge_from(untouched);
    EXPECT_DOUBLE_EQ(g.value(), 9.0);
    // ...and merging into an empty gauge adopts the source value.
    Gauge fresh;
    fresh.merge_from(g);
    EXPECT_DOUBLE_EQ(fresh.value(), 9.0);
}

TEST(Merge, HistogramMergesBucketsCountSumMinMax) {
    const HistogramSpec spec{0.001, 2.0, 16};
    Histogram a{spec};
    Histogram b{spec};
    a.record(0.5);
    a.record(4.0);
    b.record(0.002);
    b.record(32.0);
    b.record(4.0);

    Histogram expected{spec};
    for (const double v : {0.5, 4.0, 0.002, 32.0, 4.0}) expected.record(v);

    a.merge_from(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_EQ(a.buckets(), expected.buckets());
    EXPECT_DOUBLE_EQ(a.min(), 0.002);
    EXPECT_DOUBLE_EQ(a.max(), 32.0);
    EXPECT_DOUBLE_EQ(a.sum(), 0.5 + 4.0 + (0.002 + 32.0 + 4.0));

    // Merging an empty histogram is a no-op; merging into an empty one copies.
    Histogram empty{spec};
    a.merge_from(empty);
    EXPECT_EQ(a.count(), 5u);
    Histogram fresh{spec};
    fresh.merge_from(a);
    EXPECT_EQ(fresh.count(), 5u);
    EXPECT_DOUBLE_EQ(fresh.min(), 0.002);
}

TEST(Merge, HistogramGeometryMismatchThrows) {
    Histogram a{HistogramSpec{0.001, 2.0, 16}};
    Histogram coarser{HistogramSpec{0.001, 4.0, 16}};
    Histogram shorter{HistogramSpec{0.001, 2.0, 8}};
    EXPECT_THROW(a.merge_from(coarser), std::invalid_argument);
    EXPECT_THROW(a.merge_from(shorter), std::invalid_argument);
}

TEST(Merge, RegistryMergeCreatesMissingAndCombinesExisting) {
    MetricsRegistry base;
    base.counter("shared.count").add(1);
    base.gauge("shared.gauge").set(2.0);

    MetricsRegistry shard;
    shard.counter("shared.count").add(41);
    shard.gauge("shared.gauge").set(7.0);
    shard.counter("only.in.shard").add(5);
    shard.histogram("shard.hist", HistogramSpec{0.001, 2.0, 8}).record(1.5);

    base.merge_from(shard);
    EXPECT_EQ(base.counter("shared.count").value(), 42u);
    EXPECT_DOUBLE_EQ(base.gauge("shared.gauge").value(), 7.0);
    ASSERT_NE(base.find_counter("only.in.shard"), nullptr);
    EXPECT_EQ(base.find_counter("only.in.shard")->value(), 5u);
    // Histograms created by the merge inherit the source geometry.
    const Histogram* merged = base.find_histogram("shard.hist");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->spec().bucket_count, 8u);
    EXPECT_EQ(merged->count(), 1u);
}

TEST(Merge, ChunkOrderMergeEqualsSequentialRecording) {
    // The campaign invariant in miniature: recording a stream sequentially
    // and recording it split across per-chunk registries merged in chunk
    // order must agree on every deterministic field.
    MetricsRegistry sequential;
    MetricsRegistry chunk_a;
    MetricsRegistry chunk_b;
    const double values[] = {0.004, 1.0, 0.25, 8.0, 0.06, 2.0};
    for (int i = 0; i < 6; ++i) {
        sequential.counter("m.count").add();
        sequential.histogram("m.hist").record(values[i]);
        (i < 3 ? chunk_a : chunk_b).counter("m.count").add();
        (i < 3 ? chunk_a : chunk_b).histogram("m.hist").record(values[i]);
    }
    MetricsRegistry merged;
    merged.merge_from(chunk_a);
    merged.merge_from(chunk_b);
    EXPECT_EQ(deterministic_csv(merged), deterministic_csv(sequential));
}

TEST(Export, DeterministicCsvExcludesWallClockAndHistogramSums) {
    EXPECT_TRUE(is_wall_clock_metric("scanner.phase.scan_domain"));
    EXPECT_TRUE(is_wall_clock_metric("scanner.domains_per_sec"));
    EXPECT_FALSE(is_wall_clock_metric("scanner.domains_scanned"));
    EXPECT_FALSE(is_wall_clock_metric("netsim.sim.events_executed"));

    MetricsRegistry registry;
    registry.counter("scanner.domains_scanned").add(10);
    registry.gauge("scanner.domains_per_sec").set(123.0);
    registry.histogram("scanner.phase.scan_domain").record(1.0);
    registry.histogram("netsim.sim.horizon_ms").record(2.0);

    const std::string det = deterministic_csv(registry);
    EXPECT_NE(det.find("scanner.domains_scanned"), std::string::npos);
    EXPECT_NE(det.find("netsim.sim.horizon_ms"), std::string::npos);
    EXPECT_EQ(det.find("domains_per_sec"), std::string::npos);
    EXPECT_EQ(det.find("scanner.phase"), std::string::npos);
    EXPECT_EQ(det.find(",sum,"), std::string::npos) << "histogram sums are float-regrouped";

    // The full CSV still carries everything the deterministic view drops.
    const std::string full = to_csv(registry);
    EXPECT_NE(full.find("domains_per_sec"), std::string::npos);
    EXPECT_NE(full.find("scanner.phase.scan_domain"), std::string::npos);
    EXPECT_NE(full.find(",sum,"), std::string::npos);
}

TEST(Export, SnapshotRoundTripsEveryInstrumentExactly) {
    MetricsRegistry registry;
    registry.counter("scanner.connections").add(42);
    registry.gauge("scanner.domains_per_sec").set(123.456789012345678);
    (void)registry.gauge("netsim.queue.high_water");  // registered but never set
    auto& hist = registry.histogram("netsim.link.delay_ms", {0.001, 2.0, 16});
    hist.record(0.0005);  // below bucket 0 → clamped into bucket 0
    hist.record(1.0 / 3.0);
    hist.record(1e9);  // above the last bound → final bucket

    const auto parsed = parse_snapshot(snapshot(registry));
    ASSERT_TRUE(parsed.has_value());
    const auto* counter = parsed->find_counter("scanner.connections");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value(), 42u);
    const auto* gauge = parsed->find_gauge("scanner.domains_per_sec");
    ASSERT_NE(gauge, nullptr);
    EXPECT_TRUE(gauge->has_value());
    EXPECT_EQ(gauge->value(), 123.456789012345678);  // %.17g: bit-identical
    const auto* unset = parsed->find_gauge("netsim.queue.high_water");
    ASSERT_NE(unset, nullptr);
    EXPECT_FALSE(unset->has_value()) << "never-set state must survive the round trip";
    const auto* parsed_hist = parsed->find_histogram("netsim.link.delay_ms");
    ASSERT_NE(parsed_hist, nullptr);
    EXPECT_EQ(parsed_hist->count(), 3u);
    EXPECT_EQ(parsed_hist->sum(), hist.sum());
    EXPECT_EQ(parsed_hist->min(), 0.0005);
    EXPECT_EQ(parsed_hist->max(), 1e9);
    EXPECT_EQ(parsed_hist->buckets(), hist.buckets());
    EXPECT_EQ(parsed_hist->spec().bucket_count, 16u);

    // Round-tripped state must MERGE identically to the original — this is
    // what journal replay relies on (DESIGN.md §11).
    MetricsRegistry merged_original;
    merged_original.merge_from(registry);
    MetricsRegistry merged_parsed;
    merged_parsed.merge_from(*parsed);
    EXPECT_EQ(to_csv(merged_original), to_csv(merged_parsed));
}

TEST(Export, ParseSnapshotRejectsMalformedInput) {
    EXPECT_TRUE(parse_snapshot("").has_value()) << "an empty snapshot is an empty registry";
    EXPECT_FALSE(parse_snapshot("bogus kind x 1\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter a.b not_a_number\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter a.b 1 trailing\n").has_value());
    EXPECT_FALSE(parse_snapshot("gauge a.b 2 1.5\n").has_value());  // bad has-value flag
    // Histogram whose bucket counts disagree with its count.
    EXPECT_FALSE(parse_snapshot("hist h 0.001 2 4 5 1.0 0.1 0.9 1 1 1 1\n").has_value());
    // Nonsensical geometry.
    EXPECT_FALSE(parse_snapshot("hist h -1 2 4 0 0 0 0 0 0 0 0\n").has_value());
}

TEST(Export, ParseSnapshotAcceptsOnlyTheWritersForm) {
    MetricsRegistry registry;
    registry.counter("a.first").add(1);
    registry.counter("b.second").add(22);
    registry.gauge("c.level").set(0.25);
    (void)registry.histogram("d.delay_ms", {0.001, 2.0, 4});
    const std::string text = snapshot(registry);
    ASSERT_TRUE(parse_snapshot(text).has_value());
    // Cut anywhere but after a newline, the last line is unterminated.
    for (std::size_t n = 0; n < text.size(); ++n) {
        const bool line_boundary = n == 0 || text[n - 1] == '\n';
        EXPECT_EQ(parse_snapshot(text.substr(0, n)).has_value(), line_boundary) << n;
    }
    // snapshot() writes counters, gauges, then histograms, each name-sorted
    // and once.
    EXPECT_FALSE(parse_snapshot("counter b 1\ncounter a 1\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter a 1\ncounter a 1\n").has_value());
    EXPECT_FALSE(parse_snapshot("gauge g 1 2\ncounter a 1\n").has_value());
    EXPECT_TRUE(parse_snapshot("counter b 1\ngauge a 1 2\n").has_value());
    // Integers are canonical decimals; blank lines and extra spaces are not
    // the writer's.
    EXPECT_FALSE(parse_snapshot("counter a 01\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter a +1\n").has_value());
    EXPECT_FALSE(parse_snapshot("\ncounter a 1\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter  a 1\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter a\t1\n").has_value());
}

}  // namespace
}  // namespace spinscope::telemetry
