// Unit tests for the telemetry subsystem: the metric catalog, registry
// instruments, log-scale histogram bucketing, spans, and the JSON/CSV/
// snapshot exporters.

#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "bytes/bytes.hpp"
#include "bytes/cursor.hpp"
#include "faults/faults.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "scanner/campaign.hpp"
#include "telemetry/alloc_interpose.hpp"  // this binary's one interposing TU
#include "telemetry/catalog.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/span.hpp"
#include "util/io.hpp"

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

bool same_buckets(const Histogram& a, const Histogram& b) {
    return std::ranges::equal(a.buckets(), b.buckets());
}

TEST(Histogram, BucketBoundsAreGeometric) {
    Histogram h{kSimMs};
    EXPECT_DOUBLE_EQ(h.geometry().bounds[0], 0.1);
    EXPECT_DOUBLE_EQ(h.geometry().bounds[3], 0.8);
    EXPECT_DOUBLE_EQ(h.geometry().bounds[23], 0.1 * (1 << 23));
    EXPECT_EQ(h.buckets().size(), 24u);
    EXPECT_EQ(Histogram{kWallMs}.buckets().size(), 32u);
}

TEST(Histogram, BucketCountsAreCorrect) {
    // Bucket i of {min=0.1, factor=2, n=24} spans [0.1 * 2^i, 0.1 * 2^(i+1))
    // with bucket 0 also absorbing underflow and bucket 23 absorbing overflow.
    Histogram h{kSimMs};
    h.record(0.025);  // underflow -> bucket 0
    h.record(0.1);    // exactly at bound 0 -> bucket 0
    h.record(0.19);   // bucket 0
    h.record(0.2);    // exactly at bound 1 -> bucket 1
    h.record(0.3999);
    h.record(0.4);  // bucket 2
    h.record(0.75);  // bucket 2
    h.record(0.8);  // bucket 3
    h.record(1e9);  // overflow -> bucket 23
    const auto buckets = h.buckets();
    EXPECT_EQ(buckets[0], 3u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 2u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(buckets[23], 1u);
    EXPECT_EQ(h.count(), 9u);
    EXPECT_DOUBLE_EQ(h.min(), 0.025);
    EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Histogram, SumAndMeanTrackRecordedValues) {
    Histogram h{kWallMs};
    h.record(1.0);
    h.record(2.0);
    h.record(3.0);
    EXPECT_DOUBLE_EQ(h.sum(), 6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, EmptyHistogramIsAllZero) {
    Histogram h{kSimMs};
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
    MetricsRegistry registry;
    Counter& a = registry.counter(CounterId::scanner_connections);
    a.add(3);
    Counter& b = registry.counter(CounterId::scanner_connections);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);

    // Every histogram carries its catalog entry's geometry.
    Histogram& h1 = registry.histogram(HistogramId::quic_conn_min_rtt_ms);
    Histogram& h2 = registry.histogram(HistogramId::quic_conn_min_rtt_ms);
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(&h2.geometry(), &kSimMs);
    EXPECT_EQ(&registry.histogram(HistogramId::scanner_phase_attempt_ms).geometry(), &kWallMs);
}

TEST(MetricsRegistry, NamespacesAreIndependent) {
    MetricsRegistry registry;
    registry.counter(CounterId::bytes_pool_acquires).add(1);
    registry.gauge(GaugeId::bytes_pool_outstanding_hwm).set(2.0);
    (void)registry.histogram(HistogramId::quic_conn_min_rtt_ms);
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_NE(registry.find_counter("bytes.pool.acquires"), nullptr);
    EXPECT_NE(registry.find_gauge("bytes.pool.outstanding_hwm"), nullptr);
    EXPECT_NE(registry.find_histogram("quic.conn.min_rtt_ms"), nullptr);
    // A name is looked up only among its own kind's entries.
    EXPECT_EQ(registry.find_gauge("bytes.pool.acquires"), nullptr);
    EXPECT_EQ(registry.find_counter("bytes.pool.outstanding_hwm"), nullptr);
    EXPECT_EQ(registry.find_counter("missing"), nullptr);
}

TEST(MetricsRegistry, ComposedStringAndLiteralNamesResolveToOneInstrument) {
    MetricsRegistry registry;
    registry.counter(CounterId::netsim_link_forward_sent).add(1);
    registry.counter(CounterId::netsim_link_forward_sent).add(5);
    EXPECT_EQ(registry.size(), 1u);
    const Counter* c = registry.find(CounterId::netsim_link_forward_sent);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c, registry.find_counter(std::string{"netsim.link"} + ".forward.sent"));
    EXPECT_EQ(c, registry.find_counter("netsim.link.forward.sent"));
    EXPECT_EQ(c->value(), 6u);
    EXPECT_EQ(info(CounterId::netsim_link_forward_sent).name, "netsim.link.forward.sent");

    registry.histogram(HistogramId::quic_conn_min_rtt_ms).record(1.0);
    registry.histogram(HistogramId::quic_conn_min_rtt_ms).record(2.0);
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
    link.publish_metrics(after, netsim::LinkDirection::forward);
    EXPECT_NE(after.find_counter("netsim.link.forward.sent"), nullptr);
    EXPECT_EQ(after.find_counter("netsim.link.forward.fault.burst_dropped"), nullptr);
}

TEST(MetricsRegistry, RepublishingExistingNamesAllocatesNothing) {
    ASSERT_TRUE(alloc::active());
    netsim::Simulator sim;
    netsim::Link link{sim, netsim::LinkConfig{}, util::Rng{2}};
    qlog::Trace trace;
    quic::ConnectionConfig cfg;
    cfg.role = quic::Role::client;
    quic::Connection client{sim, cfg, util::Rng{1}, [](netsim::Datagram) {}, &trace};
    client.connect();
    sim.run();
    bytes::Recycler& recycler = bytes::Recycler::local();
    const bytes::Recycler::Stats since = recycler.stats();

    // A chunk registry costs no allocation to create, nor does an attempt's
    // first publish into it, nor any publish after that.
    const AllocSnapshot allocs;
    MetricsRegistry registry;
    const auto publish = [&] {
        sim.publish_metrics(registry);
        link.publish_metrics(registry, netsim::LinkDirection::forward);
        client.publish_metrics(registry);
        recycler.publish_since(since, registry);
        record_sim_time(registry, HistogramId::scanner_attempt_sim_ms,
                        sim.now() - util::TimePoint::origin());
        ScopedTimer timer{&registry, HistogramId::scanner_phase_attempt_ms};
    };
    publish();
    const std::size_t instruments = registry.size();
    publish();
    EXPECT_EQ(allocs.count_since(), 0u);
    EXPECT_GT(instruments, 0u);
    EXPECT_EQ(registry.size(), instruments);
}

// --- Per-thread allocation probe -------------------------------------------
//
// Threads come from pthread_create, not std::thread, whose start allocates
// its state object with operator new and would blur the exact sums below.

struct AllocJob {
    std::size_t allocs = 0;
    std::size_t bytes = 0;
};

std::atomic<void*> g_alloc_sink{nullptr};

void* allocate_job(void* arg) {
    const auto& job = *static_cast<const AllocJob*>(arg);
    for (std::size_t i = 0; i < job.allocs; ++i) {
        void* p = ::operator new(job.bytes);
        g_alloc_sink.store(p, std::memory_order_relaxed);  // keeps the pair
        ::operator delete(p);
    }
    return nullptr;
}

/// Runs `jobs` on one thread each, all started before any is joined.
void run_wave(std::span<AllocJob> jobs) {
    pthread_t threads[8];
    ASSERT_LE(jobs.size(), std::size(threads));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(pthread_create(&threads[i], nullptr, allocate_job, &jobs[i]), 0);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) pthread_join(threads[i], nullptr);
}

TEST(AllocProbe, SumsEveryThreadIncludingThoseThatExited) {
    ASSERT_TRUE(alloc::active());
    const AllocSnapshot start;
    std::uint64_t want_count = 0;
    std::uint64_t want_bytes = 0;
    for (std::size_t wave = 0; wave < 4; ++wave) {
        AllocJob jobs[3];
        for (std::size_t t = 0; t < std::size(jobs); ++t) {
            jobs[t] = {1000 + 37 * wave + t, 16 + 8 * t + wave};
            want_count += jobs[t].allocs;
            want_bytes += jobs[t].allocs * jobs[t].bytes;
        }
        run_wave(jobs);
        // Every thread so far has exited; its counts must still be there.
        EXPECT_EQ(start.count_since(), want_count) << "after wave " << wave;
        EXPECT_EQ(start.bytes_since(), want_bytes) << "after wave " << wave;
    }
}

TEST(AllocProbe, CountsTheNothrowNewThatStableSortBuffersUse) {
    // std::stable_sort takes its temporary buffer from the nothrow new and
    // returns it through the plain delete; both must be the probe's.
    ASSERT_TRUE(alloc::active());
    std::vector<int> values(256);
    for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<int>(i * 37 % 101);
    const AllocSnapshot start;
    std::stable_sort(values.begin(), values.end());
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
    EXPECT_EQ(start.count_since(), 1u);
    EXPECT_EQ(start.bytes_since(), values.size() / 2 * sizeof(int));
}

TEST(AllocProbe, SequentialThreadsReuseOneBlockAndStayExact) {
    ASSERT_TRUE(alloc::active());
    const AllocSnapshot start;
    const std::size_t blocks_before = alloc::blocks_claimed();
    constexpr std::size_t kThreads = 300;  // more than the probe has blocks
    AllocJob job{50, 24};
    for (std::size_t i = 0; i < kThreads; ++i) run_wave({&job, 1});
    EXPECT_EQ(start.count_since(), kThreads * job.allocs);
    EXPECT_EQ(start.bytes_since(), kThreads * job.allocs * job.bytes);
    // One thread alive at a time claims at most one block beyond the ones
    // already held, however many threads ran.
    EXPECT_LE(alloc::blocks_claimed(), blocks_before + 1);
}

TEST(Span, FinishRecordsIntoHistogram) {
    MetricsRegistry registry;
    Span span{&registry, HistogramId::scanner_phase_resolve_ms};
    const double ms = span.finish();
    EXPECT_GE(ms, 0.0);
    const Histogram* h = registry.find_histogram("scanner.phase.resolve_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    // finish() is idempotent.
    EXPECT_DOUBLE_EQ(span.finish(), 0.0);
    EXPECT_EQ(h->count(), 1u);
}

TEST(ScopedTimer, RecordsOnScopeExit) {
    MetricsRegistry registry;
    {
        ScopedTimer timer{&registry, HistogramId::scanner_phase_finalize_ms};
    }
    {
        ScopedTimer timer{&registry, HistogramId::scanner_phase_finalize_ms};
    }
    {
        ScopedTimer off{nullptr, HistogramId::scanner_phase_finalize_ms};  // telemetry off
    }
    const Histogram* h = registry.find_histogram("scanner.phase.finalize_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
}

TEST(SimTime, RecordsDurationMillis) {
    MetricsRegistry registry;
    record_sim_time(registry, HistogramId::scanner_attempt_sim_ms, util::Duration::millis(250));
    record_sim_time(registry, HistogramId::scanner_attempt_sim_ms,
                    util::Duration::millis(-5));  // clamped
    const Histogram* h = registry.find_histogram("scanner.attempt_sim_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_DOUBLE_EQ(h->max(), 250.0);
    EXPECT_DOUBLE_EQ(h->min(), 0.0);
}

TEST(Export, JsonContainsAllKindsInSortedOrder) {
    MetricsRegistry registry;
    registry.counter(CounterId::scanner_connections).add(7);
    registry.counter(CounterId::bytes_pool_acquires).add(1);
    registry.gauge(GaugeId::scanner_quic_ok_rate).set(2.5);
    registry.histogram(HistogramId::quic_conn_min_rtt_ms).record(0.3);

    const std::string json = to_json(registry);
    EXPECT_NE(json.find("\"schema\":\"spinscope-telemetry-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"bytes.pool.acquires\":1"), std::string::npos);
    EXPECT_NE(json.find("\"scanner.connections\":7"), std::string::npos);
    EXPECT_NE(json.find("\"scanner.quic_ok_rate\":2.5"), std::string::npos);
    EXPECT_NE(json.find("\"spec\":{\"min_value\":0.1,\"factor\":2,\"buckets\":24}"),
              std::string::npos);
    EXPECT_NE(json.find("\"bucket_counts\":[0,1,0,"), std::string::npos);
    // Name-sorted: "bytes.pool.acquires" must precede "scanner.connections".
    EXPECT_LT(json.find("\"bytes.pool.acquires\""), json.find("\"scanner.connections\""));
}

TEST(Export, JsonIsDeterministic) {
    auto build = [] {
        MetricsRegistry registry;
        registry.counter(CounterId::scanner_redirects_followed).add(1);
        registry.gauge(GaugeId::scanner_quic_ok_rate).set(3.0);
        registry.histogram(HistogramId::scanner_phase_attempt_ms).record(0.5);
        return to_json(registry);
    };
    EXPECT_EQ(build(), build());
}

TEST(Export, WriteJsonFileRoundTripsThroughDisk) {
    MetricsRegistry registry;
    registry.counter(CounterId::scanner_domains_scanned).add(9);
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
    const HistogramGeometry& spec = kWallMs;
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
    EXPECT_TRUE(same_buckets(a, expected));
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

TEST(Merge, RegistryMergeCreatesMissingAndCombinesExisting) {
    MetricsRegistry base;
    base.counter(CounterId::scanner_connections).add(1);
    base.gauge(GaugeId::netsim_sim_queue_depth_hwm).set(2.0);

    MetricsRegistry shard;
    shard.counter(CounterId::scanner_connections).add(41);
    shard.gauge(GaugeId::netsim_sim_queue_depth_hwm).set(7.0);
    shard.counter(CounterId::scanner_redirects_followed).add(5);
    shard.counter(CounterId::scanner_domains_errored).add(0);  // present at zero
    shard.histogram(HistogramId::scanner_attempt_sim_ms).record(1.5);

    base.merge_from(shard);
    EXPECT_EQ(base.size(), 5u);
    EXPECT_EQ(base.counter(CounterId::scanner_connections).value(), 42u);
    EXPECT_DOUBLE_EQ(base.gauge(GaugeId::netsim_sim_queue_depth_hwm).value(), 7.0);
    ASSERT_NE(base.find_counter("scanner.redirects_followed"), nullptr);
    EXPECT_EQ(base.find_counter("scanner.redirects_followed")->value(), 5u);
    ASSERT_NE(base.find_counter("scanner.domains_errored"), nullptr);
    EXPECT_EQ(base.find_counter("scanner.domains_quic_ok"), nullptr);
    const Histogram* merged = base.find_histogram("scanner.attempt_sim_ms");
    ASSERT_NE(merged, nullptr);
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
        sequential.counter(CounterId::quic_conn_attempts).add();
        sequential.histogram(HistogramId::quic_conn_min_rtt_ms).record(values[i]);
        (i < 3 ? chunk_a : chunk_b).counter(CounterId::quic_conn_attempts).add();
        (i < 3 ? chunk_a : chunk_b).histogram(HistogramId::quic_conn_min_rtt_ms).record(values[i]);
    }
    MetricsRegistry merged;
    merged.merge_from(chunk_a);
    merged.merge_from(chunk_b);
    EXPECT_EQ(deterministic_csv(merged), deterministic_csv(sequential));
}

TEST(Export, DeterministicCsvExcludesWallClockAndHistogramSums) {
    EXPECT_EQ(info(HistogramId::scanner_phase_attempt_ms).metric_class, MetricClass::wall_clock);
    EXPECT_EQ(info(GaugeId::scanner_domains_per_sec).metric_class, MetricClass::wall_clock);
    EXPECT_EQ(info(CounterId::scanner_domains_scanned).metric_class, MetricClass::deterministic);
    EXPECT_EQ(info(HistogramId::scanner_attempt_sim_ms).metric_class, MetricClass::deterministic);

    MetricsRegistry registry;
    registry.counter(CounterId::scanner_domains_scanned).add(10);
    registry.gauge(GaugeId::scanner_domains_per_sec).set(123.0);
    registry.histogram(HistogramId::scanner_phase_attempt_ms).record(1.0);
    registry.histogram(HistogramId::scanner_attempt_sim_ms).record(2.0);

    const std::string det = deterministic_csv(registry);
    EXPECT_NE(det.find("scanner.domains_scanned"), std::string::npos);
    EXPECT_NE(det.find("scanner.attempt_sim_ms"), std::string::npos);
    EXPECT_EQ(det.find("domains_per_sec"), std::string::npos);
    EXPECT_EQ(det.find("scanner.phase"), std::string::npos);
    EXPECT_EQ(det.find(",sum,"), std::string::npos) << "histogram sums are float-regrouped";

    // The full JSON still carries everything the deterministic view drops.
    const std::string full = to_json(registry);
    EXPECT_NE(full.find("domains_per_sec"), std::string::npos);
    EXPECT_NE(full.find("scanner.phase.attempt_ms"), std::string::npos);
    EXPECT_NE(full.find("\"sum\":"), std::string::npos);
}

/// Snapshot keys (see telemetry::snapshot): counters, gauges, histograms.
std::size_t key(CounterId id) { return static_cast<std::size_t>(id); }
std::size_t key(GaugeId id) { return kCounters.size() + static_cast<std::size_t>(id); }
std::size_t key(HistogramId id) {
    return kCounters.size() + kGauges.size() + static_cast<std::size_t>(id);
}

/// Hand-written snapshot bytes: `write` fills them through a ByteWriter.
template <typename Fn>
std::string snapshot_bytes(Fn&& write) {
    std::vector<std::uint8_t> bytes;
    bytes::ByteWriter out{bytes};
    write(out);
    return {bytes.begin(), bytes.end()};
}

TEST(Export, SnapshotRoundTripsEveryInstrumentExactly) {
    MetricsRegistry registry;
    registry.counter(CounterId::scanner_connections).add(42);
    registry.gauge(GaugeId::scanner_domains_per_sec).set(123.456789012345678);
    (void)registry.gauge(GaugeId::netsim_sim_queue_depth_hwm);  // present but never set
    auto& hist = registry.histogram(HistogramId::scanner_phase_attempt_ms);
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
    EXPECT_EQ(gauge->value(), 123.456789012345678);  // IEEE bits: bit-identical
    const auto* unset = parsed->find_gauge("netsim.sim.queue_depth_hwm");
    ASSERT_NE(unset, nullptr);
    EXPECT_FALSE(unset->has_value()) << "never-set state must survive the round trip";
    const auto* parsed_hist = parsed->find_histogram("scanner.phase.attempt_ms");
    ASSERT_NE(parsed_hist, nullptr);
    EXPECT_EQ(parsed_hist->count(), 3u);
    EXPECT_EQ(parsed_hist->sum(), hist.sum());
    EXPECT_EQ(parsed_hist->min(), 0.0005);
    EXPECT_EQ(parsed_hist->max(), 1e9);
    EXPECT_TRUE(same_buckets(*parsed_hist, hist));

    // Round-tripped state must MERGE identically to the original — this is
    // what journal replay relies on (DESIGN.md §11).
    MetricsRegistry merged_original;
    merged_original.merge_from(registry);
    MetricsRegistry merged_parsed;
    merged_parsed.merge_from(*parsed);
    EXPECT_EQ(to_json(merged_original), to_json(merged_parsed));
}

TEST(Export, ParseSnapshotRejectsMalformedInput) {
    EXPECT_TRUE(parse_snapshot("").has_value()) << "an empty snapshot is an empty registry";
    EXPECT_EQ(snapshot(MetricsRegistry{}), "");
    // The old text form and other garbage.
    EXPECT_FALSE(parse_snapshot("bogus kind x 1\n").has_value());
    EXPECT_FALSE(parse_snapshot("counter scanner.redirects_followed 1\n").has_value());
    // An entry count of zero is not the writer's empty registry.
    EXPECT_FALSE(parse_snapshot(std::string(1, '\0')).has_value());
    // Bad has-value byte.
    EXPECT_FALSE(parse_snapshot(snapshot_bytes([](bytes::ByteWriter& out) {
                     out.uvarint(1);
                     out.uvarint(key(GaugeId::scanner_quic_ok_rate));
                     out.u8(2);
                     out.f64(1.5);
                 })).has_value());
    // Histogram whose bucket counts disagree with its count.
    MetricsRegistry registry;
    registry.histogram(HistogramId::quic_conn_min_rtt_ms).record(1.0);
    std::string hist = snapshot(registry);
    // The entry count, the histogram's key, then its count.
    const std::size_t count_at = 1 + bytes::varint_size(key(HistogramId::quic_conn_min_rtt_ms));
    ASSERT_EQ(hist[count_at], '\x01');
    ASSERT_TRUE(parse_snapshot(hist).has_value());
    hist[count_at] = '\x05';
    EXPECT_FALSE(parse_snapshot(hist).has_value());
}

TEST(Export, ParseSnapshotAcceptsOnlyTheWritersForm) {
    MetricsRegistry registry;
    registry.counter(CounterId::scanner_connections).add(1);
    registry.counter(CounterId::scanner_redirects_followed).add(22);
    registry.gauge(GaugeId::scanner_quic_ok_rate).set(0.25);
    (void)registry.histogram(HistogramId::scanner_phase_attempt_ms);
    const std::string bytes = snapshot(registry);
    ASSERT_TRUE(parse_snapshot(bytes).has_value());
    // The entry count covers every instrument: any proper prefix but the
    // empty one is cut inside an entry.
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        EXPECT_EQ(parse_snapshot(bytes.substr(0, n)).has_value(), n == 0) << n;
    }
    EXPECT_FALSE(parse_snapshot(bytes + '\0').has_value()) << "trailing byte";
    // Keys are distances past the previous key, so each instrument appears
    // once and in catalog order; a key past the catalog is rejected.
    const auto one_counter = [](std::uint64_t gap, std::uint64_t value) {
        return snapshot_bytes([&](bytes::ByteWriter& out) {
            out.uvarint(1);
            out.uvarint(gap);
            out.uvarint(value);
        });
    };
    EXPECT_TRUE(parse_snapshot(one_counter(key(CounterId::scanner_redirects_followed), 1)).has_value());
    EXPECT_FALSE(parse_snapshot(one_counter(key(HistogramId::scanner_phase_resolve_ms) + 1, 1))
                     .has_value());
    // Varints are minimal: 0x40 0x01 is an overlong 1.
    std::string overlong = one_counter(key(CounterId::scanner_redirects_followed), 1);
    overlong.replace(overlong.size() - 1, 1, "\x40\x01");
    EXPECT_FALSE(parse_snapshot(overlong).has_value());
    // An empty histogram is its zero count alone; a listed bucket is never empty.
    const auto one_bucket = [](std::uint64_t count, std::uint64_t bucket_count) {
        return snapshot_bytes([&](bytes::ByteWriter& out) {
            out.uvarint(1);
            out.uvarint(key(HistogramId::quic_conn_min_rtt_ms));
            out.uvarint(count);
            out.f64(1.0);
            out.f64(1.0);
            out.f64(1.0);
            out.uvarint(1);
            out.uvarint(3);
            out.uvarint(bucket_count);
        });
    };
    EXPECT_TRUE(parse_snapshot(one_bucket(1, 1)).has_value());
    EXPECT_FALSE(parse_snapshot(one_bucket(0, 0)).has_value());
    EXPECT_FALSE(parse_snapshot(one_bucket(1, 0)).has_value());
}

// --- The metric catalog ------------------------------------------------------

template <std::size_t N>
void expect_ascending_names(const std::array<MetricInfo, N>& catalog) {
    for (std::size_t i = 1; i < N; ++i) {
        EXPECT_LT(catalog[i - 1].name, catalog[i].name) << i;
    }
    // Dotted identifiers: the JSON and CSV exporters write names unescaped.
    for (const MetricInfo& m : catalog) {
        EXPECT_EQ(m.name.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789._"),
                  std::string_view::npos)
            << m.name;
    }
}

TEST(Catalog, NamesAreUniqueAndAscendingWithinEachKind) {
    expect_ascending_names(kCounters);
    expect_ascending_names(kGauges);
    expect_ascending_names(kHistograms);
    EXPECT_EQ(find_index(kCounters, "scanner.connections"),
              static_cast<std::size_t>(CounterId::scanner_connections));
    EXPECT_EQ(find_index(kCounters, "scanner.connection"), kCounters.size());
}

TEST(Catalog, EveryHistogramHasAGeometry) {
    for (const MetricInfo& m : kHistograms) {
        ASSERT_NE(m.geometry, nullptr) << m.name;
        EXPECT_TRUE(m.geometry == &kWallMs || m.geometry == &kSimMs) << m.name;
        // Phase spans time the host; everything else simulated time.
        EXPECT_EQ(m.geometry == &kWallMs, m.metric_class == MetricClass::wall_clock) << m.name;
    }
    for (const MetricInfo& m : kCounters) EXPECT_EQ(m.geometry, nullptr) << m.name;
    for (const MetricInfo& m : kGauges) EXPECT_EQ(m.geometry, nullptr) << m.name;
    EXPECT_EQ(kWallMs.bucket_count, 32u);
    EXPECT_EQ(kSimMs.bucket_count, 24u);
}

TEST(Catalog, EnumFamiliesMatchTheirEnums) {
    const auto expect_family = [](const auto& ids, std::string_view prefix, auto to_name,
                                  std::size_t first) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            EXPECT_EQ(info(ids[i]).name, std::string{prefix} + to_name(first + i)) << i;
        }
    };
    expect_family(kOutcomeCounters, "scanner.outcome.", [](std::size_t v) {
        return qlog::to_cstring(static_cast<qlog::ConnectionOutcome>(v));
    }, 0);
    EXPECT_EQ(kOutcomeCounters.size(), qlog::kConnectionOutcomeCount);
    expect_family(kServerFaultCounters, "scanner.server_fault.", [](std::size_t v) {
        return faults::to_cstring(static_cast<faults::ServerFaultMode>(v));
    }, 1);
    EXPECT_EQ(kServerFaultCounters.size() + 1, faults::kServerFaultModeCount);
    // campaign.journal.io_errors.* is indexed by util::IoErrorClass value.
    const char* const io_classes[] = {"transient", "fatal", "corrupting"};
    static_assert(static_cast<std::size_t>(util::IoErrorClass::corrupting) == 2);
    ASSERT_EQ(std::size(io_classes), kIoErrorCounters.size());
    expect_family(kIoErrorCounters, "campaign.journal.io_errors.",
                  [&io_classes](std::size_t v) { return io_classes[v]; }, 0);

    // netsim.sim.events.* is indexed by EventCategory value directly.
    const char* const categories[] = {"conn.flush", "link.delivery", "timer"};
    ASSERT_EQ(std::size(categories), netsim::kEventCategoryCount);
    for (std::size_t c = 0; c < netsim::kEventCategoryCount; ++c) {
        EXPECT_EQ(info(CounterId::netsim_sim_events_conn_flush + c).name,
                  std::string{"netsim.sim.events."} + categories[c]);
    }
}

TEST(Catalog, ParseSnapshotRejectsUnknownRepeatedAndForeignGeometry) {
    const std::size_t key_count = kCounters.size() + kGauges.size() + kHistograms.size();
    const auto counters = [](std::initializer_list<std::uint64_t> gaps) {
        return snapshot_bytes([&](bytes::ByteWriter& out) {
            out.uvarint(gaps.size());
            for (const std::uint64_t gap : gaps) {
                out.uvarint(gap);
                out.uvarint(1);
            }
        });
    };
    EXPECT_FALSE(parse_snapshot(counters({key_count})).has_value()) << "unknown key";
    // A key is a distance past the previous one: a second zero gap names the
    // next counter, never the same one again.
    const auto two = parse_snapshot(counters({key(CounterId::scanner_redirects_followed), 0}));
    ASSERT_TRUE(two.has_value());
    EXPECT_EQ(two->find(CounterId::scanner_redirects_followed)->value(), 1u);
    EXPECT_EQ(two->find(CounterId::scanner_redirects_followed + 1)->value(), 1u);
    EXPECT_EQ(two->size(), 2u);

    // Geometry is the catalog's: bucket 23 is the last of a sim-ms
    // histogram, bucket 24 exists only in the wall-ms geometry.
    const auto one_bucket = [](HistogramId id, std::uint64_t bucket) {
        return snapshot_bytes([&](bytes::ByteWriter& out) {
            out.uvarint(1);
            out.uvarint(key(id));
            out.uvarint(1);
            out.f64(1.0);
            out.f64(1.0);
            out.f64(1.0);
            out.uvarint(1);
            out.uvarint(bucket);
            out.uvarint(1);
        });
    };
    EXPECT_TRUE(parse_snapshot(one_bucket(HistogramId::quic_conn_min_rtt_ms, 23)).has_value());
    EXPECT_FALSE(parse_snapshot(one_bucket(HistogramId::quic_conn_min_rtt_ms, 24)).has_value());
    EXPECT_TRUE(parse_snapshot(one_bucket(HistogramId::scanner_phase_attempt_ms, 24)).has_value());
    EXPECT_FALSE(parse_snapshot(one_bucket(HistogramId::scanner_phase_attempt_ms, 32)).has_value());
}

TEST(Catalog, CampaignChunkSnapshotRoundTripsByteForByte) {
    const web::PopulationModel population{{200000.0, 7}};
    scanner::Campaign campaign{population, {}};
    MetricsRegistry attached;
    campaign.set_metrics(&attached);
    const std::string text = campaign.scan_chunk(0).telemetry_snapshot;
    ASSERT_FALSE(text.empty());
    const auto parsed = parse_snapshot(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(snapshot(*parsed), text);
    EXPECT_NE(parsed->find_histogram("quic.conn.min_rtt_ms"), nullptr);
}

}  // namespace
}  // namespace spinscope::telemetry
