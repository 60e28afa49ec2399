// perfbench/tests/test_harness.cpp
//
// Self-tests of the benchmark harness: the percentile rule, span self-time
// and coverage arithmetic, and seed determinism of the generated inputs.
// Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "web/population.hpp"

namespace {

using perfbench::Span;

Span span(const char* name, std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

TEST(Percentile, HighestSupportedNeedsTenSamplesBeyond) {
    EXPECT_FALSE(perfbench::highest_supported_percentile(0).has_value());
    EXPECT_FALSE(perfbench::highest_supported_percentile(19).has_value());
    EXPECT_EQ(perfbench::highest_supported_percentile(20), 5000u);
    EXPECT_EQ(perfbench::highest_supported_percentile(99), 7500u);
    EXPECT_EQ(perfbench::highest_supported_percentile(100), 9000u);
    EXPECT_EQ(perfbench::highest_supported_percentile(200), 9500u);
    EXPECT_EQ(perfbench::highest_supported_percentile(999), 9500u);
    EXPECT_EQ(perfbench::highest_supported_percentile(1000), 9900u);
    EXPECT_EQ(perfbench::highest_supported_percentile(9999), 9900u);
    EXPECT_EQ(perfbench::highest_supported_percentile(10000), 9990u);
    EXPECT_EQ(perfbench::highest_supported_percentile(100000), 9999u);
}

TEST(Percentile, SamplesBeyondIsExact) {
    EXPECT_EQ(perfbench::samples_beyond(1000, 9900), 10u);
    EXPECT_EQ(perfbench::samples_beyond(1001, 9900), 10u);
    EXPECT_EQ(perfbench::samples_beyond(999, 9900), 9u);
    EXPECT_EQ(perfbench::samples_beyond(1, 5000), 0u);
}

TEST(Percentile, NearestRank) {
    std::vector<double> values;
    for (int i = 100; i >= 1; --i) values.push_back(i);
    EXPECT_DOUBLE_EQ(perfbench::percentile(values, 5000), 50.0);
    EXPECT_DOUBLE_EQ(perfbench::percentile(values, 9900), 99.0);
    EXPECT_DOUBLE_EQ(perfbench::percentile(values, 10000), 100.0);
    EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
    std::vector<double> empty;
    EXPECT_DOUBLE_EQ(perfbench::percentile(empty, 5000), 0.0);
}

TEST(Ledger, CoveredCountsOverlapOnceAndClips) {
    EXPECT_EQ(perfbench::covered_ns({{10, 40}, {30, 60}, {90, 120}}, 0, 100), 60);
    EXPECT_EQ(perfbench::covered_ns({{0, 10}, {0, 10}}, 0, 100), 10);
    EXPECT_EQ(perfbench::covered_ns({{-5, 5}}, 0, 100), 5);
    EXPECT_EQ(perfbench::covered_ns({}, 0, 100), 0);
}

TEST(Ledger, SelfTimeSubtractsDirectChildrenOnly) {
    // root [0,100): children a [10,40) and b [30,60) overlap (two threads),
    // c [90,120) outlives the root; a has a grandchild g [15,25).
    const std::vector<Span> spans = {
        span("harness.root", 1, 0, 0, 100), span("a", 2, 1, 10, 40), span("g", 5, 2, 15, 25),
        span("b", 3, 1, 30, 60),            span("c", 4, 1, 90, 120),
    };
    const std::vector<std::int64_t> self = perfbench::self_times(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_EQ(self[0], 100 - 60);  // [10,60) and [90,100) covered
    EXPECT_EQ(self[1], 30 - 10);   // a minus g
    EXPECT_EQ(self[2], 10);        // leaf
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 30);

    const auto totals = perfbench::layer_totals(spans);
    EXPECT_EQ(totals.at("a").self_ns, 20);
    EXPECT_EQ(totals.at("harness.root").total_ns, 100);
}

TEST(Ledger, CoverageCountsLayerSpansOnly) {
    const std::vector<Span> spans = {
        span("harness.root", 1, 0, 0, 100),
        span("harness.map", 2, 1, 0, 100),
        span("scanner.scan_chunk", 3, 2, 0, 45),
        span("journal.publish", 4, 2, 40, 50),
    };
    EXPECT_DOUBLE_EQ(perfbench::span_coverage(spans, 0, 100), 0.5);
}

TEST(Ledger, TracerRecordsParentsAndDisabledTracerNothing) {
    perfbench::Tracer tracer{true};
    perfbench::Tracer::Lane& lane = tracer.lane();
    {
        auto root = lane.span("harness.root", 0);
        auto child = lane.span("child", root.id(), 7);
        EXPECT_NE(child.id(), root.id());
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    const Span& root = spans[0].parent == 0 ? spans[0] : spans[1];
    const Span& child = spans[0].parent == 0 ? spans[1] : spans[0];
    EXPECT_EQ(child.parent, root.id);
    EXPECT_EQ(child.chunk, 7);
    EXPECT_LE(root.start_ns, child.start_ns);
    EXPECT_GE(root.end_ns, child.end_ns);

    perfbench::Tracer off{false};
    {
        auto s = off.lane().span("x", 0);
        EXPECT_EQ(s.id(), 0u);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Inputs, SameSeedSameUniverseOtherSeedOtherUniverse) {
    const spinscope::web::PopulationModel a{perfbench::universe_config(7)};
    const spinscope::web::PopulationModel b{perfbench::universe_config(7)};
    const spinscope::web::PopulationModel c{perfbench::universe_config(8)};
    EXPECT_EQ(a.domain_count(), b.domain_count());
    EXPECT_EQ(perfbench::universe_digest(a), perfbench::universe_digest(b));
    EXPECT_NE(perfbench::universe_digest(a), perfbench::universe_digest(c));
    EXPECT_EQ(perfbench::sweep_options(7, "").seed, perfbench::sweep_options(7, "").seed);
    EXPECT_NE(perfbench::sweep_options(7, "").seed, perfbench::sweep_options(8, "").seed);
}

TEST(Inputs, SameSeedSameFlowsOtherSeedOtherFlows) {
    const auto w7 = perfbench::wire_seed(7);
    EXPECT_EQ(perfbench::wire_digest(w7, 512), perfbench::wire_digest(w7, 512));
    EXPECT_NE(perfbench::wire_digest(w7, 512), perfbench::wire_digest(perfbench::wire_seed(8), 512));
}

TEST(Inputs, CohortVisitsEveryMemberOncePerRound) {
    std::vector<int> seen(perfbench::kCohortFlows, 0);
    for (std::uint64_t j = 0; j < perfbench::kCohortFlows; ++j) {
        ++seen[perfbench::cohort_member(j, 3)];
    }
    for (const int n : seen) EXPECT_EQ(n, 1);
}

}  // namespace
