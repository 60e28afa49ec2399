// Unit tests for the synthetic web population: determinism, calibrated
// marginals, host pools and longitudinal spin behaviour.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "web/population.hpp"

namespace spinscope::web {
namespace {

PopulationConfig small_config() { return {20000.0, 20230520}; }

/// Every domain of `model`'s universe, as one resident block.
DomainBlock all_domains(const PopulationModel& model) {
    return model.materialize(0, model.domain_count());
}

TEST(Population, DeterministicForSeed) {
    const DomainBlock a = all_domains(PopulationModel{small_config()});
    const DomainBlock b = all_domains(PopulationModel{small_config()});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto& da = a.domains[i];
        const auto& db = b.domains[i];
        ASSERT_EQ(da.org, db.org);
        ASSERT_EQ(da.quic, db.quic);
        ASSERT_EQ(da.ipv4_host, db.ipv4_host);
        ASSERT_FLOAT_EQ(da.rtt_ms(), db.rtt_ms());
    }
}

TEST(Population, DifferentSeedsDiffer) {
    const DomainBlock a = all_domains(PopulationModel{{20000.0, 1}});
    const DomainBlock b = all_domains(PopulationModel{{20000.0, 2}});
    ASSERT_EQ(a.size(), b.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.domains[i].quic != b.domains[i].quic || a.domains[i].org != b.domains[i].org) {
            ++differing;
        }
    }
    EXPECT_GT(differing, a.size() / 100);
}

TEST(Population, SegmentCountsScale) {
    const PopulationModel pop{small_config()};
    const DomainBlock universe = all_domains(pop);
    std::map<Segment, std::size_t> counts;
    for (const auto& d : universe.domains) ++counts[d.segment()];
    // 183.0M / 20000 ~ 9152, (216.5-183.0)M / 20000 ~ 1673.
    EXPECT_NEAR(static_cast<double>(counts[Segment::czds_cno]), 9152.0, 5.0);
    EXPECT_NEAR(static_cast<double>(counts[Segment::czds_other]), 1673.0, 5.0);
    EXPECT_GT(counts[Segment::toplist_extra], 30u);
}

TEST(Population, ResolveAndQuicRatesMatchShape) {
    const PopulationModel pop{{2000.0, 7}};
    const DomainBlock universe = all_domains(pop);
    std::size_t cno_total = 0;
    std::size_t cno_resolved = 0;
    std::size_t cno_quic = 0;
    for (const auto& d : universe.domains) {
        if (d.segment() != Segment::czds_cno || d.on_toplist) continue;
        ++cno_total;
        if (d.resolves) ++cno_resolved;
        if (d.quic) ++cno_quic;
    }
    const auto& shape = pop.shape();
    EXPECT_NEAR(static_cast<double>(cno_resolved) / cno_total, shape.resolve_cno, 0.01);
    EXPECT_NEAR(static_cast<double>(cno_quic) / cno_resolved, shape.quic_cno, 0.01);
}

TEST(Population, QuicImpliesResolves) {
    const PopulationModel pop{small_config()};
    const DomainBlock universe = all_domains(pop);
    for (const auto& d : universe.domains) {
        if (d.quic) {
            ASSERT_TRUE(d.resolves);
        }
    }
}

TEST(Population, OrgWeightsRoughlyRespected) {
    const PopulationModel pop{{2000.0, 9}};
    const DomainBlock universe = all_domains(pop);
    std::map<std::string, std::size_t> quic_by_org;
    std::size_t quic_total = 0;
    for (const auto& d : universe.domains) {
        if (d.segment() != Segment::czds_cno || !d.quic || d.on_toplist) continue;
        ++quic_by_org[pop.org_of(d).name];
        ++quic_total;
    }
    ASSERT_GT(quic_total, 1000u);
    EXPECT_NEAR(static_cast<double>(quic_by_org["Cloudflare"]) / quic_total, 0.504, 0.03);
    EXPECT_NEAR(static_cast<double>(quic_by_org["Google"]) / quic_total, 0.270, 0.03);
    EXPECT_NEAR(static_cast<double>(quic_by_org["Hostinger"]) / quic_total, 0.068, 0.015);
}

TEST(Population, HostIndicesWithinPool) {
    const PopulationModel pop{small_config()};
    const DomainBlock universe = all_domains(pop);
    for (const auto& d : universe.domains) {
        if (!d.resolves) continue;
        ASSERT_LT(d.ipv4_host, pop.ipv4_pool(d.org));
        ASSERT_LT(d.ipv6_host, pop.ipv6_pool(d.org));
    }
}

TEST(Population, SharedHostingDensity) {
    const PopulationModel pop{{2000.0, 11}};
    const DomainBlock universe = all_domains(pop);
    // Cloudflare serves many domains per IP, small hosters far fewer.
    std::map<std::uint64_t, std::size_t> per_host;
    std::size_t cloudflare_domains = 0;
    for (const auto& d : universe.domains) {
        if (!d.quic) continue;
        if (pop.org_of(d).name != "Cloudflare") continue;
        ++per_host[pop.host_key(d, false)];
        ++cloudflare_domains;
    }
    ASSERT_GT(cloudflare_domains, 100u);
    const double density =
        static_cast<double>(cloudflare_domains) / static_cast<double>(per_host.size());
    EXPECT_GT(density, 50.0);
}

TEST(Population, HostKeyDistinguishesFamiliesAndOrgs) {
    const PopulationModel pop{small_config()};
    const DomainBlock universe = all_domains(pop);
    const Domain* a = nullptr;
    for (const auto& d : universe.domains) {
        if (d.resolves) {
            a = &d;
            break;
        }
    }
    ASSERT_NE(a, nullptr);
    EXPECT_NE(pop.host_key(*a, false), pop.host_key(*a, true));
}

TEST(Population, RttsAreSane) {
    const PopulationModel pop{small_config()};
    const DomainBlock universe = all_domains(pop);
    for (const auto& d : universe.domains) {
        if (!d.resolves) continue;
        ASSERT_GE(d.rtt_ms(), 0.8F);
        ASSERT_LE(d.rtt_ms(), 400.0F);
    }
}

TEST(Population, HyperscalersNeverSpin) {
    const PopulationModel pop{{2000.0, 13}};
    const DomainBlock universe = all_domains(pop);
    for (const auto& d : universe.domains) {
        if (!d.quic) continue;
        const auto& org = pop.org_of(d);
        if (org.name == "Cloudflare" || org.name == "Fastly") {
            for (int week : {0, 20, 57}) {
                ASSERT_FALSE(pop.host_spins(d, week, false));
                ASSERT_FALSE(pop.host_spins(d, week, true));
            }
        }
    }
}

TEST(Population, SpinEnableRateTracksProfile) {
    const PopulationModel pop{{1000.0, 20230520}};
    const DomainBlock universe = all_domains(pop);
    std::size_t hostinger = 0;
    std::size_t enabled = 0;
    for (const auto& d : universe.domains) {
        if (!d.quic || pop.org_of(d).name != "Hostinger") continue;
        ++hostinger;
        if (pop.host_spins(d, 57, false)) ++enabled;
    }
    ASSERT_GT(hostinger, 500u);
    const double rate = pop.orgs()[2].spin_host_rate;  // Hostinger profile
    EXPECT_EQ(pop.orgs()[2].name, "Hostinger");
    EXPECT_NEAR(static_cast<double>(enabled) / hostinger, rate, 0.10);
}

TEST(Population, StableHostsKeepStateAcrossWeeks) {
    const PopulationModel pop{{4000.0, 3}};
    const DomainBlock universe = all_domains(pop);
    // With churn, week-to-week flips happen but most states persist.
    std::size_t transitions = 0;
    std::size_t observations = 0;
    for (const auto& d : universe.domains) {
        if (!d.quic || pop.org_of(d).spin_host_rate <= 0.0) continue;
        bool last = pop.host_spins(d, 0, false);
        for (int week = 1; week < 10; ++week) {
            const bool now = pop.host_spins(d, week, false);
            ++observations;
            if (now != last) ++transitions;
            last = now;
        }
    }
    ASSERT_GT(observations, 1000u);
    EXPECT_LT(static_cast<double>(transitions) / observations, 0.25);
    EXPECT_GT(transitions, 0u);
}

TEST(Population, HostSpinsDeterministicPerWeek) {
    const PopulationModel pop{{4000.0, 5}};
    const DomainBlock universe = all_domains(pop);
    for (const auto& d : universe.domains) {
        if (!d.quic) continue;
        for (int week : {0, 3, 57}) {
            ASSERT_EQ(pop.host_spins(d, week, false), pop.host_spins(d, week, false));
        }
    }
}

TEST(Population, DisabledPolicyMostlyZero) {
    const PopulationModel pop{{2000.0, 17}};
    const DomainBlock universe = all_domains(pop);
    std::map<quic::SpinPolicy, std::size_t> counts;
    std::size_t total = 0;
    for (const auto& d : universe.domains) {
        if (!d.quic) continue;
        ++counts[pop.host_disabled_policy(d, false)];
        ++total;
    }
    ASSERT_GT(total, 5000u);
    EXPECT_GT(static_cast<double>(counts[quic::SpinPolicy::always_zero]) / total, 0.99);
    EXPECT_GT(counts[quic::SpinPolicy::always_one], 0u);
    EXPECT_LT(static_cast<double>(counts[quic::SpinPolicy::always_one]) / total, 0.01);
}

TEST(Population, NamesAndAddressesWellFormed) {
    const PopulationModel pop{small_config()};
    const Domain d = pop.domain(0);
    const auto name = pop.domain_name(d);
    EXPECT_EQ(name.find("d0"), 0u);
    EXPECT_NE(name.find('.'), std::string::npos);
    const auto v4 = pop.host_address(d, false);
    EXPECT_EQ(v4.find("10."), 0u);
    const auto v6 = pop.host_address(d, true);
    EXPECT_EQ(v6.find("fd00:"), 0u);
}

TEST(Population, NamesAndAddressesKeepTheirPrintfFormat) {
    // Pinned against the printf formats the names and addresses were first
    // written with, over edge ids, org numbers and host bytes.
    const PopulationModel pop{small_config()};
    char want[64];
    const std::uint32_t ids[] = {0, 7, 9'999'999, 10'000'000, 123'456'789, 0xffffffffu};
    for (const std::uint32_t id : ids) {
        for (std::uint32_t segment = 0; segment < 3; ++segment) {
            Domain d;
            d.id = id;
            d.segment_raw = segment;
            const std::string name = pop.domain_name(d);
            std::snprintf(want, sizeof want, "d%07u.", id);
            EXPECT_EQ(name.rfind(want, 0), 0u) << name;
        }
    }
    Domain edge;
    edge.id = 42;
    EXPECT_EQ(pop.domain_name(edge), "d0000042.com");

    const std::uint16_t orgs[] = {0, 1, 254, 255, 256, 0xfffe, 0xffff};
    const std::uint32_t hosts[] = {0, 1, 0xff, 0x100, 0xffff, 0x10000, 0xabcdef, 0xfffffff};
    for (const std::uint16_t org : orgs) {
        for (const std::uint32_t host : hosts) {
            Domain d;
            d.org = org;
            d.ipv4_host = host;
            d.ipv6_host = host;
            std::snprintf(want, sizeof want, "10.%u.%u.%u", (org + 1u) & 0xff,
                          (host >> 8) & 0xff, host & 0xff);
            EXPECT_EQ(pop.host_address(d, false), want);
            std::snprintf(want, sizeof want, "fd00:%x::%x:%x", org + 1u, host >> 16,
                          host & 0xffff);
            EXPECT_EQ(pop.host_address(d, true), want);
        }
    }
    edge.org = 0xffff;
    edge.ipv4_host = 0x1234;
    edge.ipv6_host = 0xfffffff;
    EXPECT_EQ(pop.host_address(edge, false), "10.0.18.52");
    EXPECT_EQ(pop.host_address(edge, true), "fd00:10000::fff:ffff");
}

TEST(Population, StacksCoverProfiles) {
    const PopulationModel pop{small_config()};
    ASSERT_EQ(pop.stacks().size(), kStackCount);
    for (const auto& org : pop.orgs()) {
        ASSERT_LT(org.stack, pop.stacks().size());
    }
    EXPECT_EQ(pop.stacks()[kStackLiteSpeed].name, "LiteSpeed");
    // LiteSpeed-family stacks participate in spinning when enabled.
    EXPECT_EQ(pop.stacks()[kStackLiteSpeed].spin_enabled.policy, quic::SpinPolicy::spin);
    EXPECT_EQ(pop.stacks()[kStackLiteSpeed].spin_enabled.lottery_one_in, 16u);
}

TEST(Population, ToplistFlagPlacement) {
    const PopulationModel pop{{2000.0, 19}};
    const DomainBlock universe = all_domains(pop);
    std::size_t toplist = 0;
    std::size_t extra = 0;
    for (const auto& d : universe.domains) {
        if (d.on_toplist) ++toplist;
        if (d.segment() == Segment::toplist_extra) {
            ++extra;
            ASSERT_TRUE(d.on_toplist);
        }
    }
    // ~2.73M/2000 total toplist entries, 30 % outside CZDS.
    EXPECT_NEAR(static_cast<double>(toplist), 2732702.0 / 2000.0, 120.0);
    EXPECT_NEAR(static_cast<double>(extra), 0.3 * 2732702.0 / 2000.0, 40.0);
}

bool same_bytes(const Domain& a, const Domain& b) {
    return std::memcmp(&a, &b, sizeof(Domain)) == 0;
}

TEST(DomainPacking, StaysWithinSixteenBytes) {
    // The header static_asserts <= 16; the layout leaves no padding either.
    EXPECT_EQ(sizeof(Domain), 16u);
}

TEST(DomainPacking, FieldsRoundTripAtTheirExtremes) {
    Domain d;
    d.id = 0xFFFFFFFFU;
    d.org = 0xFFFFU;
    d.ipv4_host = (1U << 28) - 1;
    d.ipv6_host = (1U << 28) - 1;
    d.resolves = 1;
    d.quic = 1;
    d.on_toplist = 1;
    d.has_ipv6 = 1;
    d.redirects = 1;
    d.set_segment(Segment::toplist_extra);
    d.set_rtt_ms(400.0);
    EXPECT_EQ(d.id, 0xFFFFFFFFU);
    EXPECT_EQ(d.org, 0xFFFFU);
    EXPECT_EQ(d.ipv4_host, (1U << 28) - 1);
    EXPECT_EQ(d.ipv6_host, (1U << 28) - 1);
    EXPECT_EQ(d.segment(), Segment::toplist_extra);
    EXPECT_FLOAT_EQ(d.rtt_ms(), 400.0F);
    EXPECT_TRUE(d.resolves && d.quic && d.on_toplist && d.has_ipv6 && d.redirects);
    // Clearing one bitfield must not disturb its neighbours.
    d.quic = 0;
    EXPECT_TRUE(d.resolves);
    EXPECT_EQ(d.ipv4_host, (1U << 28) - 1);
    EXPECT_EQ(d.segment(), Segment::toplist_extra);
    // RTT quantization: tenths of a millisecond, round-to-nearest.
    d.set_rtt_ms(12.34);
    EXPECT_FLOAT_EQ(d.rtt_ms(), 12.3F);
    d.set_rtt_ms(0.8);
    EXPECT_FLOAT_EQ(d.rtt_ms(), 0.8F);
}

TEST(PopulationModel, EagerAndStreamingAreByteIdentical) {
    // The §15 golden sweep: one materialize(0, n) block and chunked
    // streaming must produce the same bytes at every test scale, for awkward
    // chunk sizes.
    for (const double scale : {20000.0, 6000.0, 2000.0}) {
        const PopulationModel model{{scale, 20230520}};
        const DomainBlock eager = all_domains(model);
        ASSERT_EQ(eager.size(), model.domain_count());
        for (const std::size_t chunk_domains :
             {std::size_t{1}, std::size_t{97}, std::size_t{1024}}) {
            std::size_t checked = 0;
            for (std::size_t chunk = 0;; ++chunk) {
                const DomainBlock block = model.materialize_chunk(chunk, chunk_domains);
                if (block.size() == 0) break;
                ASSERT_EQ(block.begin, chunk * chunk_domains);
                for (std::size_t i = 0; i < block.size(); ++i) {
                    ASSERT_TRUE(same_bytes(block.domains[i], eager.domains[block.begin + i]))
                        << "scale " << scale << " chunk_domains " << chunk_domains
                        << " id " << block.begin + i;
                }
                checked += block.size();
            }
            ASSERT_EQ(checked, model.domain_count());
        }
    }
}

TEST(PopulationModel, RejectsAScaleThatIsNotFiniteAndPositive) {
    // The geometry divides by the scale: 0 once cast infinity to a size.
    for (const double scale : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW((PopulationModel{{scale, 20230520}}), std::invalid_argument) << scale;
    }
}

TEST(PopulationModel, RejectsAScaleWhoseDomainCountOverflowsTheIds) {
    // Domain ids are std::uint32_t. 0.01 would mean 21.7 G domains; 1e-300
    // once overflowed the size cast in the geometry. Neither model is built.
    for (const double scale : {0.01, 1e-300}) {
        EXPECT_FALSE(PopulationModel::valid_scale(scale)) << scale;
        EXPECT_THROW((PopulationModel{{scale, 20230520}}), std::invalid_argument) << scale;
    }
    EXPECT_TRUE(PopulationModel::valid_scale(1.0));  // the paper's full universe
}

TEST(PopulationModel, MaterializeIsChunkAndOrderIndependent) {
    // ~10k randomized cases of the purity contract: materialize(begin, end)
    // must not depend on chunk size, on the order ranges are asked for, or
    // on what else was materialized in between.
    const PopulationConfig config{20000.0, 20230520};
    const PopulationModel model{config};
    const PopulationModel other{{2000.0, 7}};  // interleaved foreign universe
    const std::size_t count = model.domain_count();
    const DomainBlock reference = model.materialize(0, count);
    ASSERT_EQ(reference.size(), count);

    util::Rng rng{0x5eedU};
    for (int tc = 0; tc < 10000; ++tc) {
        const auto begin = static_cast<std::size_t>(rng.uniform_u64(count));
        const auto len = static_cast<std::size_t>(1 + rng.uniform_u64(64));
        const auto end = std::min(begin + len, count);
        // Interleave unrelated materializations: a different range of this
        // model and a chunk of a differently-scaled one.
        if (tc % 7 == 0) {
            (void)model.materialize_chunk(rng.uniform_u64(64), 16);
            (void)other.materialize_chunk(rng.uniform_u64(64), 16);
        }
        const DomainBlock block = model.materialize(begin, end);
        ASSERT_EQ(block.begin, begin);
        ASSERT_EQ(block.size(), end - begin);
        for (std::size_t i = 0; i < block.size(); ++i) {
            ASSERT_TRUE(same_bytes(block.domains[i], reference.domains[begin + i]))
                << "case " << tc << " id " << begin + i;
        }
        // Single-domain regeneration agrees with the block too.
        const auto probe = static_cast<std::uint32_t>(begin);
        ASSERT_TRUE(same_bytes(model.domain(probe), reference.domains[begin]));
    }
}

}  // namespace
}  // namespace spinscope::web
