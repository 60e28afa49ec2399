#include "web/population.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string_view>

namespace spinscope::web {

namespace {

using util::DelayComponent;
using util::DelayMixture;
using util::Rng;

/// Salt separating the domain-generation sub-streams from the scanner's
/// per-domain attempt streams (which key derive_stream_seed on the same
/// campaign seed and domain id).
constexpr std::uint64_t kDomainStreamSalt = 0xd0a1'b10cULL;

/// Host indices are bitfield-packed into 28 bits; pools are clamped so a
/// draw can never overflow the field (2^28 ≈ 268 M hosts per org/family,
/// comfortably above the 1:1-scale pools).
constexpr std::uint64_t kMaxPool = (1ULL << 28) - 1;

/// Deterministic per-entity uniform draw in [0,1): hash of (seed, a, b, c).
[[nodiscard]] double hashed_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                                    std::uint64_t c) {
    std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xbf58476d1ce4e5b9ULL) ^
                          (c * 0x94d049bb133111ebULL);
    const std::uint64_t x = util::splitmix64_next(state);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

[[nodiscard]] DelayMixture shared_hosting_header_delay() {
    // LiteSpeed-style shared hosting: a fast static tier, a moderate
    // CMS tier and a slow dynamic tier (database-bound WordPress et al.).
    return DelayMixture{{
        DelayComponent{0.45, std::log(4.0), 0.6, 1.0},
        DelayComponent{0.35, std::log(60.0), 0.8, 15.0},
        DelayComponent{0.20, std::log(350.0), 0.7, 80.0},
    }};
}

[[nodiscard]] DelayMixture shared_hosting_body_delay() {
    return DelayMixture{{
        DelayComponent{0.30, std::log(3.0), 0.6, 0.5},
        DelayComponent{0.35, std::log(120.0), 0.8, 30.0},
        DelayComponent{0.35, std::log(500.0), 0.8, 150.0},
    }};
}

[[nodiscard]] DelayMixture fast_static_delay() {
    return DelayMixture{{
        DelayComponent{0.90, std::log(2.0), 0.5, 0.3},
        DelayComponent{0.10, std::log(15.0), 0.6, 2.0},
    }};
}

[[nodiscard]] DelayMixture edge_cache_delay() {
    return DelayMixture{{
        DelayComponent{1.0, std::log(1.0), 0.5, 0.2},
    }};
}

}  // namespace

bool PopulationModel::valid_scale(double scale) noexcept {
    // compute_geometry divides the universe by the scale and casts the
    // quotients to sizes; their sum is the domain count.
    const UniverseShape shape;
    const double domains =
        (shape.czds_domains + shape.toplist_domains * shape.toplist_outside_czds) / scale;
    return std::isfinite(scale) && scale > 0.0 &&
           domains <= static_cast<double>(std::numeric_limits<std::uint32_t>::max());
}

PopulationModel::PopulationModel(const PopulationConfig& config) : config_{config} {
    if (!valid_scale(config.scale)) {
        throw std::invalid_argument(
            "web: PopulationConfig.scale must be finite, > 0 and leave at most 2^32 - 1 "
            "domains");
    }
    build_profiles();
    compute_geometry();
}

void PopulationModel::build_profiles() {
    stacks_.resize(kStackCount);

    auto& litespeed = stacks_[kStackLiteSpeed];
    litespeed.name = "LiteSpeed";
    litespeed.spin_enabled = quic::SpinConfig{quic::SpinPolicy::spin, 16,
                                              quic::SpinPolicy::always_zero};
    litespeed.disabled_mode = quic::SpinPolicy::always_zero;
    litespeed.header_delay = shared_hosting_header_delay();
    litespeed.body_delay = shared_hosting_body_delay();
    litespeed.body_log_mu = std::log(26000.0);
    litespeed.body_log_sigma = 1.1;
    litespeed.chunked_body_rate = 0.85;

    auto& imunify = stacks_[kStackImunify];
    imunify = litespeed;  // imunify360-webshield builds on LiteSpeed (§4.2)
    imunify.name = "imunify360-webshield";
    imunify.chunked_body_rate = 0.88;

    auto& nginx = stacks_[kStackNginxQuic];
    nginx.name = "nginx-quic";
    nginx.spin_enabled = quic::SpinConfig{quic::SpinPolicy::spin, 16,
                                          quic::SpinPolicy::always_zero};
    nginx.disabled_mode = quic::SpinPolicy::always_zero;
    nginx.header_delay = fast_static_delay();
    nginx.body_delay = fast_static_delay();
    nginx.body_log_mu = std::log(15000.0);
    nginx.body_log_sigma = 1.0;
    nginx.chunked_body_rate = 0.2;

    auto& caddy = stacks_[kStackCaddy];
    caddy = nginx;
    caddy.name = "Caddy";

    auto& edge_a = stacks_[kStackCdnEdgeA];
    edge_a.name = "cloudflare-edge";
    edge_a.spin_enabled = quic::SpinConfig{quic::SpinPolicy::spin, 16,
                                           quic::SpinPolicy::always_zero};
    edge_a.disabled_mode = quic::SpinPolicy::always_zero;
    edge_a.header_delay = edge_cache_delay();
    edge_a.body_delay = edge_cache_delay();
    edge_a.body_log_mu = std::log(30000.0);
    edge_a.body_log_sigma = 1.0;
    edge_a.chunked_body_rate = 0.15;

    auto& edge_b = stacks_[kStackCdnEdgeB];
    edge_b = edge_a;
    edge_b.name = "gws-quic";

    auto& edge_c = stacks_[kStackCdnEdgeC];
    edge_c = edge_a;
    edge_c.name = "fastly-edge";

    // --- organizations ------------------------------------------------------
    // Weights are the Table 2 connection shares (com/net/org, IPv4, CW 20):
    // Cloudflare 50.4 %, Google 27.0 %, Hostinger 6.8 %, Fastly 1.4 %, OVH /
    // A2 / SingleHop / ServerCentral ~1 % each, <other> 11.1 %. Spin host
    // rates are the per-connection spin shares divided by the expected
    // lottery pass rate (15/16) and edge-visibility (~0.97).
    auto add = [this](OrgProfile profile) { orgs_.push_back(std::move(profile)); };

    add({.name = "Cloudflare", .asn = 13335, .weight_cno = 0.5038, .weight_other = 0.60,
         .weight_toplist = 0.49, .stack = kStackCdnEdgeA, .spin_host_rate = 0.0,
         .domains_per_ipv4 = 400.0, .ipv6_rate = 0.5, .domains_per_ipv6 = 150.0,
         .spin_host_rate_v6 = 0.0, .rtt_log_mu = std::log(8.0), .rtt_log_sigma = 0.45,
         .redirect_rate = 0.12, .spin_stable_fraction = 1.0, .spin_weekly_persistence = 1.0});

    add({.name = "Google", .asn = 15169, .weight_cno = 0.2703, .weight_other = 0.24,
         .weight_toplist = 0.27, .stack = kStackCdnEdgeB, .spin_host_rate = 0.0015,
         .domains_per_ipv4 = 100.0, .ipv6_rate = 0.55, .domains_per_ipv6 = 80.0,
         .spin_host_rate_v6 = 0.0012, .rtt_log_mu = std::log(7.0), .rtt_log_sigma = 0.4,
         .redirect_rate = 0.18, .spin_stable_fraction = 1.0, .spin_weekly_persistence = 1.0});

    add({.name = "Hostinger", .asn = 47583, .weight_cno = 0.0679, .weight_other = 0.010,
         .weight_toplist = 0.040, .stack = kStackLiteSpeed, .spin_host_rate = 0.630,
         .domains_per_ipv4 = 30.0, .ipv6_rate = 0.65, .domains_per_ipv6 = 1.0,
         .spin_host_rate_v6 = 0.84, .rtt_log_mu = std::log(34.0), .rtt_log_sigma = 0.80,
         .redirect_rate = 0.20, .spin_stable_fraction = 0.62,
         .spin_weekly_persistence = 0.85});

    add({.name = "Fastly", .asn = 54113, .weight_cno = 0.0143, .weight_other = 0.030,
         .weight_toplist = 0.060, .stack = kStackCdnEdgeC, .spin_host_rate = 0.0,
         .domains_per_ipv4 = 60.0, .ipv6_rate = 0.5, .domains_per_ipv6 = 60.0,
         .spin_host_rate_v6 = 0.0, .rtt_log_mu = std::log(9.0), .rtt_log_sigma = 0.45,
         .redirect_rate = 0.12, .spin_stable_fraction = 1.0, .spin_weekly_persistence = 1.0});

    add({.name = "OVH SAS", .asn = 16276, .weight_cno = 0.00962, .weight_other = 0.004,
         .weight_toplist = 0.012, .stack = kStackLiteSpeed, .spin_host_rate = 0.790,
         .domains_per_ipv4 = 7.0, .ipv6_rate = 0.20, .domains_per_ipv6 = 1.0,
         .spin_host_rate_v6 = 0.70, .rtt_log_mu = std::log(15.0), .rtt_log_sigma = 0.4,
         .redirect_rate = 0.18, .spin_stable_fraction = 0.60,
         .spin_weekly_persistence = 0.85});

    add({.name = "A2 Hosting", .asn = 55293, .weight_cno = 0.00957, .weight_other = 0.004,
         .weight_toplist = 0.008, .stack = kStackLiteSpeed, .spin_host_rate = 0.730,
         .domains_per_ipv4 = 8.0, .ipv6_rate = 0.15, .domains_per_ipv6 = 1.0,
         .spin_host_rate_v6 = 0.70, .rtt_log_mu = std::log(105.0), .rtt_log_sigma = 0.25,
         .redirect_rate = 0.20, .spin_stable_fraction = 0.60,
         .spin_weekly_persistence = 0.85});

    add({.name = "SingleHop", .asn = 32475, .weight_cno = 0.00761, .weight_other = 0.002,
         .weight_toplist = 0.004, .stack = kStackImunify, .spin_host_rate = 0.830,
         .domains_per_ipv4 = 9.0, .ipv6_rate = 0.12, .domains_per_ipv6 = 1.0,
         .spin_host_rate_v6 = 0.70, .rtt_log_mu = std::log(110.0), .rtt_log_sigma = 0.25,
         .redirect_rate = 0.20, .spin_stable_fraction = 0.58,
         .spin_weekly_persistence = 0.85});

    add({.name = "Server Central", .asn = 23352, .weight_cno = 0.00652,
         .weight_other = 0.002, .weight_toplist = 0.004, .stack = kStackImunify,
         .spin_host_rate = 0.930, .domains_per_ipv4 = 9.0, .ipv6_rate = 0.12,
         .domains_per_ipv6 = 1.0, .spin_host_rate_v6 = 0.75,
         .rtt_log_mu = std::log(100.0), .rtt_log_sigma = 0.25, .redirect_rate = 0.20,
         .spin_stable_fraction = 0.62, .spin_weekly_persistence = 0.85});

    // <other>: a broad base of ~20 small-to-medium hosters, together 11.1 %
    // of com/net/org connections with ~53 % average spin activity (§4.2
    // "there is a broad base of support"). Individually each stays below
    // ServerCentral so the paper's top-8 ranking is preserved.
    struct Small {
        const char* name;
        std::uint32_t asn;
        double spin;
        double rtt_mu;
        std::size_t stack;
    };
    const Small named_smalls[] = {
        {"Contabo", 51167, 0.62, std::log(14.0), kStackLiteSpeed},
        {"Hetzner", 24940, 0.57, std::log(12.0), kStackLiteSpeed},
        {"IONOS", 8560, 0.50, std::log(18.0), kStackLiteSpeed},
        {"DreamHost", 26347, 0.69, std::log(115.0), kStackLiteSpeed},
        {"Namecheap", 22612, 0.76, std::log(95.0), kStackImunify},
        {"WebhostPool", 64500, 0.67, std::log(55.0), kStackNginxQuic},
    };
    // Total <other> weights per segment, spread over 20 orgs.
    constexpr double kOtherCno = 0.1106;
    constexpr double kOtherOther = 0.0816;
    constexpr double kOtherTop = 0.062;
    constexpr std::size_t kSmallCount = 20;
    std::uint64_t synth_seed = config_.seed ^ 0x51a11ULL;
    for (std::size_t i = 0; i < kSmallCount; ++i) {
        Small s;
        char name_buf[32];
        if (i < std::size(named_smalls)) {
            s = named_smalls[i];
        } else {
            std::snprintf(name_buf, sizeof name_buf, "SmallHoster-%02zu", i - 5);
            const double u1 = static_cast<double>(util::splitmix64_next(synth_seed) >> 11) *
                              0x1.0p-53;
            const double u2 = static_cast<double>(util::splitmix64_next(synth_seed) >> 11) *
                              0x1.0p-53;
            s.name = name_buf;
            s.asn = static_cast<std::uint32_t>(64600 + i);
            s.spin = 0.44 + 0.22 * u1;  // 0.44 .. 0.66 before the path factor
            s.rtt_mu = std::log(14.0 + 170.0 * u2);  // EU-near to US/Asia-far
            // Longer paths see fewer spin periods per connection, so a far
            // host needs a higher enable rate for the same observed share.
            if (s.rtt_mu > std::log(60.0)) s.spin = std::min(0.95, s.spin * 1.25);
            s.stack = i % 5 == 4 ? kStackImunify : kStackLiteSpeed;
        }
        add({.name = s.name, .asn = s.asn, .weight_cno = kOtherCno / kSmallCount,
             .weight_other = kOtherOther / kSmallCount,
             .weight_toplist = kOtherTop / kSmallCount, .stack = s.stack,
             .spin_host_rate = s.spin, .domains_per_ipv4 = 30.0, .ipv6_rate = 0.10,
             .domains_per_ipv6 = 1.0, .spin_host_rate_v6 = 0.45, .rtt_log_mu = s.rtt_mu,
             .rtt_log_sigma = 0.5, .redirect_rate = 0.18, .spin_stable_fraction = 0.55,
             .spin_weekly_persistence = 0.82});
    }

    // Toplist-only extra capacity (Akamai-/Amazon-like edges, no spin).
    add({.name = "EdgeCDN-D", .asn = 20940, .weight_cno = 0.0, .weight_other = 0.026,
         .weight_toplist = 0.052, .stack = kStackCdnEdgeC, .spin_host_rate = 0.0,
         .domains_per_ipv4 = 40.0, .ipv6_rate = 0.5, .domains_per_ipv6 = 40.0,
         .spin_host_rate_v6 = 0.0, .rtt_log_mu = std::log(10.0), .rtt_log_sigma = 0.5,
         .redirect_rate = 0.12, .spin_stable_fraction = 1.0, .spin_weekly_persistence = 1.0});

    // Catch-all for resolved domains without QUIC (the bulk of the web).
    add({.name = "VariousHosting", .asn = 64512, .weight_cno = 0.0, .weight_other = 0.0,
         .weight_toplist = 0.0, .stack = kStackNginxQuic, .spin_host_rate = 0.0,
         .domains_per_ipv4 = 16.0, .ipv6_rate = 0.077, .domains_per_ipv6 = 4.0,
         .spin_host_rate_v6 = 0.0, .rtt_log_mu = std::log(50.0), .rtt_log_sigma = 0.9,
         .redirect_rate = 0.15, .spin_stable_fraction = 1.0, .spin_weekly_persistence = 1.0});
}

void PopulationModel::compute_geometry() {
    const double inv = 1.0 / config_.scale;
    n_cno_ = static_cast<std::size_t>(shape_.cno_domains * inv);
    n_other_ = static_cast<std::size_t>((shape_.czds_domains - shape_.cno_domains) * inv);
    const auto n_toplist = static_cast<std::size_t>(shape_.toplist_domains * inv);
    n_extra_ =
        static_cast<std::size_t>(shape_.toplist_domains * shape_.toplist_outside_czds * inv);
    const std::size_t n_top_inside = n_toplist - n_extra_;
    p_top_inside_czds_ = static_cast<double>(n_top_inside) /
                         static_cast<double>(std::max<std::size_t>(1, n_cno_ + n_other_));

    // Per-segment QUIC-org samplers built from the profile weights.
    std::vector<double> w_cno;
    std::vector<double> w_other;
    std::vector<double> w_top;
    for (const auto& org : orgs_) {
        w_cno.push_back(org.weight_cno);
        w_other.push_back(org.weight_other);
        w_top.push_back(org.weight_toplist);
    }
    pick_cno_ = util::DiscreteSampler{w_cno};
    pick_other_ = util::DiscreteSampler{w_other};
    pick_top_ = util::DiscreteSampler{w_top};

    // --- closed-form host pools --------------------------------------------
    // Pool sizes derive from the *expected* resolved-domain mass of each org,
    // never from realized counts — the model must not materialize domains.
    // Each segment contributes its domain count split between the on-toplist
    // path (toplist resolve/QUIC rates, toplist org weights) and the zone
    // path (segment rates and weights); the no-QUIC catch-all additionally
    // absorbs every resolved domain that fails the QUIC draw.
    const double sum_cno = std::max(1e-12, std::accumulate(w_cno.begin(), w_cno.end(), 0.0));
    const double sum_other =
        std::max(1e-12, std::accumulate(w_other.begin(), w_other.end(), 0.0));
    const double sum_top = std::max(1e-12, std::accumulate(w_top.begin(), w_top.end(), 0.0));

    struct SegmentGeometry {
        double n;
        double p_top;
        double resolve;
        double quic;
        const std::vector<double>* weights;
        double weight_sum;
    };
    const SegmentGeometry segments[] = {
        {static_cast<double>(n_cno_), p_top_inside_czds_, shape_.resolve_cno, shape_.quic_cno,
         &w_cno, sum_cno},
        {static_cast<double>(n_other_), p_top_inside_czds_, shape_.resolve_other,
         shape_.quic_other, &w_other, sum_other},
        {static_cast<double>(n_extra_), 1.0, shape_.resolve_other, shape_.quic_other, &w_other,
         sum_other},
    };

    std::vector<double> expected(orgs_.size(), 0.0);
    double no_quic_mass = 0.0;
    for (const auto& seg : segments) {
        const double top_mass = seg.n * seg.p_top * shape_.resolve_toplist;
        const double zone_mass = seg.n * (1.0 - seg.p_top) * seg.resolve;
        for (std::size_t i = 0; i < orgs_.size(); ++i) {
            expected[i] += top_mass * shape_.quic_toplist * (w_top[i] / sum_top) +
                           zone_mass * seg.quic * ((*seg.weights)[i] / seg.weight_sum);
        }
        no_quic_mass +=
            top_mass * (1.0 - shape_.quic_toplist) + zone_mass * (1.0 - seg.quic);
    }
    expected.back() += no_quic_mass;

    v4_pool_.assign(orgs_.size(), 1);
    v6_pool_.assign(orgs_.size(), 1);
    for (std::size_t i = 0; i < orgs_.size(); ++i) {
        const auto v4 = static_cast<std::uint64_t>(
            std::max<double>(1.0, std::llround(expected[i] / orgs_[i].domains_per_ipv4)));
        const auto v6 = static_cast<std::uint64_t>(std::max<double>(
            1.0,
            std::llround(expected[i] * orgs_[i].ipv6_rate / orgs_[i].domains_per_ipv6)));
        v4_pool_[i] = static_cast<std::uint32_t>(std::min(v4, kMaxPool));
        v6_pool_[i] = std::min(v6, kMaxPool);
    }
}

Domain PopulationModel::domain(std::uint32_t id) const {
    // The purity contract (DESIGN.md §15): every attribute of domain `id` is
    // drawn from a dedicated sub-stream keyed on (seed, id), in a fixed
    // order, so regeneration is independent of which block asked and when.
    Rng rng{util::derive_stream_seed(config_.seed ^ kDomainStreamSalt, id)};

    Domain d;
    d.id = id;
    const Segment segment = segment_of(id);
    d.set_segment(segment);
    d.on_toplist =
        segment == Segment::toplist_extra ? true : rng.chance(p_top_inside_czds_);

    double resolve_rate = 0.0;
    double quic_rate = 0.0;
    const util::DiscreteSampler* org_picker = nullptr;
    if (d.on_toplist) {
        resolve_rate = shape_.resolve_toplist;
        quic_rate = shape_.quic_toplist;
        org_picker = &pick_top_;
    } else if (segment == Segment::czds_cno) {
        resolve_rate = shape_.resolve_cno;
        quic_rate = shape_.quic_cno;
        org_picker = &pick_cno_;
    } else {
        resolve_rate = shape_.resolve_other;
        quic_rate = shape_.quic_other;
        org_picker = &pick_other_;
    }

    d.resolves = rng.chance(resolve_rate);
    d.quic = d.resolves && rng.chance(quic_rate);
    d.org = d.quic ? static_cast<std::uint16_t>(org_picker->sample(rng))
                   : static_cast<std::uint16_t>(orgs_.size() - 1);

    if (d.resolves) {
        const auto& org = orgs_[d.org];
        d.ipv4_host = static_cast<std::uint32_t>(rng.uniform_u64(v4_pool_[d.org]));
        // Toplist customers of the shared hosters use custom setups far more
        // often and enable IPv6 less — the paper's §4.4 finding that toplist
        // IPv6 spin support trails the zone files by a wide margin.
        const bool discounted = d.on_toplist && org.spin_host_rate > 0.05;
        d.has_ipv6 = rng.chance(org.ipv6_rate * (discounted ? 0.45 : 1.0));
        d.ipv6_host = static_cast<std::uint32_t>(rng.uniform_u64(v6_pool_[d.org]));
        d.set_rtt_ms(std::clamp(
            util::sample_lognormal(rng, org.rtt_log_mu, org.rtt_log_sigma), 0.8, 400.0));
        d.redirects = rng.chance(org.redirect_rate);
    }
    return d;
}

DomainBlock PopulationModel::materialize(std::size_t begin, std::size_t end) const {
    const std::size_t total = domain_count();
    begin = std::min(begin, total);
    end = std::min(std::max(end, begin), total);
    DomainBlock block;
    block.begin = static_cast<std::uint32_t>(begin);
    block.domains.reserve(end - begin);
    for (std::size_t id = begin; id < end; ++id) {
        block.domains.push_back(domain(static_cast<std::uint32_t>(id)));
    }
    return block;
}

DomainBlock PopulationModel::materialize_chunk(std::size_t chunk_index,
                                               std::size_t chunk_domains) const {
    const std::size_t begin = chunk_index * chunk_domains;
    return materialize(begin, begin + chunk_domains);
}

bool PopulationModel::host_spins(const Domain& d, int week, bool ipv6) const {
    const auto& org = orgs_[d.org];
    const double enable_rate = ipv6 ? org.spin_host_rate_v6 : org.spin_host_rate;
    if (enable_rate <= 0.0) return false;
    const std::uint64_t host = host_key(d, ipv6);
    const std::uint64_t host_index = ipv6 ? d.ipv6_host : d.ipv4_host;

    // Host-level enablement uses low-discrepancy (golden-ratio) sequences
    // per org so the enabled share tracks the configured rate closely even
    // when a downscaled population leaves an org with only a handful of
    // hosts. Stable hosts keep their state for the whole campaign; churning
    // hosts re-draw weekly as a two-state Markov chain (deployment updates,
    // provider migrations — Fig. 2).
    const auto strat = [&](double stride, std::uint64_t salt) {
        const double offset =
            hashed_uniform(config_.seed, d.org, salt, ipv6 ? 1 : 0);
        const double v = offset + static_cast<double>(host_index) * stride;
        return v - std::floor(v);
    };
    const double stable_draw = strat(0.41421356237309515, 11);   // sqrt(2)-1
    const double enabled_draw = strat(0.6180339887498949, 13);   // phi-1
    const bool enabled_at_start = enabled_draw < enable_rate;
    if (stable_draw < org.spin_stable_fraction) return enabled_at_start;

    bool enabled = enabled_at_start;
    for (int w = 1; w <= week; ++w) {
        const double flip = hashed_uniform(config_.seed, host, 17, static_cast<std::uint64_t>(w));
        if (enabled) {
            if (flip >= org.spin_weekly_persistence) enabled = false;
        } else {
            // Re-enable with a rate that keeps the stationary share near the
            // org's enable rate: p_on = (1-persist) * rate / (1-rate).
            const double p_on = (1.0 - org.spin_weekly_persistence) * enable_rate /
                                std::max(1e-9, 1.0 - enable_rate);
            if (flip < p_on) enabled = true;
        }
    }
    return enabled;
}

quic::SpinPolicy PopulationModel::host_disabled_policy(const Domain& d, bool ipv6) const {
    // Drawn per site (domain-host pair): fixed-one and greasing behaviours
    // come from per-virtual-host configuration in practice, and a per-site
    // draw keeps the Table 3 shares stable under population downscaling.
    const std::uint64_t host = host_key(d, ipv6);
    const double draw = hashed_uniform(config_.seed, host, 19, d.id);
    // Calibrated against Table 3: All-One ~0.28 % of QUIC domains, grease
    // hits ~0.02 %; per-connection greasing folds into the fixed-value
    // columns (indistinguishable, as the paper notes in §2.1).
    if (draw < 0.0028) return quic::SpinPolicy::always_one;
    if (draw < 0.0031) return quic::SpinPolicy::grease_per_packet;
    if (draw < 0.0036) return quic::SpinPolicy::grease_per_connection;
    return quic::SpinPolicy::always_zero;
}

faults::ServerFaultProfile PopulationModel::server_fault_profile(const Domain& d,
                                                                 bool ipv6) const {
    faults::ServerFaultProfile profile;
    const double rate =
        std::clamp(std::max(config_.host_fault_rate, orgs_[d.org].fault_host_rate), 0.0, 1.0);
    if (rate <= 0.0) return profile;
    const std::uint64_t host = host_key(d, ipv6);
    if (hashed_uniform(config_.seed, host, 23, 1) >= rate) return profile;

    // The failure mode is a host property: a broken stack fails the same way
    // on every visit. Modes are drawn uniformly from the non-healthy ones.
    const double mode_draw = hashed_uniform(config_.seed, host, 29, 2);
    const auto mode_index =
        1 + static_cast<std::size_t>(mode_draw *
                                     static_cast<double>(faults::kServerFaultModeCount - 1));
    profile.mode = static_cast<faults::ServerFaultMode>(
        std::min<std::size_t>(mode_index, faults::kServerFaultModeCount - 1));

    // Persistent vs. transient is a host property as well; only transient
    // faults leave some of a host's attempts unfaulted.
    const bool transient =
        hashed_uniform(config_.seed, host, 31, 3) < config_.transient_fault_share;
    profile.per_attempt_probability =
        transient ? std::clamp(config_.transient_fault_probability, 0.0, 1.0) : 1.0;
    return profile;
}

namespace {

/// Writes `value` in `base` at `out`, left-padded with zeros to `width`
/// digits; returns the end. `out` has room for 10 digits.
char* put_number(char* out, std::uint32_t value, int base = 10, std::size_t width = 0) {
    char digits[10];
    char* const end = std::to_chars(digits, digits + sizeof digits, value, base).ptr;
    for (auto count = static_cast<std::size_t>(end - digits); count < width; ++count) {
        *out++ = '0';
    }
    return std::copy(digits, end, out);
}

}  // namespace

std::string PopulationModel::domain_name(const Domain& d) const {
    static constexpr std::string_view kCnoTlds[] = {"com", "com", "com", "net", "org"};
    static constexpr std::string_view kOtherTlds[] = {"xyz", "info", "online", "shop", "site"};
    static constexpr std::string_view kExtraTlds[] = {"de", "io", "co", "us", "tv"};
    std::string_view tld = "com";
    switch (d.segment()) {
        case Segment::czds_cno: tld = kCnoTlds[d.id % 5]; break;
        case Segment::czds_other: tld = kOtherTlds[d.id % 5]; break;
        case Segment::toplist_extra: tld = kExtraTlds[d.id % 5]; break;
    }
    // "d%07u.%s"
    char buf[32];
    char* out = buf;
    *out++ = 'd';
    out = put_number(out, d.id, 10, 7);
    *out++ = '.';
    out = std::copy(tld.begin(), tld.end(), out);
    return std::string(buf, out);
}

std::string PopulationModel::host_address(const Domain& d, bool ipv6) const {
    char buf[48];
    char* out = buf;
    if (ipv6) {
        // "fd00:%x::%x:%x"
        out = std::copy_n("fd00:", 5, out);
        out = put_number(out, d.org + 1u, 16);
        out = std::copy_n("::", 2, out);
        const std::uint32_t host = d.ipv6_host;
        out = put_number(out, host >> 16, 16);
        *out++ = ':';
        out = put_number(out, host & 0xffff, 16);
    } else {
        // "10.%u.%u.%u"
        const std::uint32_t addr = d.ipv4_host;
        out = std::copy_n("10.", 3, out);
        out = put_number(out, (d.org + 1u) & 0xff);
        *out++ = '.';
        out = put_number(out, (addr >> 8) & 0xff);
        *out++ = '.';
        out = put_number(out, addr & 0xff);
    }
    return std::string(buf, out);
}

std::uint64_t PopulationModel::host_key(const Domain& d, bool ipv6) const {
    const std::uint64_t host = ipv6 ? d.ipv6_host : d.ipv4_host;
    return (static_cast<std::uint64_t>(d.org) << 40) | (ipv6 ? (1ULL << 39) : 0) | host;
}

}  // namespace spinscope::web
