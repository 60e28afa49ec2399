// spinscope/web/population.hpp
//
// Synthetic web population — the substitute for the paper's 216 M-domain
// target set (DESIGN.md §2, §15).
//
// The population is generated from a table of organization profiles
// (Cloudflare-, Google-, Hostinger-, OVH-like, ...) whose parameters are
// calibrated against the paper's published marginals: per-list QUIC and
// spin-bit rates (Table 1/4), per-organization connection shares and spin
// shares (Table 2), disable behaviour (Table 3), webserver-stack mix (§4.2),
// path RTTs from a German university vantage and end-host delay behaviour
// (Figures 3-4), and longitudinal spin churn (Figure 2).
//
// Out-of-core split (DESIGN.md §15): the cheap PopulationModel holds only
// profiles, closed-form segment geometry and per-org host-pool sizes — O(orgs)
// state, independent of the domain count. Every Domain is a pure function of
// (seed, domain_id) via util::derive_stream_seed sub-streams, so any range of
// the universe can be (re)materialized as a transient DomainBlock in any
// order, at any chunk size, on any worker — byte-identically. A caller that
// wants every domain resident asks for materialize(0, domain_count()).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "quic/spin.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::web {

using util::Duration;

/// Which target-list segment a domain belongs to (paper §3.1). The paper's
/// toplists overlap the CZDS zones; segments are disjoint and the overlap is
/// expressed with the `on_toplist` flag.
enum class Segment : std::uint8_t {
    czds_cno,       ///< CZDS .com/.net/.org zones
    czds_other,     ///< CZDS, other gTLD zones
    toplist_extra,  ///< toplist-only domains outside the CZDS zones (ccTLDs)
};

/// Webserver stack profile (paper §4.2: LiteSpeed dominates spin support).
struct StackProfile {
    std::string name;
    /// How hosts of this stack behave when the spin bit is on.
    quic::SpinConfig spin_enabled{};
    /// How hosts set the bit when spin support is off (Table 3: mostly zero).
    quic::SpinPolicy disabled_mode = quic::SpinPolicy::always_zero;
    /// Delay between receiving the full request and the response headers.
    util::DelayMixture header_delay;
    /// Delay between response headers and (each chunk of) the body — the
    /// application-limited page-generation pauses behind Fig. 3/4's
    /// overestimates.
    util::DelayMixture body_delay;
    /// Lognormal body size: exp(N(mu, sigma)) bytes.
    double body_log_mu = 9.8;     // median ~18 kB
    double body_log_sigma = 1.0;
    /// Probability that the body is generated in two app-limited chunks.
    double chunked_body_rate = 0.5;
    Duration max_ack_delay = Duration::millis(25);
};

/// Organization (AS-level) deployment profile.
struct OrgProfile {
    std::string name;
    std::uint32_t asn = 0;
    /// Relative weight among *QUIC-enabled* domains, per segment
    /// (calibrated from Table 2 connection shares).
    double weight_cno = 0.0;
    double weight_other = 0.0;
    double weight_toplist = 0.0;
    /// Index into the population's stack table.
    std::size_t stack = 0;
    /// Fraction of this org's hosts with the spin bit enabled.
    double spin_host_rate = 0.0;
    /// IPv4 shared-hosting density (domains per IP) and pool behaviour.
    double domains_per_ipv4 = 20.0;
    /// Fraction of this org's QUIC domains reachable over IPv6.
    double ipv6_rate = 0.0;
    /// IPv6 density; ~1 models per-domain v6 addresses (Table 4's IP boom).
    double domains_per_ipv6 = 1.0;
    /// Spin-enable rate of the v6 hosts (may exceed v4 — §4.4).
    double spin_host_rate_v6 = 0.0;
    /// Path RTT from the vantage: lognormal(mu of ln ms, sigma).
    double rtt_log_mu = 3.0;
    double rtt_log_sigma = 0.5;
    /// Probability a landing page answers with an HTTP redirect.
    double redirect_rate = 0.15;
    /// Longitudinal behaviour (Fig. 2): fraction of spin-enabled hosts whose
    /// configuration is stable across the campaign; the rest toggle weekly
    /// with the given persistence probability (deployment churn).
    double spin_stable_fraction = 0.5;
    double spin_weekly_persistence = 0.85;
    /// Fraction of this org's hosts with a serving-side failure mode
    /// (broken stacks, deaf middleboxes — see faults::ServerFaultMode).
    /// Defaults to 0 so the calibrated universe stays fault-free.
    double fault_host_rate = 0.0;
};

/// One synthetic domain, packed into 16 bytes. Out-of-core campaigns hold
/// millions of these per transient block, so every flag is a bitfield and
/// the RTT is quantized to tenths of a millisecond (the clamp range
/// [0.8, 400] ms needs 8..4000 — well inside 16 bits). 28-bit host indices
/// cover 268 M hosts per org and family, beyond the 1:1-scale pools.
struct Domain {
    std::uint32_t id = 0;
    std::uint16_t org = 0;
    std::uint16_t rtt_tenths = 400;   ///< base path RTT, tenths of ms
    std::uint32_t ipv4_host : 28 = 0; ///< host index within the org's v4 pool
    std::uint32_t segment_raw : 2 = 0;
    std::uint32_t resolves : 1 = 0;   ///< DNS (A record) resolves
    std::uint32_t quic : 1 = 0;       ///< host answers HTTP/3
    std::uint32_t ipv6_host : 28 = 0; ///< host index within the org's v6 pool
    std::uint32_t on_toplist : 1 = 0;
    std::uint32_t has_ipv6 : 1 = 0;   ///< AAAA record resolves
    std::uint32_t redirects : 1 = 0;  ///< landing page issues one redirect
    std::uint32_t reserved : 1 = 0;

    [[nodiscard]] Segment segment() const noexcept {
        return static_cast<Segment>(segment_raw);
    }
    void set_segment(Segment s) noexcept {
        segment_raw = static_cast<std::uint32_t>(s) & 0x3U;
    }
    [[nodiscard]] float rtt_ms() const noexcept {
        return static_cast<float>(rtt_tenths) * 0.1F;
    }
    void set_rtt_ms(double ms) noexcept {
        rtt_tenths = static_cast<std::uint16_t>(ms * 10.0 + 0.5);
    }
};
static_assert(sizeof(Domain) <= 16, "web::Domain must stay a compact 16-byte record");

/// Scale + seed of the synthetic universe.
struct PopulationConfig {
    /// 1:N downscale of the paper's CW 20/2023 universe (counts divided by
    /// this; percentages are scale-invariant).
    double scale = 1000.0;
    std::uint64_t seed = 20230520;
    /// Floor on every org's fault_host_rate — hostile-universe sweeps raise
    /// this; the default 0 leaves the calibrated universe fault-free.
    double host_fault_rate = 0.0;
    /// Among faulty hosts, the fraction whose failure is transient (fires
    /// per attempt with `transient_fault_probability`) rather than
    /// persistent (fires on every attempt), so a transient host may fail
    /// one hop and answer the next.
    double transient_fault_share = 0.7;
    double transient_fault_probability = 0.6;
};

/// Counts of the paper's CW 20/2023 universe at 1:1 scale, used to size the
/// synthetic segments.
struct UniverseShape {
    double czds_domains = 216'520'521.0;
    double cno_domains = 183'047'638.0;
    double toplist_domains = 2'732'702.0;
    /// Share of toplist domains that live outside the CZDS zones.
    double toplist_outside_czds = 0.30;
    /// P(resolve) per segment.
    double resolve_cno = 0.868;
    double resolve_other = 0.742;
    double resolve_toplist = 0.709;
    /// P(QUIC | resolved) per segment.
    double quic_cno = 0.1159;
    double quic_other = 0.1528;
    double quic_toplist = 0.2823;
};

/// One materialized range [begin, begin + domains.size()) of the universe —
/// the transient unit a streaming consumer scans and discards. domains[i] is
/// the domain with id begin + i (domain ids equal global indices).
struct DomainBlock {
    std::uint32_t begin = 0;
    std::vector<Domain> domains;

    [[nodiscard]] std::span<const Domain> span() const noexcept { return domains; }
    [[nodiscard]] std::size_t size() const noexcept { return domains.size(); }
};

/// The generating model of the universe: profiles, closed-form segment
/// geometry and per-org host pools — no per-domain state. domain(id) is a
/// pure function of (config.seed, id), so materialize() is order- and
/// chunk-size-independent (the §15 purity contract).
class PopulationModel {
public:
    /// Throws std::invalid_argument when !valid_scale(config.scale).
    explicit PopulationModel(const PopulationConfig& config);

    /// True when `scale` is finite, above zero and small enough a divisor
    /// that the domain count fits the std::uint32_t domain ids.
    [[nodiscard]] static bool valid_scale(double scale) noexcept;

    [[nodiscard]] const PopulationConfig& config() const noexcept { return config_; }
    [[nodiscard]] const UniverseShape& shape() const noexcept { return shape_; }
    [[nodiscard]] std::span<const OrgProfile> orgs() const noexcept { return orgs_; }
    [[nodiscard]] std::span<const StackProfile> stacks() const noexcept { return stacks_; }

    /// Total number of domains in the (downscaled) universe.
    [[nodiscard]] std::size_t domain_count() const noexcept {
        return n_cno_ + n_other_ + n_extra_;
    }
    /// Closed-form segment sizes (segments are emitted in enum order:
    /// czds_cno ids [0, n_cno), czds_other [n_cno, n_cno + n_other), ...).
    [[nodiscard]] std::size_t segment_count(Segment segment) const noexcept {
        switch (segment) {
            case Segment::czds_cno: return n_cno_;
            case Segment::czds_other: return n_other_;
            case Segment::toplist_extra: return n_extra_;
        }
        return 0;
    }
    [[nodiscard]] Segment segment_of(std::uint32_t id) const noexcept {
        if (id < n_cno_) return Segment::czds_cno;
        if (id < n_cno_ + n_other_) return Segment::czds_other;
        return Segment::toplist_extra;
    }

    /// Regenerates one domain — a pure function of (config.seed, id).
    [[nodiscard]] Domain domain(std::uint32_t id) const;

    /// Materializes the id range [begin, end) as a transient block.
    [[nodiscard]] DomainBlock materialize(std::size_t begin, std::size_t end) const;
    /// Materializes chunk `chunk_index` of a `chunk_domains`-sized chunking.
    [[nodiscard]] DomainBlock materialize_chunk(std::size_t chunk_index,
                                                std::size_t chunk_domains) const;

    [[nodiscard]] const OrgProfile& org_of(const Domain& d) const { return orgs_.at(d.org); }
    [[nodiscard]] const StackProfile& stack_of(const Domain& d) const {
        return stacks_.at(orgs_.at(d.org).stack);
    }

    /// Whether the host serving `d` (v4 or v6 flavour) has the spin bit
    /// enabled in measurement week `week` (0-based since campaign start).
    /// Deterministic per (host, week); models stable hosts plus weekly
    /// configuration churn (Fig. 2).
    [[nodiscard]] bool host_spins(const Domain& d, int week, bool ipv6) const;

    /// How a non-spinning host sets the bit (paper §4.3 / Table 3): almost
    /// always zero, rarely fixed one, rarely greased per packet or per
    /// connection. Deterministic per host.
    [[nodiscard]] quic::SpinPolicy host_disabled_policy(const Domain& d, bool ipv6) const;

    /// Serving-side failure behaviour of the host behind `d` (v4 or v6
    /// flavour). Deterministic per host: a broken stack fails the same way
    /// on every visit, and whether the failure is persistent or transient is
    /// a host property too. Returns a healthy profile unless the config (or
    /// the org) opts into faults.
    [[nodiscard]] faults::ServerFaultProfile server_fault_profile(const Domain& d,
                                                                  bool ipv6) const;

    /// Synthesized DNS name, e.g. "d001234.com".
    [[nodiscard]] std::string domain_name(const Domain& d) const;
    /// Synthesized address string for the serving host.
    [[nodiscard]] std::string host_address(const Domain& d, bool ipv6) const;

    /// Global host key (unique across orgs and address families), for
    /// IP-level aggregation.
    [[nodiscard]] std::uint64_t host_key(const Domain& d, bool ipv6) const;

    /// Host pool sizes (number of distinct serving addresses) per org,
    /// derived in closed form from the expected resolved-domain mass of the
    /// org — never from a realized count, so no domain materialization.
    [[nodiscard]] std::uint32_t ipv4_pool(std::size_t org) const { return v4_pool_.at(org); }
    [[nodiscard]] std::uint64_t ipv6_pool(std::size_t org) const { return v6_pool_.at(org); }

private:
    void build_profiles();
    void compute_geometry();

    PopulationConfig config_;
    UniverseShape shape_;
    std::vector<StackProfile> stacks_;
    std::vector<OrgProfile> orgs_;
    std::vector<std::uint32_t> v4_pool_;
    std::vector<std::uint64_t> v6_pool_;
    std::size_t n_cno_ = 0;
    std::size_t n_other_ = 0;
    std::size_t n_extra_ = 0;
    double p_top_inside_czds_ = 0.0;
    /// Per-segment QUIC-org samplers built once from the profile weights.
    util::DiscreteSampler pick_cno_{std::span<const double>{}};
    util::DiscreteSampler pick_other_{std::span<const double>{}};
    util::DiscreteSampler pick_top_{std::span<const double>{}};
};

/// Default stack table (index constants used by the org profiles).
enum : std::size_t {
    kStackLiteSpeed = 0,
    kStackImunify = 1,
    kStackNginxQuic = 2,
    kStackCaddy = 3,
    kStackCdnEdgeA = 4,  ///< Cloudflare-like proprietary edge
    kStackCdnEdgeB = 5,  ///< Google-like proprietary edge
    kStackCdnEdgeC = 6,  ///< Fastly-like proprietary edge
    kStackCount = 7,
};

}  // namespace spinscope::web
