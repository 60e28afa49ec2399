// spinscope/analysis/adoption.hpp
//
// Adoption analysis (paper §4): per-list domain/IP support tables (Tables 1
// and 4), per-organization drill-down (Table 2), spin-bit configuration
// behaviour (Table 3), and webserver attribution (§4.2).

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

namespace spinscope::analysis {

/// Domain-level spin classification aggregated over a scan's connections.
enum class DomainSpinClass : std::uint8_t {
    not_quic,   ///< no completed QUIC connection
    all_zero,   ///< every 1-RTT packet of every connection carried 0
    all_one,    ///< ... carried 1
    spinning,   ///< at least one connection classified spinning
    greased,    ///< no spinning connection, at least one grease-filtered
    mixed,      ///< fixed values differing across connections
};

/// One domain's spin verdict: every OK connection assessed once (paper
/// §3.3), then folded into the domain class (spinning > greased >
/// fixed-value classes). Tables 1-3 and Figures 2-4 all read it.
struct DomainVerdict {
    DomainSpinClass cls = DomainSpinClass::not_quic;
    /// One assessment per OK trace, in trace order.
    std::vector<core::ConnectionAssessment> ok;
};

[[nodiscard]] DomainVerdict assess_domain(const scanner::DomainScan& scan);

/// The list views of Table 1/4.
enum class ListId : std::uint8_t { toplists = 0, czds = 1, cno = 2 };
inline constexpr std::size_t kListCount = 3;

[[nodiscard]] constexpr const char* to_cstring(ListId list) noexcept {
    switch (list) {
        case ListId::toplists: return "Toplists";
        case ListId::czds: return "CZDS";
        case ListId::cno: return "com/net/org";
    }
    return "?";
}

/// Whether a domain belongs to a list view.
[[nodiscard]] bool in_list(const web::Domain& domain, ListId list) noexcept;

/// Fixed-footprint distinct-host tracker: one bit per host of the model's
/// closed-form per-org pools (for one address family), indexed
/// `base[org] + host_index`. Replaces hash sets whose memory grew with the
/// number of distinct hosts *seen* — out-of-core analysis state must depend
/// only on the model geometry, never on how many domains streamed through.
class HostSet {
public:
    HostSet() = default;
    HostSet(const web::PopulationModel& model, bool ipv6);

    /// Marks the host serving `d`; returns true when newly set.
    bool insert(const web::Domain& d);
    [[nodiscard]] bool contains(const web::Domain& d) const noexcept;
    /// Number of distinct hosts marked so far.
    [[nodiscard]] std::uint64_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

private:
    [[nodiscard]] std::uint64_t slot(const web::Domain& d) const noexcept;

    std::vector<std::uint64_t> base_;  ///< per-org prefix sums into the bit space
    std::vector<std::uint64_t> bits_;
    std::uint64_t count_ = 0;
    bool ipv6_ = false;
};

/// Counters backing one row block of Table 1/4.
struct ListCounters {
    std::uint64_t domains_total = 0;
    std::uint64_t domains_resolved = 0;
    std::uint64_t domains_quic = 0;
    std::uint64_t domains_spin = 0;     // "Spin" column (spinning class)
    std::uint64_t domains_all_zero = 0;  // Table 3 columns
    std::uint64_t domains_all_one = 0;
    std::uint64_t domains_grease = 0;
    HostSet ips_resolved;
    HostSet ips_quic;
    HostSet ips_spin;
};

/// Per-organization counters (Table 2; counts connections, not domains).
struct OrgCounters {
    std::string name;
    std::uint64_t connections = 0;
    std::uint64_t spin_connections = 0;
};

/// Streaming aggregator over one sweep's DomainScans. Single-pass and
/// fixed-footprint: all state is counters plus HostSet bitvectors sized from
/// the model's closed-form geometry, so feeding the 216 M-domain universe
/// through chunk by chunk never grows it.
class AdoptionAggregator {
public:
    AdoptionAggregator(const web::PopulationModel& model, bool ipv6);

    /// Folds one scanned domain into all aggregates and returns its verdict,
    /// so a caller that also feeds the accuracy figures assesses it once.
    DomainVerdict add(const web::Domain& domain, const scanner::DomainScan& scan);

    [[nodiscard]] const ListCounters& list(ListId id) const {
        return lists_[static_cast<std::size_t>(id)];
    }
    [[nodiscard]] const std::vector<OrgCounters>& orgs() const noexcept { return orgs_; }

    /// Connections per webserver stack name (for §4.2's LiteSpeed finding) —
    /// counts QUIC connections of com/net/org domains. With `spinning_only`,
    /// counts only connections that showed spin activity.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> webserver_connections(
        bool spinning_only = false) const;

    // --- renderers (bench harness output) -----------------------------------
    /// Table 1 (ipv6=false) / Table 4 (ipv6=true) shape: per list, domains
    /// and IPs through Total -> Resolved -> QUIC -> Spin.
    [[nodiscard]] std::string render_overview_table() const;
    /// Table 2 shape: top organizations by connections, with spin share.
    [[nodiscard]] std::string render_org_table(std::size_t top_n = 8) const;
    /// Table 3 shape: All Zero / All One / Spin / Grease per list.
    [[nodiscard]] std::string render_config_table() const;

private:
    const web::PopulationModel* model_;
    bool ipv6_;
    std::array<ListCounters, kListCount> lists_;
    std::vector<OrgCounters> orgs_;
    std::vector<std::uint64_t> webserver_counts_;  // indexed by stack
    std::vector<std::uint64_t> webserver_spin_counts_;
};

}  // namespace spinscope::analysis
