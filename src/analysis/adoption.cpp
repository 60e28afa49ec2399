#include "analysis/adoption.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace spinscope::analysis {

using util::group_digits;
using util::percent;
using util::TextTable;

DomainVerdict assess_domain(const scanner::DomainScan& scan) {
    DomainVerdict verdict;
    bool any_spin = false;
    bool any_grease = false;
    bool any_zero = false;
    bool any_one = false;
    for (const auto& trace : scan.connections) {
        if (trace.outcome != qlog::ConnectionOutcome::ok) continue;
        const core::ConnectionAssessment& assessment =
            verdict.ok.emplace_back(core::assess_connection(trace));
        switch (assessment.behavior) {
            case core::SpinBehavior::spinning: any_spin = true; break;
            case core::SpinBehavior::greased: any_grease = true; break;
            case core::SpinBehavior::all_zero: any_zero = true; break;
            case core::SpinBehavior::all_one: any_one = true; break;
            case core::SpinBehavior::no_one_rtt: break;
        }
    }
    verdict.cls = [&] {
        if (verdict.ok.empty()) return DomainSpinClass::not_quic;
        if (any_spin) return DomainSpinClass::spinning;
        if (any_grease) return DomainSpinClass::greased;
        if (any_zero && any_one) return DomainSpinClass::mixed;
        if (any_one) return DomainSpinClass::all_one;
        return DomainSpinClass::all_zero;  // all_zero or only no_one_rtt traces
    }();
    return verdict;
}

bool in_list(const web::Domain& domain, ListId list) noexcept {
    switch (list) {
        case ListId::toplists: return domain.on_toplist;
        case ListId::czds: return domain.segment() != web::Segment::toplist_extra;
        case ListId::cno: return domain.segment() == web::Segment::czds_cno;
    }
    return false;
}

HostSet::HostSet(const web::PopulationModel& model, bool ipv6) : ipv6_{ipv6} {
    const std::size_t orgs = model.orgs().size();
    base_.assign(orgs + 1, 0);
    for (std::size_t i = 0; i < orgs; ++i) {
        const std::uint64_t pool =
            ipv6 ? model.ipv6_pool(i) : static_cast<std::uint64_t>(model.ipv4_pool(i));
        base_[i + 1] = base_[i] + pool;
    }
    bits_.assign((base_[orgs] + 63) / 64, 0);
}

std::uint64_t HostSet::slot(const web::Domain& d) const noexcept {
    const std::uint64_t host = ipv6_ ? d.ipv6_host : d.ipv4_host;
    return base_[d.org] + host;
}

bool HostSet::insert(const web::Domain& d) {
    const std::uint64_t s = slot(d);
    const std::uint64_t mask = 1ULL << (s % 64);
    if ((bits_[s / 64] & mask) != 0) return false;
    bits_[s / 64] |= mask;
    ++count_;
    return true;
}

bool HostSet::contains(const web::Domain& d) const noexcept {
    const std::uint64_t s = slot(d);
    return (bits_[s / 64] & (1ULL << (s % 64))) != 0;
}

AdoptionAggregator::AdoptionAggregator(const web::PopulationModel& model, bool ipv6)
    : model_{&model}, ipv6_{ipv6} {
    for (auto& counters : lists_) {
        counters.ips_resolved = HostSet{model, ipv6};
        counters.ips_quic = HostSet{model, ipv6};
        counters.ips_spin = HostSet{model, ipv6};
    }
    orgs_.reserve(model.orgs().size());
    for (const auto& org : model.orgs()) {
        orgs_.push_back(OrgCounters{org.name, 0, 0});
    }
    webserver_counts_.assign(model.stacks().size(), 0);
    webserver_spin_counts_.assign(model.stacks().size(), 0);
}

DomainVerdict AdoptionAggregator::add(const web::Domain& domain,
                                      const scanner::DomainScan& scan) {
    DomainVerdict verdict = assess_domain(scan);
    const bool quic_ok = verdict.cls != DomainSpinClass::not_quic;

    for (std::size_t l = 0; l < kListCount; ++l) {
        const auto id = static_cast<ListId>(l);
        if (!in_list(domain, id)) continue;
        auto& counters = lists_[l];
        ++counters.domains_total;
        if (!scan.resolved) continue;
        ++counters.domains_resolved;
        counters.ips_resolved.insert(domain);
        if (!quic_ok) continue;
        ++counters.domains_quic;
        counters.ips_quic.insert(domain);
        switch (verdict.cls) {
            case DomainSpinClass::spinning:
                ++counters.domains_spin;
                counters.ips_spin.insert(domain);
                break;
            case DomainSpinClass::greased: ++counters.domains_grease; break;
            case DomainSpinClass::all_zero: ++counters.domains_all_zero; break;
            case DomainSpinClass::all_one: ++counters.domains_all_one; break;
            default: break;
        }
    }

    // Table 2 counts connections of the com/net/org view (paper §4.2).
    if (in_list(domain, ListId::cno) && quic_ok) {
        auto& org = orgs_.at(domain.org);
        const auto& stack = model_->org_of(domain).stack;
        for (const core::ConnectionAssessment& assessment : verdict.ok) {
            ++org.connections;
            ++webserver_counts_.at(stack);
            if (assessment.behavior == core::SpinBehavior::spinning) {
                ++org.spin_connections;
                ++webserver_spin_counts_.at(stack);
            }
        }
    }
    return verdict;
}

std::vector<std::pair<std::string, std::uint64_t>> AdoptionAggregator::webserver_connections(
    bool spinning_only) const {
    const auto& counts = spinning_only ? webserver_spin_counts_ : webserver_counts_;
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        out.emplace_back(model_->stacks()[i].name, counts[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return out;
}

std::string AdoptionAggregator::render_overview_table() const {
    TextTable table;
    table.add_row({"List", "", "Total", "Resolved", "QUIC", "Spin"});
    for (std::size_t l = 0; l < kListCount; ++l) {
        const auto& c = lists_[l];
        const double spin_share =
            c.domains_quic == 0
                ? 0.0
                : static_cast<double>(c.domains_spin) / static_cast<double>(c.domains_quic);
        table.add_row({to_cstring(static_cast<ListId>(l)), "#Domains",
                       group_digits(c.domains_total), group_digits(c.domains_resolved),
                       group_digits(c.domains_quic), percent(spin_share)});
        const double ip_spin_share =
            c.ips_quic.empty() ? 0.0
                               : static_cast<double>(c.ips_spin.size()) /
                                     static_cast<double>(c.ips_quic.size());
        table.add_row({"", "#IPs", "", group_digits(c.ips_resolved.size()),
                       group_digits(c.ips_quic.size()), percent(ip_spin_share)});
    }
    return table.render();
}

std::string AdoptionAggregator::render_org_table(std::size_t top_n) const {
    // Rank organizations by total connections; report the paper's columns.
    std::vector<std::size_t> by_total(orgs_.size());
    for (std::size_t i = 0; i < orgs_.size(); ++i) by_total[i] = i;
    std::sort(by_total.begin(), by_total.end(), [this](std::size_t a, std::size_t b) {
        return orgs_[a].connections > orgs_[b].connections;
    });
    std::vector<std::size_t> spin_rank(orgs_.size(), 0);
    {
        std::vector<std::size_t> by_spin = by_total;
        std::sort(by_spin.begin(), by_spin.end(), [this](std::size_t a, std::size_t b) {
            return orgs_[a].spin_connections > orgs_[b].spin_connections;
        });
        for (std::size_t rank = 0; rank < by_spin.size(); ++rank) {
            spin_rank[by_spin[rank]] = rank + 1;
        }
    }

    TextTable table;
    table.add_row({"Rank", "Total #", "AS Organization", "Spin #", "Spin %", "Spin rank"});
    std::uint64_t other_total = 0;
    std::uint64_t other_spin = 0;
    for (std::size_t rank = 0; rank < by_total.size(); ++rank) {
        const auto& org = orgs_[by_total[rank]];
        if (org.connections == 0) continue;
        if (rank < top_n) {
            const double share =
                static_cast<double>(org.spin_connections) /
                static_cast<double>(std::max<std::uint64_t>(1, org.connections));
            table.add_row({std::to_string(rank + 1), group_digits(org.connections), org.name,
                           group_digits(org.spin_connections), percent(share),
                           org.spin_connections > 0 ? std::to_string(spin_rank[by_total[rank]])
                                                    : "-"});
        } else {
            other_total += org.connections;
            other_spin += org.spin_connections;
        }
    }
    if (other_total > 0) {
        const double share =
            static_cast<double>(other_spin) / static_cast<double>(other_total);
        table.add_row({"", group_digits(other_total), "<other>", group_digits(other_spin),
                       percent(share), ""});
    }
    return table.render();
}

std::string AdoptionAggregator::render_config_table() const {
    TextTable table;
    table.add_row({"List", "All Zero", "All One", "Spin", "Grease"});
    for (std::size_t l = 0; l < kListCount; ++l) {
        const auto& c = lists_[l];
        const auto quic = static_cast<double>(std::max<std::uint64_t>(1, c.domains_quic));
        const auto cell = [&](std::uint64_t v) {
            return group_digits(v) + " (" + percent(static_cast<double>(v) / quic, 2) + ")";
        };
        table.add_row({to_cstring(static_cast<ListId>(l)), cell(c.domains_all_zero),
                       cell(c.domains_all_one), group_digits(c.domains_spin),
                       cell(c.domains_grease)});
    }
    return table.render();
}

}  // namespace spinscope::analysis
