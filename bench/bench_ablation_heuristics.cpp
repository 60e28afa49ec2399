// bench/bench_ablation_heuristics.cpp
//
// Ablation of the observer-side robustness mechanisms (DESIGN.md §5.2):
// under increasing packet reordering, compare five spin observers on the
// same connections —
//   naive            raw edge detection (the paper's baseline method),
//   pn-filter        RFC 9312 packet-number filtering (endpoint vantage),
//   static-floor     reject samples below a fixed plausibility floor,
//   dynamic          reject samples far below the smoothed estimate,
//   VEC              only endpoint-validated edges (De Vaere et al.).
//
// Reported per variant: accepted samples, share of implausible (<1/2 true
// RTT) samples, and the median relative error versus the QUIC stack
// baseline. The paper's §5.2 finding — reordering is rare in the wild but
// ruinous for a naive observer when it does occur — shows as the naive
// row degrading with the reorder rate while the hardened rows stay flat.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/accuracy.hpp"
#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "scanner/http3_mini.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"

using namespace spinscope;

namespace {

struct VariantResult {
    std::size_t samples = 0;
    std::size_t rejected = 0;
    std::size_t implausible = 0;
    std::vector<double> relative_errors;
};

struct Variant {
    const char* name;
    core::ObserverConfig config;
};

qlog::Trace run_connection(double reorder_rate, std::uint64_t seed, double rtt_ms) {
    netsim::Simulator sim;
    util::Rng rng{seed};
    netsim::LinkConfig link;
    link.base_delay = util::Duration::from_ms(rtt_ms / 2);
    link.jitter_scale = link.base_delay.scaled(0.02);
    link.reorder_probability = reorder_rate;
    // Displacements up to ~1.5 RTT: a straggler from one flight lands amid
    // the next (opposite spin value) flight — the Fig. 1b failure case.
    link.reorder_extra_min = util::Duration::from_ms(1.0);
    link.reorder_extra_max = util::Duration::from_ms(60.0);
    netsim::Path path{sim, link, link, rng};

    quic::SpinConfig spin{quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
    spin.enable_vec = true;

    qlog::Trace trace;
    quic::ConnectionConfig ccfg;
    ccfg.role = quic::Role::client;
    ccfg.spin = spin;
    quic::Connection client{sim, ccfg, rng.fork(1),
                            [&path](netsim::Datagram dg) {
                                path.forward_link().send(std::move(dg));
                            },
                            &trace};
    quic::ConnectionConfig scfg;
    scfg.role = quic::Role::server;
    scfg.spin = spin;
    quic::Connection server{sim, scfg, rng.fork(2), [&path](netsim::Datagram dg) {
                                path.return_link().send(std::move(dg));
                            }};
    path.forward_link().set_receiver(
        [&server](spinscope::bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver(
        [&client](spinscope::bytes::ConstByteSpan dg) { client.on_datagram(dg); });
    server.on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t>) {
        if (id == scanner::kRequestStream) {
            server.send_stream(id, scanner::build_body(150'000), true);
        }
    };
    client.on_handshake_complete = [&] {
        client.send_stream(scanner::kRequestStream, scanner::build_request("www.a"), true);
    };
    client.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
        client.close(0, "done");
    };
    client.connect();
    sim.run_until(util::TimePoint::origin() + util::Duration::seconds(60));
    client.finalize_trace();
    return trace;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr std::string_view kFlags[] = {"--seed=N", "--count=N"};
    const auto options = bench::parse_options(argc, argv, kFlags, /*default_count=*/300);
    bench::banner("Ablation — observer robustness heuristics vs reordering", options, kFlags);
    const auto connections = static_cast<std::size_t>(options.count);

    const double kRtt = 40.0;
    const double reorder_rates[] = {0.0, 0.002, 0.01, 0.05};

    core::ObserverConfig pn_filter;
    pn_filter.packet_number_filter = true;
    core::ObserverConfig static_floor;
    static_floor.min_plausible_rtt = util::Duration::millis(4);
    core::ObserverConfig dynamic;
    dynamic.dynamic_reject_ratio = 0.25;
    core::ObserverConfig vec;
    vec.require_vec = true;
    const Variant variants[] = {
        {"naive", {}},           {"pn-filter", pn_filter}, {"static-floor", static_floor},
        {"dynamic", dynamic},    {"VEC", vec},
    };

    bench::Stopwatch watch;
    for (const double rate : reorder_rates) {
        std::printf("reorder probability %.3f (per packet, both directions), true RTT %.0f ms\n",
                    rate, kRtt);
        util::TextTable table;
        table.add_row({"observer", "samples", "rejected", "implausible", "median rel. error"});

        std::vector<VariantResult> results(std::size(variants));
        for (std::size_t c = 0; c < connections; ++c) {
            const auto trace =
                run_connection(rate, options.seed + c * 7919 + static_cast<std::uint64_t>(
                                                                   rate * 1e6),
                               kRtt);
            const auto packets = core::spin_observations(trace);
            double quic_mean = 0.0;
            for (const double s : trace.metrics.rtt_samples_ms) quic_mean += s;
            if (trace.metrics.rtt_samples_ms.empty()) continue;
            quic_mean /= static_cast<double>(trace.metrics.rtt_samples_ms.size());

            for (std::size_t v = 0; v < std::size(variants); ++v) {
                core::SpinEdgeObserver observer{variants[v].config};
                for (const auto& p : packets) observer.on_packet(p);
                auto& r = results[v];
                r.rejected += observer.rejected_samples();
                for (const double s : observer.result().samples_ms) {
                    ++r.samples;
                    if (s < kRtt / 2) ++r.implausible;
                }
                if (observer.result().has_samples()) {
                    r.relative_errors.push_back(
                        std::abs(observer.result().mean_ms() - quic_mean) / quic_mean);
                }
            }
        }

        for (std::size_t v = 0; v < std::size(variants); ++v) {
            auto& r = results[v];
            const auto median = util::quantile(r.relative_errors, 0.5);
            table.add_row({variants[v].name, std::to_string(r.samples),
                           std::to_string(r.rejected), std::to_string(r.implausible),
                           median ? util::percent(*median) : "-"});
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("completed in %.1f s (%zu connections per reorder rate)\n", watch.seconds(),
                connections);
    return 0;
}
