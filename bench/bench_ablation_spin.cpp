// bench/bench_ablation_spin.cpp
//
// Ablation of the RFC 9000 §17.4 design decision that endpoints update the
// spin value only from the packet with the *highest packet number*
// (DESIGN.md §5.1). The alternative — naive arrival-order reflection —
// re-randomizes the wave whenever the incoming path reorders, injecting
// spurious edges that no observer-side heuristic can fully repair.
//
// The harness runs identical transfers with both reflection rules while the
// client->server (incoming-to-the-reflector) path reorders, and reports the
// spin-edge statistics a client-side observer sees.

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

struct Outcome {
    std::size_t connections = 0;
    std::size_t edges = 0;
    std::size_t short_samples = 0;  // < half the true RTT
    std::vector<double> mean_errors;
};

Outcome sweep(bool naive_reflection, double reorder_rate, std::size_t connections,
              std::uint64_t seed) {
    constexpr double kRttMs = 40.0;
    Outcome outcome;
    for (std::size_t c = 0; c < connections; ++c) {
        netsim::Simulator sim;
        util::Rng rng{seed + c * 104729};
        netsim::LinkConfig forward;
        forward.base_delay = util::Duration::from_ms(kRttMs / 2);
        forward.reorder_probability = reorder_rate;  // incoming path of the server
        // Delays past one RTT so a stale client packet (carrying the
        // previous spin value) arrives after newer ones — the case the
        // highest-PN rule exists for.
        forward.reorder_extra_min = util::Duration::from_ms(10.0);
        forward.reorder_extra_max = util::Duration::from_ms(70.0);
        netsim::LinkConfig ret;
        ret.base_delay = util::Duration::from_ms(kRttMs / 2);
        netsim::Path path{sim, forward, ret, rng};

        quic::SpinConfig spin{quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
        spin.naive_reflection = naive_reflection;

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
                server.send_stream(id, scanner::build_body(120'000), true);
            }
        };
        client.on_handshake_complete = [&] {
            client.send_stream(scanner::kRequestStream, scanner::build_request("www.a"),
                               true);
            // Bulk upload keeps the server acking continuously, so a stale
            // reflected value is actually transmitted (otherwise the server
            // is silent between ack-clocked flights and the blip stays
            // invisible).
            client.send_stream(4, std::vector<std::uint8_t>(100'000, 3), true);
        };
        client.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
            client.close(0, "done");
        };
        client.connect();
        sim.run_until(util::TimePoint::origin() + util::Duration::seconds(60));
        client.finalize_trace();

        const auto packets = core::spin_observations(trace);
        const auto result = core::measure_spin_rtt(packets, core::PacketOrder::received);
        ++outcome.connections;
        outcome.edges += result.edge_count;
        for (const double s : result.samples_ms) {
            if (s < kRttMs / 2) ++outcome.short_samples;
        }
        if (result.has_samples() && !trace.metrics.rtt_samples_ms.empty()) {
            double quic_mean = 0.0;
            for (const double s : trace.metrics.rtt_samples_ms) quic_mean += s;
            quic_mean /= static_cast<double>(trace.metrics.rtt_samples_ms.size());
            outcome.mean_errors.push_back(std::abs(result.mean_ms() - quic_mean) / quic_mean);
        }
    }
    return outcome;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr std::string_view kFlags[] = {"--seed=N", "--count=N"};
    const auto options = bench::parse_options(argc, argv, kFlags, /*default_count=*/200);
    bench::banner("Ablation — highest-PN spin reflection vs naive arrival order", options, kFlags);
    const auto connections = static_cast<std::size_t>(options.count);

    bench::Stopwatch watch;
    util::TextTable table;
    table.add_row({"reflection", "reorder", "edges/conn", "short samples", "median error"});
    for (const double rate : {0.0, 0.01, 0.05}) {
        for (const bool naive : {false, true}) {
            const auto outcome = sweep(naive, rate, connections, options.seed);
            const auto median = util::quantile(outcome.mean_errors, 0.5);
            table.add_row({naive ? "naive (ablated)" : "highest-PN (RFC 9000)",
                           util::fixed(rate, 3),
                           util::fixed(static_cast<double>(outcome.edges) /
                                           static_cast<double>(outcome.connections),
                                       1),
                           std::to_string(outcome.short_samples),
                           median ? util::percent(*median) : "-"});
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The RFC rule keeps the wave clean under incoming-path reordering; the\n"
                "naive rule multiplies edges and produces sub-RTT samples the moment the\n"
                "path reorders (why §17.4 specifies highest packet number).\n");
    std::printf("\ncompleted in %.1f s\n", watch.seconds());
    return 0;
}
