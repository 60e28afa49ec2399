// examples/quickstart.cpp
//
// Minimal end-to-end tour of the spinscope API:
//  1. build a client/server QUIC connection over a simulated path,
//  2. fetch a page with the HTTP/3-mini scanner logic,
//  3. measure the RTT passively from the spin bit and compare it with the
//     QUIC stack's own estimate — the comparison at the heart of the paper.

#include <cstdio>

#include "core/accuracy.hpp"
#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "scanner/http3_mini.hpp"
#include "util/format.hpp"

using namespace spinscope;

int main() {
    netsim::Simulator sim;
    util::Rng rng{42};

    // A 30 ms-RTT path with mild jitter.
    netsim::LinkConfig link;
    link.base_delay = util::Duration::millis(15);
    link.jitter_scale = util::Duration::millis(1);
    netsim::Path path{sim, link, link, rng};

    // A passive on-path observer on the server->client direction, like a
    // middlebox colocated with the client's access network.
    core::SpinEdgeObserver wire_tap;
    path.return_link().add_tap(wire_tap.tap());

    // Client: the measuring endpoint, records a qlog trace.
    qlog::Trace trace;
    trace.host = "www.example.org";
    trace.ip = "192.0.2.80";
    quic::ConnectionConfig client_cfg;
    client_cfg.role = quic::Role::client;
    client_cfg.spin = {quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
    quic::Connection client{
        sim, client_cfg, rng.fork(1),
        [&path](netsim::Datagram dg) { path.forward_link().send(std::move(dg)); }, &trace};

    // Server: spin-enabled, answers the request with a 40 kB page after a
    // 5 ms think time.
    quic::ConnectionConfig server_cfg;
    server_cfg.role = quic::Role::server;
    server_cfg.spin = {quic::SpinPolicy::spin, 0, quic::SpinPolicy::always_zero};
    quic::Connection server{
        sim, server_cfg, rng.fork(2),
        [&path](netsim::Datagram dg) { path.return_link().send(std::move(dg)); }, nullptr};

    path.forward_link().set_receiver(
        [&server](spinscope::bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver(
        [&client](spinscope::bytes::ConstByteSpan dg) { client.on_datagram(dg); });

    server.on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t>) {
        if (id != scanner::kRequestStream) return;
        sim.schedule_after(util::Duration::millis(5), [&] {
            server.send_stream(scanner::kRequestStream,
                               scanner::build_response_headers(200, "", "example-stack"),
                               false);
            server.send_stream(scanner::kRequestStream, scanner::build_body(40'000), true);
        });
    };
    client.on_handshake_complete = [&] {
        client.send_stream(scanner::kRequestStream,
                           scanner::build_request("www.example.org"), true);
    };
    client.on_stream_complete = [&](std::uint64_t id, std::span<const std::uint8_t> data) {
        if (id != scanner::kRequestStream) return;
        const auto response = scanner::parse_response(data);
        std::printf("response: status=%d server=%s body=%zu bytes\n",
                    response ? response->status : -1,
                    response ? response->server_name.c_str() : "?",
                    response ? response->body_bytes : 0);
        client.close(0, "done");
    };

    client.connect();
    sim.run_until(util::TimePoint::origin() + util::Duration::seconds(30));
    client.finalize_trace();
    trace.outcome = qlog::ConnectionOutcome::ok;

    // Offline analysis of the client's qlog — the paper's §3.3 pipeline.
    const auto assessment = core::assess_connection(trace);
    std::printf("\nconnection classified as: %s\n", core::to_cstring(assessment.behavior));
    std::printf("QUIC stack RTT  : mean %.2f ms (min %.2f ms, %zu samples)\n",
                assessment.quic_mean_ms, assessment.quic_min_ms,
                trace.metrics.rtt_samples_ms.size());
    std::printf("spin-bit RTT (R): mean %.2f ms (%zu samples, %u edges)\n",
                assessment.spin_received.mean_ms(), assessment.spin_received.samples_ms.size(),
                assessment.spin_received.edge_count);
    if (const auto ratio = assessment.mapped_ratio(core::PacketOrder::received)) {
        std::printf("mapped ratio    : %.2f\n", *ratio);
    }
    std::printf("\nwire observer saw %zu short-header packets, %zu spin samples, mean %.2f ms\n",
                wire_tap.short_header_packets(),
                wire_tap.result().samples_ms.size(), wire_tap.result().mean_ms());
    std::printf("events processed: %llu, sim time: %s\n",
                static_cast<unsigned long long>(sim.processed()),
                util::to_string(sim.now() - util::TimePoint::origin()).c_str());
    return 0;
}
