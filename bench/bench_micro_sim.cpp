// bench/bench_micro_sim.cpp
//
// google-benchmark microbenchmarks of the simulation layer: event-queue
// throughput, timer re-arming, link transmission, the spin observer hot
// path, and a full QUIC connection exchange — the quantities that bound how
// large a synthetic campaign one core can sweep.

#include <benchmark/benchmark.h>

#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "scanner/campaign.hpp"
#include "web/population.hpp"

namespace {

using namespace spinscope;

void BM_EventQueue(benchmark::State& state) {
    const auto events = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        netsim::Simulator sim;
        for (std::size_t i = 0; i < events; ++i) {
            sim.schedule_after(util::Duration::micros(static_cast<std::int64_t>(i % 97)),
                               [] {});
        }
        sim.run();
        benchmark::DoNotOptimize(sim.processed());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

void BM_TimerRearm(benchmark::State& state) {
    // The PTO pattern: every scheduled send re-arms one timer, so each send
    // event also queues a timer key that the next send makes stale. Items
    // are sends; each costs one event, one arm and one (mostly stale) pop.
    const auto sends = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        netsim::Simulator sim;
        std::size_t fired = 0;
        netsim::Timer pto{sim, [&fired] { ++fired; }};
        for (std::size_t i = 0; i < sends; ++i) {
            sim.schedule_after(util::Duration::micros(static_cast<std::int64_t>(i)),
                               [&pto] { pto.set_after(util::Duration::millis(30)); });
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sends));
}
BENCHMARK(BM_TimerRearm)->Arg(32)->Arg(1000);

void BM_LinkTransmission(benchmark::State& state) {
    netsim::Simulator sim;
    netsim::LinkConfig config;
    config.base_delay = util::Duration::micros(100);
    config.jitter_scale = util::Duration::micros(10);
    netsim::Link link{sim, config, util::Rng{1}};
    std::size_t received = 0;
    link.set_receiver([&received](spinscope::bytes::ConstByteSpan) { ++received; });
    const netsim::Datagram datagram(1200, 0xab);
    for (auto _ : state) {
        link.send(datagram.clone());
        sim.run();
    }
    benchmark::DoNotOptimize(received);
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1200);
}
BENCHMARK(BM_LinkTransmission);

void BM_SpinObserver(benchmark::State& state) {
    // Stream of observations with an edge every 16 packets.
    std::vector<core::SpinObservation> packets;
    bool value = false;
    for (int i = 0; i < 4096; ++i) {
        if (i % 16 == 0) value = !value;
        packets.push_back({util::TimePoint::from_nanos(i * 100'000),
                           static_cast<quic::PacketNumber>(i), value, 0});
    }
    for (auto _ : state) {
        core::SpinEdgeObserver observer;
        for (const auto& p : packets) observer.on_packet(p);
        benchmark::DoNotOptimize(observer.result().samples_ms.size());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SpinObserver);

void BM_MeasureSpinRtt(benchmark::State& state) {
    std::vector<core::SpinObservation> packets;
    bool value = false;
    for (int i = 0; i < 1024; ++i) {
        if (i % 16 == 0) value = !value;
        packets.push_back({util::TimePoint::from_nanos(i * 100'000),
                           static_cast<quic::PacketNumber>(i), value, 0});
    }
    const auto order = state.range(0) == 0 ? core::PacketOrder::received
                                           : core::PacketOrder::sorted;
    for (auto _ : state) {
        auto result = core::measure_spin_rtt(packets, order);
        benchmark::DoNotOptimize(result.samples_ms.size());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MeasureSpinRtt)->Arg(0)->Arg(1);

void BM_FullConnectionExchange(benchmark::State& state) {
    const auto response_bytes = static_cast<std::size_t>(state.range(0));
    util::Rng rng{7};
    for (auto _ : state) {
        netsim::Simulator sim;
        netsim::LinkConfig link;
        link.base_delay = util::Duration::millis(15);
        netsim::Path path{sim, link, link, rng};
        quic::ConnectionConfig ccfg;
        ccfg.role = quic::Role::client;
        quic::Connection client{sim, ccfg, rng.fork(1), [&path](netsim::Datagram dg) {
                                    path.forward_link().send(std::move(dg));
                                }};
        quic::ConnectionConfig scfg;
        scfg.role = quic::Role::server;
        quic::Connection server{sim, scfg, rng.fork(2), [&path](netsim::Datagram dg) {
                                    path.return_link().send(std::move(dg));
                                }};
        path.forward_link().set_receiver(
            [&server](spinscope::bytes::ConstByteSpan dg) { server.on_datagram(dg); });
        path.return_link().set_receiver(
            [&client](spinscope::bytes::ConstByteSpan dg) { client.on_datagram(dg); });
        server.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
            server.send_stream(0, std::vector<std::uint8_t>(response_bytes, 1), true);
        };
        client.on_handshake_complete = [&] {
            client.send_stream(0, std::vector<std::uint8_t>(200, 2), true);
        };
        client.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
            client.close(0, "done");
        };
        client.connect();
        sim.run_until(util::TimePoint::origin() + util::Duration::seconds(30));
        benchmark::DoNotOptimize(client.counters().packets_received);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(response_bytes));
}
BENCHMARK(BM_FullConnectionExchange)->Arg(20'000)->Arg(100'000);

void BM_CampaignDomainScan(benchmark::State& state) {
    const web::PopulationModel population{{50000.0, 20230520}};
    const auto universe = population.materialize(0, population.domain_count());
    scanner::Campaign campaign{population, {}};
    // Rotate over the QUIC-capable domains.
    std::vector<const web::Domain*> targets;
    for (const auto& d : universe.domains) {
        if (d.quic) targets.push_back(&d);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        const auto scan = campaign.scan_domain(*targets[next]);
        benchmark::DoNotOptimize(scan.connections.size());
        next = (next + 1) % targets.size();
    }
}
BENCHMARK(BM_CampaignDomainScan);

void BM_PopulationGeneration(benchmark::State& state) {
    const double scale = static_cast<double>(state.range(0));
    for (auto _ : state) {
        const web::PopulationModel population{{scale, 42}};
        benchmark::DoNotOptimize(population.materialize(0, population.domain_count()).size());
    }
}
BENCHMARK(BM_PopulationGeneration)->Arg(20000)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
