// bench/bench_packet_path.cpp
//
// Zero-copy packet-path microbenchmarks: encode -> link -> deliver -> decode
// throughput and, more importantly, heap allocations per unit of work. The
// binary links telemetry/alloc_interpose.hpp (the shared operator new/delete
// probe this file's private interposition was promoted into), so every
// benchmark reports allocs_per_* counters straight into the standard
// google-benchmark JSON (--benchmark_out). The per-domain numbers are the
// ones quoted against the pre-refactor baseline.
//
// Beyond the google-benchmark mode, `--trajectory=FILE` runs a fixed-size
// scan-domain measurement and writes the BENCH_packet_path.json perf
// snapshot (see bench/trajectory.hpp) instead of the benchmark suite.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/trajectory.hpp"
#include "bytes/bytes.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "quic/connection.hpp"
#include "quic/frame.hpp"
#include "quic/packet.hpp"
#include "scanner/campaign.hpp"
#include "telemetry/alloc_interpose.hpp"
#include "web/population.hpp"

namespace {

using namespace spinscope;
using telemetry::AllocSnapshot;

// ---------------------------------------------------------------------------
// Tight codec loop: one 1-RTT packet encoded into a pooled datagram,
// pushed through a link, decoded at delivery.

void BM_EncodeDeliverDecode(benchmark::State& state) {
    netsim::Simulator sim;
    netsim::LinkConfig config;
    config.base_delay = util::Duration::micros(50);
    netsim::Link link{sim, config, util::Rng{1}};

    quic::PacketHeader header;
    header.type = quic::PacketType::one_rtt;
    header.dcid = quic::ConnectionId::from_u64(0x5c0);
    const std::vector<std::uint8_t> body(1000, 0xab);
    quic::StreamFrame stream;
    stream.stream_id = 0;
    stream.data = body;
    const quic::Frame frames[] = {stream};

    std::size_t decoded_frames = 0;
    quic::DecodedFrames scratch;
    link.set_receiver([&decoded_frames, &scratch](bytes::ConstByteSpan dg) {
        const auto packet = quic::decode_packet(dg, 8, quic::kInvalidPacketNumber);
        if (!packet) return;
        if (quic::decode_frames(packet->payload, 3, scratch)) {
            decoded_frames += scratch.frames.size();
        }
    });

    quic::PacketNumber pn = 0;
    const AllocSnapshot before;
    for (auto _ : state) {
        netsim::Datagram wire = bytes::Recycler::local().acquire(1500);
        header.packet_number = pn++;
        quic::Writer w{wire};
        quic::encode_short_header(w, header, quic::kInvalidPacketNumber);
        quic::encode_frames(w, frames, 3);
        link.send(std::move(wire));
        sim.run();
    }
    benchmark::DoNotOptimize(decoded_frames);
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_packet"] =
        benchmark::Counter(static_cast<double>(before.count_since()) / iters);
    state.counters["alloc_bytes_per_packet"] =
        benchmark::Counter(static_cast<double>(before.bytes_since()) / iters);
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EncodeDeliverDecode);

// ---------------------------------------------------------------------------
// Full QUIC connection exchange.

void BM_ConnectionExchange(benchmark::State& state) {
    util::Rng rng{7};
    const AllocSnapshot before;
    for (auto _ : state) {
        netsim::Simulator sim;
        netsim::LinkConfig link;
        link.base_delay = util::Duration::millis(15);
        netsim::Path path{sim, link, link, rng};
        quic::ConnectionConfig ccfg;
        ccfg.role = quic::Role::client;
        quic::Connection client{sim, ccfg, rng.fork(1),
                                [&path](netsim::Datagram dg) {
                                    path.forward_link().send(std::move(dg));
                                }};
        quic::ConnectionConfig scfg;
        scfg.role = quic::Role::server;
        quic::Connection server{sim, scfg, rng.fork(2),
                                [&path](netsim::Datagram dg) {
                                    path.return_link().send(std::move(dg));
                                }};
        path.forward_link().set_receiver(
            [&server](bytes::ConstByteSpan dg) { server.on_datagram(dg); });
        path.return_link().set_receiver(
            [&client](bytes::ConstByteSpan dg) { client.on_datagram(dg); });
        server.on_stream_complete = [&](std::uint64_t, std::span<const std::uint8_t>) {
            server.send_stream(0, std::vector<std::uint8_t>(30'000, 1), true);
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
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_connection"] =
        benchmark::Counter(static_cast<double>(before.count_since()) / iters);
    state.counters["alloc_bytes_per_connection"] =
        benchmark::Counter(static_cast<double>(before.bytes_since()) / iters);
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 30'000);
}
BENCHMARK(BM_ConnectionExchange);

// ---------------------------------------------------------------------------
// Whole scanned domain (resolution, handshake, request, response, qlog),
// the unit the acceptance criterion is stated in.

void BM_ScanDomain(benchmark::State& state) {
    const web::PopulationModel population{{20000.0, 20230520}};
    const auto universe = population.materialize(0, population.domain_count());
    scanner::ScanOptions options;
    options.week = 57;
    scanner::Campaign campaign{population, options};
    std::vector<const web::Domain*> targets;
    for (const auto& d : universe.domains) {
        if (d.quic) targets.push_back(&d);
    }
    std::size_t next = 0;
    const AllocSnapshot before;
    for (auto _ : state) {
        const auto scan = campaign.scan_domain(*targets[next]);
        benchmark::DoNotOptimize(scan.connections.size());
        next = (next + 1) % targets.size();
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_domain"] =
        benchmark::Counter(static_cast<double>(before.count_since()) / iters);
    state.counters["alloc_bytes_per_domain"] =
        benchmark::Counter(static_cast<double>(before.bytes_since()) / iters);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScanDomain);

// ---------------------------------------------------------------------------
// Perf-trajectory mode: a fixed-count scan-domain loop (same workload as
// BM_ScanDomain, fixed iterations instead of benchmark's adaptive search)
// measured into the committed BENCH_packet_path.json snapshot.

int run_trajectory(const std::string& path, std::uint64_t count) {
    const web::PopulationModel population{{20000.0, 20230520}};
    const auto universe = population.materialize(0, population.domain_count());
    scanner::ScanOptions options;
    options.week = 57;
    scanner::Campaign campaign{population, options};
    std::vector<const web::Domain*> targets;
    for (const auto& d : universe.domains) {
        if (d.quic) targets.push_back(&d);
    }
    if (targets.empty()) {
        std::fprintf(stderr, "trajectory: population has no QUIC targets\n");
        return 1;
    }

    const AllocSnapshot before;
    const auto start = std::chrono::steady_clock::now();
    std::size_t next = 0;
    std::size_t connections = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto scan = campaign.scan_domain(*targets[next]);
        connections += scan.connections.size();
        next = (next + 1) % targets.size();
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    const auto trajectory =
        bench::measure_trajectory("packet_path", count, wall, before);
    std::printf("trajectory: %llu domains, %zu connections in %.2f s\n",
                static_cast<unsigned long long>(count), connections, wall);
    return bench::write_trajectory_file(path, trajectory) ? 0 : 1;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off --trajectory[=FILE] and
// --trajectory_count=N before google-benchmark sees the argv (it rejects
// unknown flags), then either run the trajectory measurement or fall through
// to the normal benchmark suite.
int main(int argc, char** argv) {
    std::string trajectory_path;
    std::uint64_t trajectory_count = 192;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trajectory=", 13) == 0) {
            trajectory_path = argv[i] + 13;
        } else if (std::strncmp(argv[i], "--trajectory_count=", 19) == 0) {
            // A count that does not parse whole, or 0, would measure nothing
            // and still write a trajectory row.
            if (!bench::parse_whole(std::string_view{argv[i] + 19}, trajectory_count) ||
                trajectory_count == 0) {
                std::fprintf(stderr,
                             "bad argument '%s'\nusage: %s [--trajectory=FILE "
                             "[--trajectory_count=N]] [google-benchmark flags]\n",
                             argv[i], argv[0]);
                return 2;
            }
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;

    if (!trajectory_path.empty()) {
        return run_trajectory(trajectory_path, trajectory_count);
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
