// perfbench/harness/catalog.hpp
//
// Every metric the benchmark emits, with its unit. BENCHMARK.json lists the
// same names and units; tests/test_perfbench.py holds the two together.
//
// End-to-end metrics are emitted by every workload (tracing off). Per-layer
// metrics come from the traced run, which measures the whole ledger; each
// layer is read from the pipeline that exercises it.

#pragma once

#include <string_view>

namespace perfbench {

struct MetricDef {
    const char* name;
    const char* unit;
    const char* better;  ///< "higher" or "lower"
};

inline constexpr MetricDef kEndToEnd[] = {
    {"domains_per_sec", "1/s", "higher"},
    {"cpu_us_per_domain", "us", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"setup_s", "s", "lower"},
};

inline constexpr MetricDef kPerLayer[] = {
    // web
    {"web.materialize.ns_per_domain", "ns/domain", "lower"},
    // scanner
    {"scanner.scan_chunk.ms.p50", "ms", "lower"},
    {"scanner.scan_chunk.ms.p99", "ms", "lower"},
    {"scanner.scan_chunk.samples", "count", "higher"},
    {"scanner.allocs_per_domain", "allocs/domain", "lower"},
    {"scanner.alloc_bytes_per_domain", "B/domain", "lower"},
    {"scanner.scan_domain.us.quic_ok", "us", "lower"},
    {"scanner.scan_domain.us.failed", "us", "lower"},
    {"scanner.scan_domain.us.unresolved", "us", "lower"},
    {"scanner.scan_domain.allocs.quic_ok", "allocs", "lower"},
    {"scanner.scan_domain.allocs.failed", "allocs", "lower"},
    {"scanner.scan_domain.allocs.unresolved", "allocs", "lower"},
    {"scanner.scan_domain.samples.quic_ok", "count", "higher"},
    {"scanner.scan_domain.samples.failed", "count", "higher"},
    {"scanner.scan_domain.samples.unresolved", "count", "higher"},
    // netsim, quic, bytes (chunk registry snapshots)
    {"netsim.events_per_domain", "events/domain", "lower"},
    {"netsim.queue_depth_hwm", "count", "lower"},
    {"quic.packets_per_domain", "pkts/domain", "lower"},
    {"quic.pto_per_attempt", "pto/attempt", "lower"},
    {"quic.handshake_ok_share", "share", "higher"},
    {"bytes.pool.hit_ratio", "share", "higher"},
    // qlog
    {"qlog.events_per_connection", "events/conn", "lower"},
    {"qlog.to_jsonl.ns_per_event", "ns/event", "lower"},
    // scanner journal
    {"journal.encode.us_per_chunk", "us/chunk", "lower"},
    {"journal.record_bytes_per_domain", "B/domain", "lower"},
    {"journal.publish.ms.p50", "ms", "lower"},
    {"journal.publish.ms.p99", "ms", "lower"},
    {"journal.publish.samples", "count", "higher"},
    {"journal.parse.us_per_chunk", "us/chunk", "lower"},
    // scanner procpool
    {"procpool.map_s", "s", "lower"},
    {"procpool.reduce_s", "s", "lower"},
    {"procpool.worker_cpu_s", "s", "lower"},
    {"procpool.map_efficiency", "share", "higher"},
    {"procpool.proc_restarts", "count", "lower"},
    {"procpool.io_errors", "count", "lower"},
    // analysis
    {"analysis.add.ns_per_domain", "ns/domain", "lower"},
    // telemetry
    {"telemetry.snapshot_bytes_per_chunk", "B/chunk", "lower"},
    {"telemetry.merge.us_per_chunk", "us/chunk", "lower"},
    // core (on-path observer) and the harness's wire generator
    {"core.on_datagram.ns_per_packet", "ns/packet", "lower"},
    {"wire.generate.ns_per_packet", "ns/packet", "lower"},
    {"core.tracked_share", "share", "higher"},
    {"core.collisions_per_kpacket", "count/kpacket", "lower"},
    {"core.harvest.ns_per_flow", "ns/flow", "lower"},
    // the tracing itself
    {"trace.sweep_inproc.overhead_share", "share", "lower"},
    {"trace.sweep_inproc.span_coverage", "share", "higher"},
    {"trace.sweep_durable.overhead_share", "share", "lower"},
    {"trace.sweep_durable.span_coverage", "share", "higher"},
    {"trace.observer_wire.overhead_share", "share", "lower"},
    {"trace.observer_wire.span_coverage", "share", "higher"},
};

/// The catalog entry of `name` in `defs`, or nullptr.
template <std::size_t N>
[[nodiscard]] constexpr const MetricDef* find_metric(const MetricDef (&defs)[N],
                                                     std::string_view name) noexcept {
    for (const MetricDef& def : defs) {
        if (name == def.name) return &def;
    }
    return nullptr;
}

}  // namespace perfbench
