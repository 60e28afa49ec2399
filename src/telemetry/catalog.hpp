// spinscope/telemetry/catalog.hpp
//
// The metric catalog: every metric spinscope publishes, in one compile-time
// table. An entry's id type is its kind (CounterId, GaugeId, HistogramId);
// the entry gives its dotted name, its class and, for a histogram, its
// bucket geometry. A MetricsRegistry holds one dense array per kind indexed
// by id, so publishing never touches a name. Within a kind, ids follow name
// order (checked at compile time), so every export walks names in order.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace spinscope::telemetry {

/// What a metric's value depends on. deterministic_csv (DESIGN.md §9) keeps
/// only the `deterministic` class.
enum class MetricClass : std::uint8_t {
    deterministic,   ///< a pure function of (population, options, seed)
    wall_clock,      ///< host wall time: phase spans and wall-derived rates
    chunk_geometry,  ///< chunk size or thread lanes (byte recycler, trace recorder)
    host,            ///< recovery bookkeeping (campaign.*) and host resources (obs.*)
};

inline constexpr std::size_t kMaxBuckets = 32;

/// Log-scale histogram buckets: bucket i starts at bounds[i] =
/// min_value * factor^i, by repeated multiplication, so bucketing is exact
/// and platform-independent. Values below bounds[0] land in bucket 0, values
/// at or above the last bound in the last bucket.
struct HistogramGeometry {
    double min_value;
    double factor;
    std::size_t bucket_count;
    std::array<double, kMaxBuckets> bounds;
};

constexpr HistogramGeometry log_geometry(double min_value, double factor, std::size_t count) {
    HistogramGeometry geometry{min_value, factor, count, {}};
    for (std::size_t i = 0; i < count; ++i) {
        geometry.bounds[i] = i == 0 ? min_value : geometry.bounds[i - 1] * factor;
    }
    return geometry;
}

/// Wall-clock milliseconds: 1 us doubling 32 times (to ~4300 s).
inline constexpr HistogramGeometry kWallMs = log_geometry(0.001, 2.0, 32);
/// Simulated milliseconds: 0.1 ms doubling 24 times (to ~28 min).
inline constexpr HistogramGeometry kSimMs = log_geometry(0.1, 2.0, 24);

// X(id, name, class) per counter and gauge, X(id, name, class, geometry)
// per histogram, in name order within each kind.

#define SPINSCOPE_COUNTERS(X) \
    X(bytes_pool_acquires, "bytes.pool.acquires", chunk_geometry) \
    X(bytes_pool_hits, "bytes.pool.hits", chunk_geometry) \
    X(bytes_pool_misses, "bytes.pool.misses", chunk_geometry) \
    X(bytes_pool_recycled, "bytes.pool.recycled", chunk_geometry) \
    X(bytes_pool_trimmed, "bytes.pool.trimmed", chunk_geometry) \
    X(campaign_journal_corrupt_map_chunks, "campaign.journal.corrupt_map_chunks", host) \
    X(campaign_journal_degraded, "campaign.journal.degraded", host) \
    X(campaign_journal_io_errors_corrupting, "campaign.journal.io_errors.corrupting", host) \
    X(campaign_journal_io_errors_fatal, "campaign.journal.io_errors.fatal", host) \
    X(campaign_journal_io_errors_transient, "campaign.journal.io_errors.transient", host) \
    X(campaign_journal_records_appended, "campaign.journal.records_appended", host) \
    X(campaign_journal_records_replayed, "campaign.journal.records_replayed", host) \
    X(campaign_quarantined_chunks, "campaign.quarantined_chunks", host) \
    X(campaign_quarantined_domains, "campaign.quarantined_domains", host) \
    X(campaign_restarted_procs, "campaign.restarted_procs", host) \
    X(campaign_restarted_workers, "campaign.restarted_workers", host) \
    X(netsim_link_forward_delivered, "netsim.link.forward.delivered", deterministic) \
    X(netsim_link_forward_delivered_bytes, "netsim.link.forward.delivered_bytes", deterministic) \
    X(netsim_link_forward_dropped, "netsim.link.forward.dropped", deterministic) \
    X(netsim_link_forward_dropped_bytes, "netsim.link.forward.dropped_bytes", deterministic) \
    X(netsim_link_forward_fault_blackhole_dropped, \
      "netsim.link.forward.fault.blackhole_dropped", deterministic) \
    X(netsim_link_forward_fault_burst_dropped, \
      "netsim.link.forward.fault.burst_dropped", deterministic) \
    X(netsim_link_forward_fault_burst_entries, \
      "netsim.link.forward.fault.burst_entries", deterministic) \
    X(netsim_link_forward_fault_delay_spiked, \
      "netsim.link.forward.fault.delay_spiked", deterministic) \
    X(netsim_link_forward_fault_duplicated, "netsim.link.forward.fault.duplicated", deterministic) \
    X(netsim_link_forward_reordered, "netsim.link.forward.reordered", deterministic) \
    X(netsim_link_forward_sent, "netsim.link.forward.sent", deterministic) \
    X(netsim_link_return_delivered, "netsim.link.return.delivered", deterministic) \
    X(netsim_link_return_delivered_bytes, "netsim.link.return.delivered_bytes", deterministic) \
    X(netsim_link_return_dropped, "netsim.link.return.dropped", deterministic) \
    X(netsim_link_return_dropped_bytes, "netsim.link.return.dropped_bytes", deterministic) \
    X(netsim_link_return_fault_blackhole_dropped, \
      "netsim.link.return.fault.blackhole_dropped", deterministic) \
    X(netsim_link_return_fault_burst_dropped, \
      "netsim.link.return.fault.burst_dropped", deterministic) \
    X(netsim_link_return_fault_burst_entries, \
      "netsim.link.return.fault.burst_entries", deterministic) \
    X(netsim_link_return_fault_delay_spiked, \
      "netsim.link.return.fault.delay_spiked", deterministic) \
    X(netsim_link_return_fault_duplicated, "netsim.link.return.fault.duplicated", deterministic) \
    X(netsim_link_return_reordered, "netsim.link.return.reordered", deterministic) \
    X(netsim_link_return_sent, "netsim.link.return.sent", deterministic) \
    X(netsim_sim_events_conn_flush, "netsim.sim.events.conn.flush", deterministic) \
    X(netsim_sim_events_link_delivery, "netsim.sim.events.link.delivery", deterministic) \
    X(netsim_sim_events_timer, "netsim.sim.events.timer", deterministic) \
    X(netsim_sim_events_processed, "netsim.sim.events_processed", deterministic) \
    X(netsim_sim_events_scheduled, "netsim.sim.events_scheduled", deterministic) \
    X(obs_proc_chunks_quarantined, "obs.proc.chunks_quarantined", host) \
    X(obs_proc_chunks_scanned_inline, "obs.proc.chunks_scanned_inline", host) \
    X(obs_proc_hang_kills, "obs.proc.hang_kills", host) \
    X(obs_proc_io_errors, "obs.proc.io_errors", host) \
    X(obs_proc_worker_alloc_bytes, "obs.proc.worker_alloc_bytes", host) \
    X(obs_proc_worker_allocs, "obs.proc.worker_allocs", host) \
    X(quic_conn_attempts, "quic.conn.attempts", deterministic) \
    X(quic_conn_bytes_received, "quic.conn.bytes_received", deterministic) \
    X(quic_conn_bytes_sent, "quic.conn.bytes_sent", deterministic) \
    X(quic_conn_failed_after_handshake, "quic.conn.failed_after_handshake", deterministic) \
    X(quic_conn_grease_suspected, "quic.conn.grease_suspected", deterministic) \
    X(quic_conn_handshake_completed, "quic.conn.handshake_completed", deterministic) \
    X(quic_conn_handshake_failed, "quic.conn.handshake_failed", deterministic) \
    X(quic_conn_packets_lost, "quic.conn.packets_lost", deterministic) \
    X(quic_conn_packets_received, "quic.conn.packets_received", deterministic) \
    X(quic_conn_packets_sent, "quic.conn.packets_sent", deterministic) \
    X(quic_conn_protocol_error, "quic.conn.protocol_error", deterministic) \
    X(quic_conn_pto_fired, "quic.conn.pto_fired", deterministic) \
    X(quic_conn_spin_edges_observed, "quic.conn.spin_edges_observed", deterministic) \
    X(scanner_connections, "scanner.connections", deterministic) \
    X(scanner_domains_errored, "scanner.domains_errored", deterministic) \
    X(scanner_domains_quic_ok, "scanner.domains_quic_ok", deterministic) \
    X(scanner_domains_resolved, "scanner.domains_resolved", deterministic) \
    X(scanner_domains_scanned, "scanner.domains_scanned", deterministic) \
    X(scanner_outcome_aborted, "scanner.outcome.aborted", deterministic) \
    X(scanner_outcome_attempt_timeout, "scanner.outcome.attempt_timeout", deterministic) \
    X(scanner_outcome_handshake_timeout, "scanner.outcome.handshake_timeout", deterministic) \
    X(scanner_outcome_ok, "scanner.outcome.ok", deterministic) \
    X(scanner_outcome_protocol_error, "scanner.outcome.protocol_error", deterministic) \
    X(scanner_redirects_followed, "scanner.redirects_followed", deterministic) \
    X(scanner_server_fault_garbage_payload, "scanner.server_fault.garbage_payload", deterministic) \
    X(scanner_server_fault_handshake_stall, "scanner.server_fault.handshake_stall", deterministic) \
    X(scanner_server_fault_mid_transfer_abort, \
      "scanner.server_fault.mid_transfer_abort", deterministic) \
    X(scanner_server_fault_never_ack, "scanner.server_fault.never_ack", deterministic) \
    X(trace_events_sim, "trace.events_sim", chunk_geometry) \
    X(trace_events_wall, "trace.events_wall", chunk_geometry) \
    X(trace_lanes, "trace.lanes", chunk_geometry)

#define SPINSCOPE_GAUGES(X) \
    X(bytes_pool_outstanding_hwm, "bytes.pool.outstanding_hwm", chunk_geometry) \
    X(netsim_sim_queue_depth_hwm, "netsim.sim.queue_depth_hwm", deterministic) \
    X(obs_proc_peak_worker_rss_bytes, "obs.proc.peak_worker_rss_bytes", host) \
    X(obs_proc_procs, "obs.proc.procs", host) \
    X(obs_resource_campaign_alloc_bytes, "obs.resource.campaign.alloc_bytes", host) \
    X(obs_resource_campaign_allocs, "obs.resource.campaign.allocs", host) \
    X(obs_resource_campaign_peak_rss_bytes, "obs.resource.campaign.peak_rss_bytes", host) \
    X(obs_resource_campaign_wall_seconds, "obs.resource.campaign.wall_seconds", host) \
    X(scanner_domains_per_sec, "scanner.domains_per_sec", wall_clock) \
    X(scanner_quic_ok_rate, "scanner.quic_ok_rate", deterministic)

#define SPINSCOPE_HISTOGRAMS(X) \
    X(quic_conn_min_rtt_ms, "quic.conn.min_rtt_ms", deterministic, kSimMs) \
    X(quic_conn_smoothed_rtt_ms, "quic.conn.smoothed_rtt_ms", deterministic, kSimMs) \
    X(scanner_attempt_sim_ms, "scanner.attempt_sim_ms", deterministic, kSimMs) \
    X(scanner_phase_attempt_ms, "scanner.phase.attempt_ms", wall_clock, kWallMs) \
    X(scanner_phase_finalize_ms, "scanner.phase.finalize_ms", wall_clock, kWallMs) \
    X(scanner_phase_redirect_ms, "scanner.phase.redirect_ms", wall_clock, kWallMs) \
    X(scanner_phase_resolve_ms, "scanner.phase.resolve_ms", wall_clock, kWallMs)

struct MetricInfo {
    std::string_view name;
    MetricClass metric_class;
    const HistogramGeometry* geometry = nullptr;  ///< histograms only
};

#define SPINSCOPE_METRIC_ID(id, ...) id,
enum class CounterId : std::uint8_t { SPINSCOPE_COUNTERS(SPINSCOPE_METRIC_ID) };
enum class GaugeId : std::uint8_t { SPINSCOPE_GAUGES(SPINSCOPE_METRIC_ID) };
enum class HistogramId : std::uint8_t { SPINSCOPE_HISTOGRAMS(SPINSCOPE_METRIC_ID) };
#undef SPINSCOPE_METRIC_ID

#define SPINSCOPE_METRIC_INFO(id, name, cls, ...) \
    MetricInfo{name, MetricClass::cls __VA_OPT__(, &__VA_ARGS__)},
inline constexpr std::array kCounters{SPINSCOPE_COUNTERS(SPINSCOPE_METRIC_INFO)};
inline constexpr std::array kGauges{SPINSCOPE_GAUGES(SPINSCOPE_METRIC_INFO)};
inline constexpr std::array kHistograms{SPINSCOPE_HISTOGRAMS(SPINSCOPE_METRIC_INFO)};
#undef SPINSCOPE_METRIC_INFO

namespace detail {

constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value, int bytes = 8) {
    for (int i = 0; i < bytes; ++i) {
        hash = (hash ^ ((value >> (8 * i)) & 0xFFU)) * 0x100000001b3ULL;
    }
    return hash;
}

/// Folds one kind's entries; `histograms` says whether they carry a
/// geometry (a null test on a constexpr pointer is not a constant
/// expression in every sanitizer build).
template <std::size_t N>
constexpr std::uint64_t fold_catalog(std::uint64_t hash,
                                     const std::array<MetricInfo, N>& catalog,
                                     bool histograms) {
    hash = fnv1a(hash, N);
    for (const MetricInfo& entry : catalog) {
        for (const char c : entry.name) hash = fnv1a(hash, static_cast<unsigned char>(c), 1);
        hash = fnv1a(hash, static_cast<std::uint64_t>(entry.metric_class), 1);
        if (histograms) {
            hash = fnv1a(hash, entry.geometry->bucket_count);
            hash = fnv1a(hash, std::bit_cast<std::uint64_t>(entry.geometry->min_value));
            hash = fnv1a(hash, std::bit_cast<std::uint64_t>(entry.geometry->factor));
        }
    }
    return hash;
}

}  // namespace detail

/// FNV-1a of every entry's kind, name, class and histogram geometry.
/// Telemetry snapshots are keyed by catalog index, so a build reads another
/// build's snapshots only when their fingerprints agree; the campaign
/// journal's header records it.
inline constexpr std::uint64_t kCatalogFingerprint = detail::fold_catalog(
    detail::fold_catalog(detail::fold_catalog(0xcbf29ce484222325ULL, kCounters, false),
                         kGauges, false),
    kHistograms, true);

/// The counter `n` entries after `id`, for a family laid out in a known order.
constexpr CounterId operator+(CounterId id, std::size_t n) {
    return static_cast<CounterId>(static_cast<std::size_t>(id) + n);
}

template <std::size_t N>
constexpr bool in_name_order(const std::array<MetricInfo, N>& catalog) {
    return std::ranges::adjacent_find(catalog, std::greater_equal<>{}, &MetricInfo::name) ==
           catalog.end();
}
static_assert(in_name_order(kCounters) && in_name_order(kGauges) && in_name_order(kHistograms),
              "catalog names must be unique and in name order within each kind");

constexpr const MetricInfo& info(CounterId id) { return kCounters[static_cast<std::size_t>(id)]; }
constexpr const MetricInfo& info(GaugeId id) { return kGauges[static_cast<std::size_t>(id)]; }
constexpr const MetricInfo& info(HistogramId id) {
    return kHistograms[static_cast<std::size_t>(id)];
}

/// Index of the entry named `name` among catalog[from, end), or
/// catalog.size() when there is none.
template <std::size_t N>
constexpr std::size_t find_index(const std::array<MetricInfo, N>& catalog, std::string_view name,
                                 std::size_t from = 0) {
    const auto it = std::ranges::lower_bound(catalog.begin() + from, catalog.end(), name, {},
                                             &MetricInfo::name);
    return it != catalog.end() && it->name == name ? static_cast<std::size_t>(it - catalog.begin())
                                                   : N;
}

// The enum-named families as tables indexed by enum value. A family is
// contiguous in the catalog but in name order, which need not be the enum's
// (Catalog.EnumFamiliesMatchTheirEnums pins every entry to its enum name).
// netsim.sim.events.<netsim::EventCategory> needs no table: that enum is in
// name order, so it indexes the family from netsim_sim_events_conn_flush.

/// scanner.outcome.<qlog::ConnectionOutcome>
inline constexpr std::array kOutcomeCounters{
    CounterId::scanner_outcome_ok, CounterId::scanner_outcome_handshake_timeout,
    CounterId::scanner_outcome_aborted, CounterId::scanner_outcome_attempt_timeout,
    CounterId::scanner_outcome_protocol_error};
/// scanner.server_fault.<faults::ServerFaultMode>, from value 1: `none` is
/// never counted.
inline constexpr std::array kServerFaultCounters{
    CounterId::scanner_server_fault_handshake_stall,
    CounterId::scanner_server_fault_mid_transfer_abort,
    CounterId::scanner_server_fault_garbage_payload, CounterId::scanner_server_fault_never_ack};
/// campaign.journal.io_errors.<util::IoErrorClass>
inline constexpr std::array kIoErrorCounters{CounterId::campaign_journal_io_errors_transient,
                                             CounterId::campaign_journal_io_errors_fatal,
                                             CounterId::campaign_journal_io_errors_corrupting};

}  // namespace spinscope::telemetry
