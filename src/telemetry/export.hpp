// spinscope/telemetry/export.hpp
//
// Registry exporters: machine-readable JSON (the bench sidecar format — one
// self-contained object per run so BENCH_*.json deltas can be attributed to
// specific phases), the deterministic CSV view the goldens compare, and the
// exact snapshot form the campaign journal carries.
//
// Field order is deterministic (name-sorted, fixed key order per object), so
// two runs of the same binary produce byte-identical output modulo the
// metric values themselves — sidecars are diffable.

#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"

namespace spinscope::telemetry {

/// Serializes the whole registry as one JSON object:
///
///   {"schema":"spinscope-telemetry-v1",
///    "counters":{"name":123,...},
///    "gauges":{"name":1.5,...},
///    "histograms":{"name":{"count":N,"sum":S,"min":m,"max":M,
///                          "spec":{"min_value":..,"factor":..,"buckets":N},
///                          "bucket_counts":[...]},...}}
[[nodiscard]] std::string to_json(const MetricsRegistry& registry);

/// True when `name` records host wall-clock time and is therefore different
/// on every run by nature: phase spans (".phase." infix, see ScopedTimer)
/// and wall-clock-derived rates ("_per_sec" suffix). Everything else in the
/// registry is a pure function of (population, options, seed).
[[nodiscard]] bool is_wall_clock_metric(const std::string& name);

/// True when `name` depends on shard chunk geometry rather than on scan
/// results: the "bytes.pool" datagram-pool counters (hit/miss ratios change
/// with how many domains share one chunk-private pool, DESIGN.md §10) — so
/// the deterministic view must drop them even though they are repeatable
/// for a fixed chunk size.
[[nodiscard]] bool is_chunk_geometry_metric(const std::string& name);

/// True when `name` records crash-recovery bookkeeping rather than scan
/// results: the "campaign." prefix (journal replay counters, quarantine and
/// worker-restart counts, DESIGN.md §11). A resumed campaign replays journal
/// records where an uninterrupted one scans, so these counters necessarily
/// differ between the two even though the scan output is byte-identical —
/// the deterministic view must drop them.
[[nodiscard]] bool is_recovery_metric(const std::string& name);

/// The DETERMINISM-CONTRACT view of a registry (DESIGN.md §9), as flat CSV
/// `kind,name,field,value` rows (counters/gauges one row each, histograms
/// one row per summary field plus one per non-empty bucket), minus (a)
/// wall-clock metrics, (b) chunk-geometry metrics (buffer-pool counters),
/// (c) recovery metrics, and (d) histogram `sum` rows, whose floating-point
/// accumulation order depends on the shard chunk size. Two campaigns with
/// identical population + ScanOptions produce byte-identical
/// deterministic_csv output regardless of thread count, chunk size or host
/// load — this is the representation the golden fixtures and the parallel
/// determinism suite compare.
[[nodiscard]] std::string deterministic_csv(const MetricsRegistry& registry);

/// Writes to_json() to `path` atomically (util::write_file_atomic): a crash
/// mid-export leaves the previous sidecar intact, never a torn file.
/// Returns false when the file cannot be written.
bool write_json_file(const MetricsRegistry& registry, const std::string& path);

/// FULL-FIDELITY registry serialization for the campaign journal: a
/// line-based text form that round-trips every instrument exactly —
/// counters, gauges (including has-value state), histogram geometry, bucket
/// counts and the floating-point count/sum/min/max (printed with %.17g, so
/// the parsed doubles are bit-identical). Metric names must not contain
/// whitespace (spinscope names are dotted identifiers). Unlike to_json this
/// form exists to be parsed back: parse_snapshot(snapshot(r)) merged in
/// place of r is indistinguishable from merging r itself.
[[nodiscard]] std::string snapshot(const MetricsRegistry& registry);

/// Parses a snapshot() string in one forward pass. Returns nullopt on
/// anything snapshot() would not emit: a malformed or unterminated line, an
/// unknown record kind, kinds or names out of the writer's sorted order, or
/// a histogram-geometry inconsistency.
[[nodiscard]] std::optional<MetricsRegistry> parse_snapshot(std::string_view text);

}  // namespace spinscope::telemetry
