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

/// The DETERMINISM-CONTRACT view of a registry (DESIGN.md §9), as flat CSV
/// `kind,name,field,value` rows (counters/gauges one row each, histograms
/// one row per summary field plus one per non-empty bucket) of the metrics
/// whose catalog class is MetricClass::deterministic, minus histogram `sum`
/// rows, whose floating-point accumulation order depends on the shard chunk
/// size. Two campaigns with identical population + ScanOptions produce
/// byte-identical deterministic_csv output regardless of thread count,
/// chunk size or host load — the goldens and the determinism suite compare
/// this.
[[nodiscard]] std::string deterministic_csv(const MetricsRegistry& registry);

/// Writes to_json() to `path` atomically (util::write_file_atomic): a crash
/// mid-export leaves the previous sidecar intact, never a torn file.
/// Returns false when the file cannot be written.
bool write_json_file(const MetricsRegistry& registry, const std::string& path);

/// FULL-FIDELITY registry serialization for the campaign journal: a
/// line-based text form that round-trips every instrument exactly —
/// counters, gauges (including has-value state), histogram geometry, bucket
/// counts and the floating-point count/sum/min/max (printed with %.17g, so
/// the parsed doubles are bit-identical). Unlike to_json this form exists
/// to be parsed back: parse_snapshot(snapshot(r)) merged in place of r is
/// indistinguishable from merging r itself.
[[nodiscard]] std::string snapshot(const MetricsRegistry& registry);

/// Parses a snapshot() string in one forward pass, mapping each name to its
/// catalog id. Returns nullopt on anything snapshot() would not emit: a
/// malformed or unterminated line, an unknown record kind or metric name,
/// kinds or ids out of the writer's order (which rejects repeats), or a
/// histogram whose geometry differs from the catalog's.
[[nodiscard]] std::optional<MetricsRegistry> parse_snapshot(std::string_view text);

}  // namespace spinscope::telemetry
