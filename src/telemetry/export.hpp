// spinscope/telemetry/export.hpp
//
// Registry exporters: machine-readable JSON (the bench sidecar format — one
// self-contained object per run so BENCH_*.json deltas can be attributed to
// specific phases), the deterministic CSV view the goldens compare, and the
// exact binary snapshot the campaign journal carries.
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

/// FULL-FIDELITY registry serialization for the campaign journal: a dense
/// binary form that round-trips every instrument exactly. It is the number
/// of present instruments, then per instrument its key — counters, gauges
/// and histograms share one key space in catalog id order, and each key is
/// written as its distance past the previous one — and its value: a
/// counter's count; a gauge's has-value byte and IEEE bits; a histogram's
/// count and, when non-zero, its sum, min and max bits and its non-empty
/// buckets (distance, count). Geometry is the catalog's, so it is not
/// written. An empty registry is the empty string. parse_snapshot(snapshot(r))
/// merged in place of r is indistinguishable from merging r itself.
[[nodiscard]] std::string snapshot(const MetricsRegistry& registry);

/// Parses a snapshot() string in one forward pass. Returns nullopt on
/// anything snapshot() would not emit — a truncated or overlong value, a key
/// past the catalog, a has-value byte other than 0 or 1, a bucket past the
/// catalog geometry or an empty one, bucket counts that disagree with the
/// histogram's count, trailing bytes — and never throws.
[[nodiscard]] std::optional<MetricsRegistry> parse_snapshot(std::string_view bytes);

}  // namespace spinscope::telemetry
