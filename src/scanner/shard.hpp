// spinscope/scanner/shard.hpp
//
// Deterministic parallel sharding for the campaign driver.
//
// The paper sweeps >200 M domains weekly; a sequential scanner is the repro's
// bottleneck. The engine here partitions an index range [0, item_count) into
// fixed-size chunks, lets a pool of std::thread workers claim chunks from an
// atomic cursor, and hands every finished chunk to the CALLING thread in
// ascending chunk order (streaming: chunk c is merged as soon as it and all
// chunks before it are done, while later chunks are still being scanned).
//
// Determinism contract (DESIGN.md §9): chunk boundaries depend only on
// (item_count, chunk_items) — never on the number of workers or on
// scheduling — and the merge order is always ascending. Provided the
// per-chunk work is a pure function of the chunk (spinscope campaigns
// guarantee this via domain-keyed RNG sub-streams), the merged output is
// byte-identical for every thread count.

#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace spinscope::scanner {

/// Worker-pool knobs of one sharded run.
struct ShardConfig {
    /// Worker threads; 0 = one per hardware thread (at least one).
    unsigned threads = 1;

    /// `threads` with 0 resolved to the hardware concurrency (>= 1).
    [[nodiscard]] unsigned resolved_threads() const noexcept;

    /// Chunks admitted past the merge frontier at once: max(4 * threads,
    /// 32). Workers that claim a chunk beyond `merged + window` block until
    /// the merge thread catches up, so the peak number of
    /// scanned-but-unmerged chunk results — and thus the driver's RSS — is
    /// bounded by the window instead of the chunk count. Purely a
    /// scheduling constraint: output bytes are unaffected.
    [[nodiscard]] std::size_t window_chunks() const noexcept;
};

/// Pure chunk geometry: how [0, item_count) splits into fixed-size chunks.
struct ShardPlan {
    std::size_t item_count = 0;
    std::size_t chunk_items = 1;

    [[nodiscard]] std::size_t chunk_count() const noexcept {
        return chunk_items == 0 ? 0 : (item_count + chunk_items - 1) / chunk_items;
    }
    [[nodiscard]] std::size_t chunk_begin(std::size_t chunk) const noexcept {
        return chunk * chunk_items;
    }
    [[nodiscard]] std::size_t chunk_end(std::size_t chunk) const noexcept {
        const std::size_t end = chunk_begin(chunk) + chunk_items;
        return end < item_count ? end : item_count;
    }
};

/// Human-readable chunk locator for diagnostics: "chunk 42 (domains
/// [672, 688))". Error messages that name a chunk should include the domain
/// range so an operator can find the poisoned block without re-deriving the
/// chunk geometry by hand.
[[nodiscard]] std::string describe_chunk(const ShardPlan& plan, std::size_t chunk);

/// Chunked fan-out / ordered-merge executor.
///
/// `scan(c)` is invoked exactly once per chunk, concurrently from worker
/// threads, and must leave the chunk's result somewhere the caller owns
/// (e.g. a pre-sized vector slot — slot c is touched only by `scan(c)` and,
/// after it completes, by `merge(c)`, so no locking is needed). `merge(c)`
/// is invoked on the calling thread, in ascending chunk order. A throwing
/// scan or merge cancels the run: remaining chunks are abandoned, workers
/// are joined, and the first exception is rethrown on the calling thread.
void run_sharded(const ShardConfig& config, const ShardPlan& plan,
                 const std::function<void(std::size_t chunk)>& scan,
                 const std::function<void(std::size_t chunk)>& merge);

}  // namespace spinscope::scanner
