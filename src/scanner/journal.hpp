// spinscope/scanner/journal.hpp
//
// Crash-safe campaign journal (DESIGN.md §11): a directory of atomically
// published chunk-record files that lets a killed sweep continue where it
// stopped without rescanning finished work.
//
// The paper's sweeps run for days over >200 M domains; a crash that forfeits
// hours of finished scans is an operational non-starter. The journal records
// every scanned chunk of DomainScans (plus the chunk's telemetry snapshot) as
// one framed, checksummed record:
//
//   header.rec               frame_record(serialize_header(...))
//   chunk-00042.rec          one record: chunk 42 (a multi-process worker)
//   chunk-00048-00063.rec    a batch: chunks 48..63 back to back (a run()'s
//                            merge thread group-commits kMapBatchChunks)
//   chunk-00042.lease        claim marker of the worker scanning chunk 42
//
// Each record is framed as
//
//   #rec <payload_bytes> <crc32-hex>\n<payload>
//
// where the CRC-32 (IEEE, reflected) covers exactly the payload bytes. Every
// file is published with one write, one fsync and one rename
// (util::write_file_atomic), so a crash leaves a file either whole or absent.
// "Chunk 42 is done" ⇔ a file whose range holds 42 exists and parses. Chunk
// scans are pure functions of (options, chunk geometry) — DESIGN.md §9 — so
// two publishers of the same chunk write byte-identical records; publishing
// is idempotent and a double scan is wasted work, never corruption.
// Campaign::reduce folds the files into the ordinary merge path in strict
// chunk order, scanning whatever is missing.

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "scanner/campaign.hpp"
#include "util/io.hpp"

namespace spinscope::scanner {

/// Identity of the campaign a journal belongs to. Reduce refuses to mix
/// journals across campaigns: every field here changes the scan stream, so
/// replaying records produced under different options would silently corrupt
/// the output.
struct CampaignHeader {
    std::uint64_t seed = 0;
    int week = 0;
    bool ipv6 = false;
    std::size_t chunk_domains = 0;
    std::size_t domain_count = 0;
    /// Whether the journaling campaign had a metrics registry attached (chunk
    /// records then carry telemetry snapshots).
    bool has_telemetry = false;

    friend bool operator==(const CampaignHeader&, const CampaignHeader&) = default;
};

/// One journaled work chunk: the scans of its domains in domain-id order,
/// the chunk-private telemetry snapshot (telemetry::snapshot form; empty
/// when the campaign ran without a registry), and — for chunks the
/// supervisor quarantined — the failure note (scans are then placeholders
/// with DomainScan::error set).
struct ChunkRecord {
    std::size_t chunk_index = 0;
    bool quarantined = false;
    std::string quarantine_error;
    std::vector<DomainScan> scans;
    std::string telemetry_snapshot;
};

/// A storage operation failed past the point of retrying. Carries the errno
/// result and its reaction class so catch sites can tell a full or dying
/// disk (fatal) from one whose contents can no longer be trusted
/// (corrupting: scrub before reuse).
class JournalIoError : public std::runtime_error {
public:
    JournalIoError(std::string what, util::IoResult result)
        : std::runtime_error{std::move(what)},
          result_{result},
          error_class_{util::classify_io_error(result.err)} {}

    [[nodiscard]] util::IoResult result() const noexcept { return result_; }
    [[nodiscard]] util::IoErrorClass error_class() const noexcept { return error_class_; }

private:
    util::IoResult result_;
    util::IoErrorClass error_class_;
};

/// Serialization of one record payload (exposed for tests and tooling).
/// parse_* return nullopt on any malformed input and never throw on bad
/// bytes.
[[nodiscard]] std::string serialize_header(const CampaignHeader& header);
[[nodiscard]] std::optional<CampaignHeader> parse_header(std::string_view payload);
[[nodiscard]] std::string serialize_chunk_record(const ChunkRecord& record);
[[nodiscard]] std::optional<ChunkRecord> parse_chunk_record(std::string_view payload);

/// Frames `payload` as one journal record (`#rec <len> <crc>\n` + payload).
[[nodiscard]] std::string frame_record(const std::string& payload);

// ---------------------------------------------------------------------------
// Journal-directory lock
//
// Exactly one campaign may write a journal directory at a time: a reduce
// racing a run would merge records the run is about to wipe. The lock is a
// pid file created with O_EXCL; a lock whose owner is dead is stale and
// silently broken, a lock whose owner is alive makes Campaign::run/reduce,
// run_procs and the benches refuse with a clear error instead of corrupting.

/// `journal.lock` inside `dir`.
[[nodiscard]] std::filesystem::path journal_lock_path(const std::filesystem::path& dir);

// ---------------------------------------------------------------------------
// Chunk-record files

/// Chunks a run()'s merge thread collects into one group-committed batch
/// file: one write + fsync + rename per 16 chunks instead of per chunk.
inline constexpr std::size_t kMapBatchChunks = 16;

/// The chunk range [first, last] one record file holds.
struct MapBatch {
    std::size_t first = 0;
    std::size_t last = 0;

    [[nodiscard]] std::size_t size() const noexcept { return last - first + 1; }
    friend bool operator==(const MapBatch&, const MapBatch&) = default;
};

/// `header.rec` inside `dir`.
[[nodiscard]] std::filesystem::path map_header_path(const std::filesystem::path& dir);
/// `chunk-NNNNN.rec` inside `dir` (a batch of one).
[[nodiscard]] std::filesystem::path map_chunk_path(const std::filesystem::path& dir,
                                                   std::size_t chunk_index);
/// `chunk-AAAAA-BBBBB.rec` inside `dir`; `chunk-AAAAA.rec` when the batch
/// holds a single chunk.
[[nodiscard]] std::filesystem::path map_batch_path(const std::filesystem::path& dir,
                                                   const MapBatch& batch);
/// `chunk-NNNNN.lease` inside `dir`.
[[nodiscard]] std::filesystem::path lease_path(const std::filesystem::path& dir,
                                               std::size_t chunk_index);

/// Prepares `dir` as a journal. With `wipe`, removes every existing
/// chunk/lease/header file first (a fresh run rescans everything); without
/// it, an existing header must equal `header` (std::invalid_argument
/// otherwise — the journal belongs to a different campaign) and finished
/// chunks are kept for reuse. The header file is published atomically and
/// the directory entry fsynced. Throws std::runtime_error on I/O failure.
void init_map_journal(const std::filesystem::path& dir, const CampaignHeader& header,
                      bool wipe);
/// Io-threaded form; throws JournalIoError (with the real errno) instead of
/// a generic runtime_error on storage failure.
void init_map_journal(util::Io& io, const std::filesystem::path& dir,
                      const CampaignHeader& header, bool wipe);

/// Atomically publishes one finished chunk as `chunk-NNNNN.rec`
/// (write-temp + fsync + rename). Idempotent: republishing the same chunk is
/// harmless. Returns false on I/O failure.
[[nodiscard]] bool write_map_chunk(const std::filesystem::path& dir,
                                   const ChunkRecord& record);
/// Io-threaded form with the real cause (ENOSPC vs EIO vs ...).
[[nodiscard]] util::IoResult write_map_chunk(util::Io& io, const std::filesystem::path& dir,
                                             const ChunkRecord& record);

/// Atomically publishes `framed` — the frame_record'ed chunk records of
/// `batch`, in chunk order, back to back — as the batch's one file.
[[nodiscard]] util::IoResult write_map_batch(util::Io& io, const std::filesystem::path& dir,
                                             const MapBatch& batch, std::string_view framed);

/// Reads `chunk-NNNNN.rec`; nullopt when absent, torn, or failing
/// frame/CRC/body validation (all treated as "not scanned yet").
[[nodiscard]] std::optional<ChunkRecord> read_map_chunk(const std::filesystem::path& dir,
                                                        std::size_t chunk_index);

/// Reads every record of one batch file. nullopt — the whole batch counts
/// as unscanned — when the file is absent, any frame fails length/CRC/body
/// validation, a record names the wrong chunk, or bytes trail the last frame.
[[nodiscard]] std::optional<std::vector<ChunkRecord>> read_map_batch(
    const std::filesystem::path& dir, const MapBatch& batch);

/// The chunk-record files in `dir` that a reducer folds: ascending and
/// disjoint. A file whose range overlaps an earlier-starting (or, at the
/// same start, wider) one is left out; the writers here never produce such
/// overlaps. Presence only — a listed batch may still fail validation when
/// read. This is the fixed-RSS way to find what a reducer can reuse:
/// O(files) ranges instead of O(chunks) full records.
[[nodiscard]] std::vector<MapBatch> list_map_batches(const std::filesystem::path& dir);

/// Indices of every chunk some chunk-record file in `dir` holds, ascending
/// and deduped (presence only, like list_map_batches).
[[nodiscard]] std::vector<std::size_t> list_map_chunks(const std::filesystem::path& dir);

/// Everything intact in a journal directory.
struct MapReplayResult {
    /// False when header.rec is absent or fails validation.
    bool has_header = false;
    CampaignHeader header;
    /// Intact chunks in ascending chunk order. Need NOT be a contiguous
    /// prefix — workers finish out of order.
    std::vector<ChunkRecord> chunks;
    /// Chunks whose file failed frame/CRC/body validation (counted, then
    /// treated as missing — the reducer rescans them).
    std::uint64_t corrupt_chunks = 0;
};

/// Reads every intact record of the journal at `dir`. Never modifies the
/// directory.
[[nodiscard]] MapReplayResult read_map_journal(const std::filesystem::path& dir);

// ---------------------------------------------------------------------------
// Chunk leases

/// A worker's claim on one chunk. The fencing token is unique per lease
/// grant (worker slot × incarnation counter), so a supervisor reclaiming a
/// dead worker's chunks removes exactly the leases that worker held — a
/// worker that was wrongly declared dead cannot have its NEW lease (new
/// token) swept away by a reclaim aimed at its old incarnation.
struct ChunkLease {
    std::size_t chunk_index = 0;
    long pid = 0;
    std::uint64_t token = 0;
    /// How many times a process STARTED scanning this chunk (a claim writes
    /// the inherited count; the owner bumps it right before scanning). Drives
    /// poisoned-chunk quarantine: a chunk whose scans keep killing processes
    /// gets a bounded number of incarnations before the pool gives up on it —
    /// while a chunk that was merely LEASED by a dying process is not tainted.
    std::uint64_t attempts = 0;

    friend bool operator==(const ChunkLease&, const ChunkLease&) = default;
};

[[nodiscard]] std::string serialize_lease(const ChunkLease& lease);
[[nodiscard]] std::optional<ChunkLease> parse_lease(std::string_view payload);

/// Atomically claims `lease.chunk_index` (O_EXCL create of the lease file).
/// Exactly one of N racing claimants succeeds. Returns false when the chunk
/// is already leased or on I/O failure.
[[nodiscard]] bool claim_lease(const std::filesystem::path& dir, const ChunkLease& lease);
/// Io-threaded form: EEXIST means the chunk is already leased (the routine
/// lost race, not an error); any other errno is a real storage failure the
/// caller should surface.
[[nodiscard]] util::IoResult claim_lease(util::Io& io, const std::filesystem::path& dir,
                                         const ChunkLease& lease);

/// The current lease on a chunk; nullopt when unleased or garbled (a
/// garbled lease file blocks nobody: release_lease with token 0 removes it).
[[nodiscard]] std::optional<ChunkLease> read_lease(const std::filesystem::path& dir,
                                                   std::size_t chunk_index);

/// Removes the lease on `chunk_index` iff its fencing token matches
/// `token` (or the lease file is garbled and `token` is 0). Returns true
/// when the lease file is gone afterwards.
bool release_lease(const std::filesystem::path& dir, std::size_t chunk_index,
                   std::uint64_t token);

// ---------------------------------------------------------------------------
// Scrub: offline verify / repair (DESIGN.md §16)
//
// Reduce is deliberately forgiving — it rescans any chunk whose file fails
// to parse — which is the right call for a crash but says nothing about how
// much of the journal a lying disk damaged. scrub_journal is the forensic
// pass: it CRC-checks every frame of every record file, classifies the
// damage, quarantines what fails (moved under corrupt/, never deleted), and
// writes a machine-readable report naming exactly which chunks a
// subsequent reduce must rescan.

/// What kind of damage one finding describes.
enum class ScrubDamage {
    /// header.rec is unreadable. Quarantined; reduce republishes the header
    /// and keeps the chunk files, which carry their own chunk indices.
    header_corrupt,
    /// A chunk-record file failing frame/CRC/body validation or naming the
    /// wrong chunk. Quarantined; every chunk of its range is rescanned.
    corrupt_map_chunk,
};

[[nodiscard]] const char* to_cstring(ScrubDamage damage) noexcept;

/// One piece of damage the scrub found.
struct ScrubFinding {
    ScrubDamage damage = ScrubDamage::corrupt_map_chunk;
    /// File the damage was found in, relative name.
    std::string file;
    std::string detail;
    bool quarantined = false;  ///< file moved under corrupt/
};

struct ScrubOptions {
    /// With repair, damaged files are moved under corrupt/ with a
    /// scrub.report; without it the scrub only inspects and classifies (the
    /// bench's --scrub uses repair; a dry-run caller can pass false).
    bool repair = true;
    /// Storage seam for the repair writes; nullptr = real disk.
    util::Io* io = nullptr;
};

/// Scrub outcome. `clean()` means the journal needed nothing; otherwise
/// `findings` says what was wrong and what was done, and `chunks_to_rescan`
/// tells reduce exactly what work remains.
struct ScrubReport {
    bool has_header = false;
    CampaignHeader header;
    /// Record files examined, header.rec included.
    std::uint64_t files_checked = 0;
    /// Intact records, the header record included.
    std::uint64_t records_intact = 0;
    /// Intact chunk records.
    std::uint64_t chunks_intact = 0;
    std::uint64_t bytes_discarded = 0;
    std::vector<ScrubFinding> findings;
    /// Chunk indices whose records were quarantined (reduce will rescan
    /// exactly these), ascending.
    std::vector<std::size_t> chunks_to_rescan;

    [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
    /// Human-readable multi-line summary (the bench prints this).
    [[nodiscard]] std::string render() const;
    /// Machine-readable k=v lines (percent-encoded), written to
    /// corrupt/scrub.report when a repair pass changed anything.
    [[nodiscard]] std::string machine_report() const;
};

/// Walks the journal at `dir`, CRC-checks every frame of every record file,
/// classifies damage, quarantines per `options`, and reports. A missing or
/// empty directory yields a clean report with has_header == false. Throws
/// JournalIoError when the scrub's own repair writes fail.
[[nodiscard]] ScrubReport scrub_journal(const std::filesystem::path& dir,
                                        const ScrubOptions& options = {});

}  // namespace spinscope::scanner
