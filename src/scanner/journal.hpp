// spinscope/scanner/journal.hpp
//
// Crash-safe campaign journal (DESIGN.md §11): a directory of atomically
// published chunk-record files that lets a killed sweep continue where it
// stopped without rescanning finished work. Every execution mode — run(),
// reduce() and the run_procs supervisor — writes one layout through one
// MapBatchWriter:
//
//   header.rec               frame_record(serialize_header(...))
//   chunk-00048-00063.rec    a batch: consecutive chunks of one
//                            kMapBatchChunks-aligned window, back to back
//   chunk-00042.rec          a batch of one (a gap a resumed pass filled)
//
// Each record is framed as `#rec <payload_bytes> <crc32-hex>\n<payload>`,
// the CRC-32 covering exactly the payload, which is binary (DESIGN.md
// §11.1: varint fields, delta-coded trace events, the dense telemetry
// snapshot). A journal written with the older text payloads fails to parse
// and is rescanned like any damaged record. The same frames cross the
// run_procs worker channel, so a torn send is caught like a torn file. Each
// file is published with one write, one fsync and one rename, so a crash
// leaves it whole or absent. Chunk scans are pure functions of (options,
// chunk geometry) — DESIGN.md §9 — so republishing a chunk is idempotent;
// Campaign::reduce folds the files back in strict chunk order and scans
// whatever is missing.

#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "faults/retry_policy.hpp"
#include "scanner/campaign.hpp"
#include "util/io.hpp"
#include "util/proc.hpp"
#include "util/rng.hpp"

namespace spinscope::scanner {

/// Identity of the campaign a journal belongs to. Reduce refuses to mix
/// journals across campaigns: every field here changes the scan stream or
/// how its records read, so replaying records produced under different
/// options would silently corrupt the output.
struct CampaignHeader {
    std::uint64_t seed = 0;
    int week = 0;
    bool ipv6 = false;
    std::size_t chunk_domains = 0;
    std::size_t domain_count = 0;
    /// Whether the journaling campaign had a metrics registry attached (chunk
    /// records then carry telemetry snapshots).
    bool has_telemetry = false;
    /// web::PopulationConfig::seed of the scanned universe.
    std::uint64_t population_seed = 0;
    /// telemetry::kCatalogFingerprint of the build that wrote the journal:
    /// its snapshots' keys are that catalog's indices.
    std::uint64_t catalog = 0;

    friend bool operator==(const CampaignHeader&, const CampaignHeader&) = default;
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

/// Serialization of one binary record payload (exposed for tests and
/// tooling). parse_* read in one forward pass and accept exactly what
/// serialize_* emit — no overlong varint, out-of-range enum or integer,
/// reserved flag bit, count past the bytes left or trailing byte: anything
/// else is nullopt. They never throw on bad bytes. Traces decode to exactly
/// parse_jsonl(to_jsonl(trace)) (qlog::write_binary).
[[nodiscard]] std::string serialize_header(const CampaignHeader& header);
[[nodiscard]] std::optional<CampaignHeader> parse_header(std::string_view payload);
[[nodiscard]] std::string serialize_chunk_record(const ChunkRecord& record);
[[nodiscard]] std::optional<ChunkRecord> parse_chunk_record(std::string_view payload);
/// The one chunk-record decoder, in place: on success every field of
/// `record` holds the payload's value (restarts 0), whatever it held before —
/// a moved-from record included — and each vector and string keeps its
/// storage, so a reader that decodes every record into one ChunkRecord
/// reuses it from record to record. False on what the nullopt form rejects,
/// with `record` valid but unspecified.
[[nodiscard]] bool parse_chunk_record(std::string_view payload, ChunkRecord& record);

/// Frames `payload` as one journal record (`#rec <len> <crc>\n` + payload).
[[nodiscard]] std::string frame_record(const std::string& payload);

/// The size of the whole frame at the front of `bytes` — a stream still
/// being received: 0 while they hold only part of one, nullopt when they can
/// never become a valid frame (garbled head, CRC mismatch).
[[nodiscard]] std::optional<std::size_t> frame_size(std::string_view bytes);

/// `journal.lock` inside `dir`.
[[nodiscard]] std::filesystem::path journal_lock_path(const std::filesystem::path& dir);

// ---------------------------------------------------------------------------
// Chunk-record files

/// The batch window: a batch file holds consecutive chunks of one window
/// [16k, 16k + 15] — one write + fsync + rename per 16 chunks instead of per
/// chunk. A fresh pass writes each whole window as one file in every mode.
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
/// `chunk-AAAAA-BBBBB.rec` inside `dir`; `chunk-AAAAA.rec` when the batch
/// holds a single chunk.
[[nodiscard]] std::filesystem::path map_batch_path(const std::filesystem::path& dir,
                                                   const MapBatch& batch);
/// Prepares `dir` as a journal. With `wipe`, removes every existing
/// chunk-record and header file first (a fresh run rescans everything); without
/// it, an existing header must equal `header` (std::invalid_argument
/// otherwise — the journal belongs to a different campaign) and finished
/// chunks are kept for reuse; a header.rec that is absent or does not
/// frame-check or parse names no campaign, so the files are wiped as with
/// `wipe`. The header file is published atomically and
/// the directory entry fsynced. Throws std::runtime_error on I/O failure.
void init_map_journal(const std::filesystem::path& dir, const CampaignHeader& header,
                      bool wipe);
/// Io-threaded form; throws JournalIoError (with the real errno) instead of
/// a generic runtime_error on storage failure.
void init_map_journal(util::Io& io, const std::filesystem::path& dir,
                      const CampaignHeader& header, bool wipe);

/// Opens `campaign`'s journal (ScanOptions::journal_dir) for writing, then
/// init_map_journal's it with the campaign's header through
/// ScanOptions::io, and returns the batches it keeps (list_map_batches; none
/// after a wipe). Exactly one campaign may write a journal at a time: the
/// journal.lock pid file goes into `lock`; a dead owner's lock is broken, a
/// live owner's makes this throw std::runtime_error naming it. A batch past
/// the campaign's chunk count throws std::invalid_argument.
std::vector<MapBatch> open_map_journal(util::PidLockFile& lock, const Campaign& campaign,
                                       bool wipe);

/// Atomically publishes one finished chunk as `chunk-NNNNN.rec`
/// (write-temp + fsync + rename), a batch of one — for tools that write a
/// journal chunk by chunk. Idempotent: republishing the same chunk is
/// harmless. Returns false on I/O failure.
[[nodiscard]] bool write_map_chunk(const std::filesystem::path& dir,
                                   const ChunkRecord& record);

/// The one journal writer, and the only code that decides where a batch file
/// starts and ends. It holds framed chunk records, which may arrive in any
/// order, and publishes them as batch files. A batch is a maximal run of
/// held consecutive chunks inside one window, so chunks already on disk
/// split a window into gap-filling files and a resumed pass never overlaps an
/// existing file. Each publish retries transient storage errors on `retry`'s
/// wall-clock schedule, with jitter from a stream keyed by the campaign seed
/// that no scan draws from.
class MapBatchWriter {
public:
    MapBatchWriter(util::Io& io, std::filesystem::path dir, faults::RetryPolicy retry,
                   std::uint64_t seed);

    /// Holds chunk `chunk`'s framed record until a commit publishes it.
    void add(std::size_t chunk, std::string framed) {
        held_.insert_or_assign(chunk, std::move(framed));
    }
    /// Whether chunk `chunk`'s record is held, not yet committed.
    [[nodiscard]] bool holds(std::size_t chunk) const { return held_.contains(chunk); }

    /// Publishes every held record below `limit`, batch by batch in
    /// ascending order; the caller promises no chunk below `limit` is still
    /// to come. Stops at the first publish that fails past its retries and
    /// returns that failure; either way nothing below `limit` stays held.
    [[nodiscard]] util::IoResult commit_below(std::size_t limit);

    /// The commit rule of every pass: commits the windows `frontier` — the
    /// lowest of the `total` chunks not yet done (on disk or added) — has
    /// passed, or everything once it reaches `total`.
    [[nodiscard]] util::IoResult commit_passed(std::size_t frontier, std::size_t total);

    /// Records published so far.
    [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
    /// Failed write attempts so far, retried ones included.
    [[nodiscard]] std::uint64_t io_errors() const noexcept { return io_errors_; }
    /// The batch of the most recent failed attempt.
    [[nodiscard]] const MapBatch& last_failed() const noexcept { return last_failed_; }
    /// That attempt's batch, directory and errno cause, in words.
    [[nodiscard]] const std::string& last_error() const noexcept { return last_error_; }

private:
    /// Publishes `framed` — the batch's records, in pieces written back to
    /// back — as `batch`'s file, retrying transient failures.
    [[nodiscard]] util::IoResult publish(const MapBatch& batch,
                                         std::span<const std::string_view> framed);

    util::Io* io_;
    std::filesystem::path dir_;
    faults::RetryPolicy retry_;
    util::Rng retry_rng_;
    std::map<std::size_t, std::string> held_;
    std::uint64_t published_ = 0;
    std::uint64_t io_errors_ = 0;
    MapBatch last_failed_;
    std::string last_error_;
};

/// Reads `chunk-NNNNN.rec`; nullopt when absent, torn, or failing
/// frame/CRC/body validation (all treated as "not scanned yet").
[[nodiscard]] std::optional<ChunkRecord> read_map_chunk(const std::filesystem::path& dir,
                                                        std::size_t chunk_index);

/// Reads every record of one batch file. nullopt — the whole batch counts
/// as unscanned — when the file is absent, any frame fails length/CRC/body
/// validation, a record names the wrong chunk, or bytes trail the last frame.
[[nodiscard]] std::optional<std::vector<ChunkRecord>> read_map_batch(
    const std::filesystem::path& dir, const MapBatch& batch);

/// Streams the records of one batch file to `visit` in chunk order, each
/// decoded in place into the caller's `record` (parse_chunk_record), and
/// returns how many it visited. A visited record is valid until `visit`
/// returns; `visit` may move from it. Every frame passes its length and CRC
/// check, and no byte trails the last one, before the first record is
/// visited; otherwise nothing is (0). A CRC-valid record that fails to parse
/// or names the wrong chunk ends the stream there: the records before it were
/// visited. `visit` also gets each record's whole frame, so a caller can
/// republish the batch with the rest rescanned.
std::size_t replay_map_batch(
    const std::filesystem::path& dir, const MapBatch& batch, ChunkRecord& record,
    const std::function<void(ChunkRecord&, std::string_view frame)>& visit);

/// The chunk-record files in `dir` that a reducer folds: ascending and
/// disjoint. A file whose range overlaps an earlier-starting (or, at the
/// same start, wider) one is left out; the writers here never produce such
/// overlaps. Presence only — a listed batch may still fail validation when
/// read. This is the fixed-RSS way to find what a reducer can reuse:
/// O(files) ranges instead of O(chunks) full records.
[[nodiscard]] std::vector<MapBatch> list_map_batches(const std::filesystem::path& dir);

/// What one pass over a journal directory found.
struct MapReplayResult {
    /// False when header.rec is absent or fails validation.
    bool has_header = false;
    CampaignHeader header;
    /// Intact chunk records handed to the visitor.
    std::uint64_t chunks_read = 0;
    /// Chunks of files that failed frame/CRC validation, and the chunks from
    /// a record that failed to parse to the end of its batch (counted, then
    /// treated as missing — the reducer rescans them).
    std::uint64_t corrupt_chunks = 0;
};

/// Streams every intact chunk record of the journal at `dir` to `visit`, in
/// ascending chunk order, through replay_map_batch. The chunks need NOT be
/// a contiguous prefix — a killed pass leaves gaps. One batch file's bytes
/// and one decoded record, reused for every chunk, are held at a time.
/// Never modifies the directory.
/// This is how the journal is read as a dataset (the paper's Appendix B qlog
/// baselines): each decoded trace is what its qlog::to_jsonl lines print,
/// and to_jsonl renders it as JSON lines.
[[nodiscard]] MapReplayResult read_map_journal(
    const std::filesystem::path& dir, const std::function<void(ChunkRecord&&)>& visit);

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
    /// header.rec is unreadable, or absent beside chunk files: the journal
    /// names no campaign. Quarantined when present. The next reduce wipes
    /// every chunk file and republishes the header, so every chunk on disk
    /// is listed to rescan.
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
    /// scrub.report (render()); without it the scrub only inspects and classifies (the
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
    /// Multi-line summary: the bench prints it, and a repair pass that
    /// changed anything writes it to corrupt/scrub.report.
    [[nodiscard]] std::string render() const;
};

/// Walks the journal at `dir`, CRC-checks every frame of every record file,
/// classifies damage, quarantines per `options`, and reports. A missing or
/// empty directory yields a clean report with has_header == false. Throws
/// JournalIoError when the scrub's own repair writes fail.
[[nodiscard]] ScrubReport scrub_journal(const std::filesystem::path& dir,
                                        const ScrubOptions& options = {});

}  // namespace spinscope::scanner
