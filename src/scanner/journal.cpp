#include "scanner/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bytes/cursor.hpp"
#include "telemetry/catalog.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/text_cursor.hpp"

namespace spinscope::scanner {

namespace {

constexpr std::string_view kFrameMarker = "#rec ";

/// Chunk-file names zero-pad their indices, so they parse with from_chars
/// rather than the canonical-integer reader.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view token, T& out) {
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
    return ec == std::errc{} && ptr == token.data() + token.size();
}

using bytes::ByteReader;
using bytes::ByteWriter;

/// First byte of a header and of a chunk-record payload. Each layout takes
/// tags no older layout used (the text form began with a printable byte,
/// the previous binary form with 0xc1/0xc2), so an older build's journal
/// fails to parse and is rescanned like any damaged record.
constexpr std::uint8_t kHeaderTag = 0xc3;
constexpr std::uint8_t kChunkTag = 0xc4;

/// Flag bits of a header's and of a domain scan's flags byte.
constexpr std::uint8_t kHeaderIpv6 = 1;
constexpr std::uint8_t kHeaderTelemetry = 2;
constexpr std::uint8_t kScanResolved = 1;
constexpr std::uint8_t kScanResponse = 2;

[[nodiscard]] std::string to_payload(const std::vector<std::uint8_t>& bytes) {
    return {bytes.begin(), bytes.end()};
}

/// A flags byte with no bit outside `allowed`.
[[nodiscard]] std::optional<std::uint8_t> read_flags(ByteReader& in, std::uint8_t allowed) {
    const auto flags = in.u8();
    if (!flags || (*flags & ~allowed) != 0) return std::nullopt;
    return flags;
}

[[nodiscard]] bool read_text(ByteReader& in, std::string& out) {
    const auto text = in.text();
    if (!text) return false;
    out.assign(*text);
    return true;
}

/// An enum byte below `count`.
template <typename Enum>
[[nodiscard]] bool read_enum(ByteReader& in, std::size_t count, Enum& out) {
    const auto value = in.u8();
    if (!value || *value >= count) return false;
    out = static_cast<Enum>(*value);
    return true;
}

/// Decodes `count` elements into `out` in place with `read`: the elements
/// already there are overwritten and keep their storage, extra ones are
/// dropped, and missing ones are appended one at a time. A count read off
/// the input is untrusted, so room is reserved only for as many elements as
/// the bytes left could hold at a few bytes each.
template <typename T, typename Read>
[[nodiscard]] bool read_each(ByteReader& in, std::size_t count, std::vector<T>& out,
                             Read read) {
    if (out.size() > count) {
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(count), out.end());
    } else {
        out.reserve(std::min(count, in.remaining() / 8));
    }
    for (std::size_t i = 0; i < count; ++i) {
        if (i == out.size()) out.emplace_back();
        if (!read(in, out[i])) return false;
    }
    return true;
}

void write_scan(ByteWriter& out, const DomainScan& scan) {
    out.integer(scan.domain_id);
    out.u8(static_cast<std::uint8_t>((scan.resolved ? kScanResolved : 0) |
                                     (scan.final_response ? kScanResponse : 0)));
    out.integer(scan.sim_time.count_nanos());
    out.text(scan.error);
    if (const auto& response = scan.final_response) {
        out.integer(response->status);
        out.integer(response->body_bytes);
        out.text(response->location);
        out.text(response->server_name);
    }
    // Each attempt is its fault byte and its trace; a scan holds at most
    // kMaxRedirects + 1 of them (server_faults.at throws past that).
    out.uvarint(scan.connections.size());
    for (std::size_t hop = 0; hop < scan.connections.size(); ++hop) {
        out.u8(static_cast<std::uint8_t>(scan.server_faults.at(hop)));
        qlog::write_binary(out, scan.connections[hop]);
    }
}

/// Reads one write_scan() scan into `scan`, overwriting every field.
[[nodiscard]] bool read_scan(ByteReader& in, DomainScan& scan) {
    std::int64_t sim_ns = 0;
    if (!in.integer(scan.domain_id)) return false;
    const auto flags = read_flags(in, kScanResolved | kScanResponse);
    if (!flags || !in.integer(sim_ns) || !read_text(in, scan.error)) {
        return false;
    }
    scan.resolved = (*flags & kScanResolved) != 0;
    scan.sim_time = util::Duration::nanos(sim_ns);
    if ((*flags & kScanResponse) != 0) {
        ResponseInfo& response =
            scan.final_response ? *scan.final_response : scan.final_response.emplace();
        if (!in.integer(response.status) || !in.integer(response.body_bytes) ||
            !read_text(in, response.location) || !read_text(in, response.server_name)) {
            return false;
        }
    } else {
        scan.final_response.reset();
    }
    const auto connections = in.count();
    if (!connections || *connections > scan.server_faults.size()) return false;
    scan.server_faults.fill(faults::ServerFaultMode::none);
    std::size_t hop = 0;
    return read_each(in, *connections, scan.connections, [&](ByteReader& r, qlog::Trace& trace) {
        return read_enum(r, faults::kServerFaultModeCount, scan.server_faults[hop++]) &&
               qlog::read_binary(r, trace);
    });
}

}  // namespace

// ---------------------------------------------------------------------------
// Record payloads

std::string serialize_header(const CampaignHeader& header) {
    std::vector<std::uint8_t> bytes;
    ByteWriter out{bytes};
    out.u8(kHeaderTag);
    out.integer(header.seed);
    out.integer(header.week);
    out.u8(static_cast<std::uint8_t>((header.ipv6 ? kHeaderIpv6 : 0) |
                                     (header.has_telemetry ? kHeaderTelemetry : 0)));
    out.integer(header.chunk_domains);
    out.integer(header.domain_count);
    out.integer(header.population_seed);
    out.integer(header.catalog);
    return to_payload(bytes);
}

std::optional<CampaignHeader> parse_header(std::string_view payload) {
    ByteReader in{bytes::byte_view(payload)};
    CampaignHeader header;
    const auto tag = in.u8();
    if (!tag || *tag != kHeaderTag || !in.integer(header.seed) || !in.integer(header.week)) {
        return std::nullopt;
    }
    const auto flags = read_flags(in, kHeaderIpv6 | kHeaderTelemetry);
    if (!flags || !in.integer(header.chunk_domains) || !in.integer(header.domain_count) ||
        !in.integer(header.population_seed) || !in.integer(header.catalog) || !in.done()) {
        return std::nullopt;
    }
    header.ipv6 = (*flags & kHeaderIpv6) != 0;
    header.has_telemetry = (*flags & kHeaderTelemetry) != 0;
    return header;
}

std::string serialize_chunk_record(const ChunkRecord& record) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(256 * record.scans.size() + record.telemetry_snapshot.size() + 64);
    ByteWriter out{bytes};
    out.u8(kChunkTag);
    out.integer(record.chunk_index);
    out.u8(record.quarantined ? 1 : 0);
    out.text(record.quarantine_error);
    out.uvarint(record.scans.size());
    for (const auto& scan : record.scans) write_scan(out, scan);
    out.text(record.telemetry_snapshot);
    return to_payload(bytes);
}

bool parse_chunk_record(std::string_view payload, ChunkRecord& record) {
    ByteReader in{bytes::byte_view(payload)};
    const auto tag = in.u8();
    if (!tag || *tag != kChunkTag || !in.integer(record.chunk_index)) return false;
    const auto quarantined = read_flags(in, 1);
    if (!quarantined || !read_text(in, record.quarantine_error)) return false;
    record.quarantined = *quarantined != 0;
    record.restarts = 0;
    const auto domains = in.count();
    return domains && read_each(in, *domains, record.scans, read_scan) &&
           read_text(in, record.telemetry_snapshot) && in.done();
}

std::optional<ChunkRecord> parse_chunk_record(std::string_view payload) {
    ChunkRecord record;
    if (!parse_chunk_record(payload, record)) return std::nullopt;
    return record;
}

// ---------------------------------------------------------------------------
// Record framing

std::string frame_record(const std::string& payload) {
    char head[48];
    std::snprintf(head, sizeof head, "#rec %zu %08x\n", payload.size(),
                  util::crc32(payload));
    return head + payload;
}

namespace {

/// Longest frame head frame_record writes: `#rec ` + 20 length digits + ` ` +
/// 8 CRC digits.
constexpr std::size_t kMaxFrameHead = 34;

struct FrameHead {
    std::size_t len = 0;
    std::uint32_t crc = 0;
};

/// A frame head line without its '\n': `#rec <decimal length> <%08x crc>`.
[[nodiscard]] std::optional<FrameHead> parse_frame_head(std::string_view line) {
    util::TextCursor in{line};
    FrameHead head;
    if (!in.literal(kFrameMarker) || !in.integer(head.len) || !in.literal(' ') ||
        !in.hex32(head.crc) || !in.done()) {
        return std::nullopt;
    }
    return head;
}

/// One frame at the front of a byte stream.
struct Frame {
    std::string_view payload;
    std::size_t size = 0;  ///< head and payload
};

/// The frame at the front of `bytes`, its CRC checked. nullopt with
/// `partial` set while they hold only part of one; nullopt without it for a
/// garbled head or a CRC mismatch.
[[nodiscard]] std::optional<Frame> front_frame(std::string_view bytes, bool& partial) {
    partial = false;
    const std::size_t head_end = bytes.find('\n');
    if (head_end == std::string_view::npos) {
        partial = bytes.size() <= kMaxFrameHead;
        return std::nullopt;
    }
    const auto head = parse_frame_head(bytes.substr(0, head_end));
    if (!head) return std::nullopt;
    const std::string_view payload = bytes.substr(head_end + 1);
    if (payload.size() < head->len) {
        partial = true;
        return std::nullopt;
    }
    if (util::crc32(payload.substr(0, head->len)) != head->crc) return std::nullopt;
    return Frame{payload.substr(0, head->len), head_end + 1 + head->len};
}

/// The whole content of the regular file at `path`; nullopt when it is
/// absent, not a regular file or unreadable.
[[nodiscard]] std::optional<std::string> read_file(const std::filesystem::path& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return std::nullopt;
    std::optional<std::string> out;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ::ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break;
            done += static_cast<std::size_t>(n);
        }
        // A file that shrank under the read keeps only what was there.
        bytes.resize(done);
        out = std::move(bytes);
    }
    ::close(fd);
    return out;
}

[[noreturn]] void throw_io(const std::string& what, util::IoResult result) {
    throw JournalIoError{what + ": " + result.message(), result};
}

}  // namespace

std::optional<std::size_t> frame_size(std::string_view bytes) {
    bool partial = false;
    const auto frame = front_frame(bytes, partial);
    if (!frame) return partial ? std::optional<std::size_t>{0} : std::nullopt;
    return frame->size;
}

// ---------------------------------------------------------------------------
// Journal-directory lock

std::filesystem::path journal_lock_path(const std::filesystem::path& dir) {
    return dir / "journal.lock";
}

// ---------------------------------------------------------------------------
// Chunk-record files

namespace {

constexpr const char* kMapHeaderName = "header.rec";
constexpr std::string_view kMapChunkPrefix = "chunk-";
constexpr std::string_view kMapChunkSuffix = ".rec";

[[nodiscard]] std::filesystem::path map_name(const std::filesystem::path& dir,
                                             std::size_t index, std::string_view suffix) {
    char name[48];
    std::snprintf(name, sizeof name, "chunk-%05zu", index);
    return dir / (name + std::string{suffix});
}

/// The one chunk-file name parser: `chunk-NNNNN.rec` is a batch of one,
/// `chunk-AAAAA-BBBBB.rec` the batch [AAAAA, BBBBB]. Anything else — temp
/// files of an interrupted publish, reversed ranges — is not a record file.
[[nodiscard]] std::optional<MapBatch> parse_batch_name(std::string_view name) {
    if (!name.starts_with(kMapChunkPrefix) || !name.ends_with(kMapChunkSuffix)) {
        return std::nullopt;
    }
    name.remove_prefix(kMapChunkPrefix.size());
    name.remove_suffix(kMapChunkSuffix.size());
    const auto dash = name.find('-');
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    if (!parse_number(name.substr(0, dash), first)) return std::nullopt;
    if (dash == std::string_view::npos) {
        last = first;
    } else if (!parse_number(name.substr(dash + 1), last) || last < first) {
        return std::nullopt;
    }
    return MapBatch{static_cast<std::size_t>(first), static_cast<std::size_t>(last)};
}

/// Every chunk-record file in `dir`, sorted by start, widest first.
[[nodiscard]] std::vector<MapBatch> all_map_batches(const std::filesystem::path& dir) {
    std::vector<MapBatch> out;
    if (!std::filesystem::is_directory(dir)) return out;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        if (auto batch = parse_batch_name(entry.path().filename().string())) {
            out.push_back(*batch);
        }
    }
    std::sort(out.begin(), out.end(), [](const MapBatch& a, const MapBatch& b) {
        return a.first != b.first ? a.first < b.first : a.last > b.last;
    });
    return out;
}

/// Payload of a single-record file; nullopt when the file is absent, torn,
/// fails CRC, or has trailing bytes past the frame.
[[nodiscard]] std::optional<std::string> read_framed_file(
    const std::filesystem::path& path) {
    const auto bytes = read_file(path);
    bool partial = false;
    const auto frame = bytes ? front_frame(*bytes, partial) : std::nullopt;
    if (!frame || frame->size != bytes->size()) return std::nullopt;
    return std::string{frame->payload};
}

/// True when chunk `next` joins the batch that ends with chunk `prev`: it
/// follows it directly, inside the same window.
[[nodiscard]] constexpr bool continues_map_batch(std::size_t prev, std::size_t next) noexcept {
    return next == prev + 1 && next % kMapBatchChunks != 0;
}

/// True for header.rec and chunk-record filenames.
[[nodiscard]] bool is_map_file(const std::string& name) {
    return name == kMapHeaderName || parse_batch_name(name);
}

}  // namespace

std::filesystem::path map_header_path(const std::filesystem::path& dir) {
    return dir / kMapHeaderName;
}

std::filesystem::path map_batch_path(const std::filesystem::path& dir,
                                     const MapBatch& batch) {
    if (batch.first == batch.last) return map_name(dir, batch.first, kMapChunkSuffix);
    char range[48];
    std::snprintf(range, sizeof range, "-%05zu", batch.last);
    return map_name(dir, batch.first, range + std::string{kMapChunkSuffix});
}

void init_map_journal(util::Io& io, const std::filesystem::path& dir,
                      const CampaignHeader& header, bool wipe) {
    std::filesystem::create_directories(dir);
    // Persist the directory's own existence: a power cut right after mkdir
    // must not orphan every file published into it.
    (void)util::fsync_dir(io, dir.has_parent_path() ? dir.parent_path()
                                                    : std::filesystem::path{"."});
    if (!wipe) {
        // A header that is absent, or does not frame-check or parse, names no
        // campaign, so no record beside it can be trusted: they are wiped and
        // rescanned.
        const auto existing = read_framed_file(map_header_path(dir));
        const auto parsed = existing ? parse_header(*existing) : std::nullopt;
        if (!parsed) {
            wipe = true;
        } else if (!(*parsed == header)) {
            throw std::invalid_argument(
                "journal: map header mismatch — this journal belongs to a "
                "different campaign (seed/week/family/chunking/population or "
                "metric catalog differ)");
        }
    }
    if (wipe) {
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            if (is_map_file(entry.path().filename().string())) {
                const util::IoResult removed = io.remove(entry.path());
                if (!removed) {
                    throw_io("journal: cannot wipe " + entry.path().string(), removed);
                }
            }
        }
    }
    const util::IoResult written = util::write_file_atomic(
        io, map_header_path(dir), frame_record(serialize_header(header)));
    if (!written) {
        throw_io("journal: cannot write map header in " + dir.string(), written);
    }
}

void init_map_journal(const std::filesystem::path& dir, const CampaignHeader& header,
                      bool wipe) {
    init_map_journal(util::Io::real(), dir, header, wipe);
}

std::vector<MapBatch> open_map_journal(util::PidLockFile& lock, const Campaign& campaign,
                                       bool wipe) {
    const ScanOptions& options = campaign.options();
    const std::filesystem::path dir = options.journal_dir;
    // Exactly one campaign may write a journal directory at a time: a reduce
    // racing a run would merge records the run is about to wipe.
    std::filesystem::create_directories(dir);
    try {
        lock.acquire(journal_lock_path(dir));
    } catch (const std::runtime_error& e) {
        throw std::runtime_error("journal: dir '" + dir.string() +
                                 "' is in use by another campaign (" + e.what() +
                                 "); this campaign spans domains [0, " +
                                 std::to_string(campaign.domain_count()) + ") in " +
                                 std::to_string(campaign.chunk_count()) + " chunks");
    }
    const CampaignHeader header{options.seed,
                                options.week,
                                options.ipv6,
                                options.chunk_domains,
                                campaign.domain_count(),
                                campaign.metrics() != nullptr,
                                campaign.population().config().seed,
                                telemetry::kCatalogFingerprint};
    init_map_journal(util::resolve_io(options.io), dir, header, wipe);
    std::vector<MapBatch> kept = list_map_batches(dir);
    if (!kept.empty() && kept.back().last >= campaign.chunk_count()) {
        throw std::invalid_argument("journal: chunk index " + std::to_string(kept.back().last) +
                                    " is past this campaign's chunk count (" +
                                    std::to_string(campaign.chunk_count()) + " chunks over " +
                                    std::to_string(campaign.domain_count()) + " domains)");
    }
    return kept;
}

bool write_map_chunk(const std::filesystem::path& dir, const ChunkRecord& record) {
    return util::write_file_atomic(util::Io::real(),
                                   map_batch_path(dir, {record.chunk_index, record.chunk_index}),
                                   frame_record(serialize_chunk_record(record)))
        .ok();
}

MapBatchWriter::MapBatchWriter(util::Io& io, std::filesystem::path dir,
                               faults::RetryPolicy retry, std::uint64_t seed)
    : io_{&io},
      dir_{std::move(dir)},
      retry_{retry},
      retry_rng_{util::derive_stream_seed(seed, 0xd15cULL)} {}

util::IoResult MapBatchWriter::publish(const MapBatch& batch,
                                       std::span<const std::string_view> framed) {
    for (int attempt = 0;; ++attempt) {
        const util::IoResult published =
            util::write_file_atomic(*io_, map_batch_path(dir_, batch), framed);
        if (published) return published;
        ++io_errors_;
        last_failed_ = batch;
        last_error_ = "publish chunks " + std::to_string(batch.first) + ".." +
                      std::to_string(batch.last) + " in " + dir_.string() + ": " +
                      published.message();
        if (util::classify_io_error(published.err) != util::IoErrorClass::transient ||
            attempt + 1 >= retry_.max_attempts) {
            return published;
        }
        const util::Duration delay = retry_.backoff_delay(attempt + 1, retry_rng_);
        std::this_thread::sleep_for(std::chrono::nanoseconds{delay.count_nanos()});
    }
}

util::IoResult MapBatchWriter::commit_below(std::size_t limit) {
    util::IoResult result;
    std::vector<std::string_view> framed;
    while (!held_.empty() && held_.begin()->first < limit) {
        MapBatch batch{held_.begin()->first, held_.begin()->first};
        framed.clear();
        auto it = held_.begin();
        for (; it != held_.end() && it->first < limit &&
               (it->first == batch.first || continues_map_batch(batch.last, it->first));
             ++it) {
            batch.last = it->first;
            framed.push_back(it->second);
        }
        if (result) {
            result = publish(batch, framed);
            if (result) published_ += batch.size();
        }
        held_.erase(held_.begin(), it);
    }
    return result;
}

util::IoResult MapBatchWriter::commit_passed(std::size_t frontier, std::size_t total) {
    return commit_below(frontier >= total ? total : frontier - frontier % kMapBatchChunks);
}

std::size_t replay_map_batch(
    const std::filesystem::path& dir, const MapBatch& batch, ChunkRecord& record,
    const std::function<void(ChunkRecord&, std::string_view frame)>& visit) {
    const auto bytes = read_file(map_batch_path(dir, batch));
    if (!bytes) return 0;
    // Two passes over the file's bytes: the first checks every frame, the
    // second decodes them one at a time into `record`.
    std::vector<Frame> frames;
    frames.reserve(batch.size());
    std::string_view rest = *bytes;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        bool partial = false;
        const auto frame = front_frame(rest, partial);
        if (!frame) return 0;
        frames.push_back(*frame);
        rest.remove_prefix(frame->size);
    }
    if (!rest.empty()) return 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!parse_chunk_record(frames[i].payload, record) ||
            record.chunk_index != batch.first + i) {
            return i;
        }
        visit(record, std::string_view{*bytes}.substr(start, frames[i].size));
        start += frames[i].size;
    }
    return batch.size();
}

std::optional<std::vector<ChunkRecord>> read_map_batch(const std::filesystem::path& dir,
                                                       const MapBatch& batch) {
    std::vector<ChunkRecord> records;
    records.reserve(batch.size());
    ChunkRecord record;
    const std::size_t read =
        replay_map_batch(dir, batch, record, [&](ChunkRecord& decoded, std::string_view) {
            records.push_back(std::move(decoded));
        });
    if (read != batch.size()) return std::nullopt;
    return records;
}

std::optional<ChunkRecord> read_map_chunk(const std::filesystem::path& dir,
                                          std::size_t chunk_index) {
    ChunkRecord record;
    const MapBatch batch{chunk_index, chunk_index};
    if (replay_map_batch(dir, batch, record, [](ChunkRecord&, std::string_view) {}) != 1) {
        return std::nullopt;
    }
    return record;
}

std::vector<MapBatch> list_map_batches(const std::filesystem::path& dir) {
    std::vector<MapBatch> out;
    for (const MapBatch& batch : all_map_batches(dir)) {
        if (out.empty() || batch.first > out.back().last) out.push_back(batch);
    }
    return out;
}

MapReplayResult read_map_journal(const std::filesystem::path& dir,
                                 const std::function<void(ChunkRecord&&)>& visit) {
    MapReplayResult out;
    if (!std::filesystem::is_directory(dir)) return out;
    if (const auto payload = read_framed_file(map_header_path(dir))) {
        if (const auto header = parse_header(*payload)) {
            out.header = *header;
            out.has_header = true;
        }
    }
    ChunkRecord record;
    for (const MapBatch& batch : list_map_batches(dir)) {
        const std::size_t read = replay_map_batch(
            dir, batch, record,
            [&](ChunkRecord& decoded, std::string_view) { visit(std::move(decoded)); });
        out.chunks_read += read;
        out.corrupt_chunks += batch.size() - read;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Scrub

const char* to_cstring(ScrubDamage damage) noexcept {
    switch (damage) {
        case ScrubDamage::header_corrupt: return "header_corrupt";
        case ScrubDamage::corrupt_map_chunk: return "corrupt_map_chunk";
    }
    return "unknown";
}

std::string ScrubReport::render() const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "scrub: %llu file(s) checked; %llu record(s) intact (%llu chunk(s)); "
                  "%llu byte(s) discarded\n",
                  static_cast<unsigned long long>(files_checked),
                  static_cast<unsigned long long>(records_intact),
                  static_cast<unsigned long long>(chunks_intact),
                  static_cast<unsigned long long>(bytes_discarded));
    out += line;
    if (clean()) {
        out += "scrub: journal is clean\n";
        return out;
    }
    for (const auto& finding : findings) {
        std::snprintf(line, sizeof line, "scrub: %s in %s [%s]: %s\n",
                      to_cstring(finding.damage), finding.file.c_str(),
                      finding.quarantined ? "quarantined" : "left in place",
                      finding.detail.c_str());
        out += line;
    }
    if (!chunks_to_rescan.empty()) {
        out += "scrub: reduce must rescan chunk(s)";
        for (const std::size_t index : chunks_to_rescan) {
            out += ' ';
            out += std::to_string(index);
        }
        out += '\n';
    }
    return out;
}

ScrubReport scrub_journal(const std::filesystem::path& dir, const ScrubOptions& options) {
    ScrubReport report;
    if (!std::filesystem::is_directory(dir)) return report;
    util::Io& io = util::resolve_io(options.io);
    const std::filesystem::path corrupt_dir = dir / "corrupt";

    // Every move goes through the seam and throws on failure — a scrub that
    // cannot repair must say so, not pretend it did.
    const auto damaged = [&](ScrubDamage damage, const std::filesystem::path& path,
                             std::string detail) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        report.bytes_discarded += ec ? 0 : static_cast<std::uint64_t>(size);
        ScrubFinding finding{damage, path.filename().string(), std::move(detail)};
        if (options.repair) {
            std::filesystem::create_directories(corrupt_dir);
            const util::IoResult moved =
                util::rename_durable(io, path, corrupt_dir / path.filename());
            if (!moved) throw_io("journal: scrub cannot quarantine " + path.string(), moved);
            finding.quarantined = true;
        }
        report.findings.push_back(std::move(finding));
    };

    const auto header_path = map_header_path(dir);
    const std::vector<MapBatch> batches = all_map_batches(dir);
    if (std::filesystem::is_regular_file(header_path)) {
        ++report.files_checked;
        const auto payload = read_framed_file(header_path);
        const auto parsed = payload ? parse_header(*payload) : std::nullopt;
        if (parsed) {
            ++report.records_intact;
            report.has_header = true;
            report.header = *parsed;
        } else {
            damaged(ScrubDamage::header_corrupt, header_path,
                    "map header fails frame/CRC/body validation");
        }
    } else if (!batches.empty()) {
        report.findings.push_back(
            {ScrubDamage::header_corrupt, kMapHeaderName, "map header is missing"});
    }
    // Without a valid header the next reduce wipes every chunk file
    // (init_map_journal), so all of them are rescanned.
    const bool rescan_all = !report.has_header;
    // Every file, overlapping ones included: scrub judges what is on disk,
    // not just what a reducer would fold.
    for (const MapBatch& batch : batches) {
        ++report.files_checked;
        if (read_map_batch(dir, batch)) {
            report.records_intact += batch.size();
            report.chunks_intact += batch.size();
            if (!rescan_all) continue;
        } else {
            damaged(ScrubDamage::corrupt_map_chunk, map_batch_path(dir, batch),
                    "record file fails frame/CRC/body validation or names the wrong chunk; "
                    "rescan chunks " +
                        std::to_string(batch.first) + ".." + std::to_string(batch.last));
        }
        for (std::size_t c = batch.first; c <= batch.last; ++c) {
            report.chunks_to_rescan.push_back(c);
        }
    }
    std::sort(report.chunks_to_rescan.begin(), report.chunks_to_rescan.end());
    report.chunks_to_rescan.erase(
        std::unique(report.chunks_to_rescan.begin(), report.chunks_to_rescan.end()),
        report.chunks_to_rescan.end());

    if (options.repair && !report.clean()) {
        std::filesystem::create_directories(corrupt_dir);
        const util::IoResult written = util::write_file_atomic(
            io, corrupt_dir / "scrub.report", report.render());
        if (!written) throw_io("journal: scrub cannot save scrub.report", written);
    }
    return report;
}

}  // namespace spinscope::scanner
