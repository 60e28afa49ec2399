#include "scanner/journal.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/text_cursor.hpp"

namespace spinscope::scanner {

namespace {

constexpr std::string_view kFrameMarker = "#rec ";

// ---------------------------------------------------------------------------
// Token encoding: journal scalar strings (error messages, response headers)
// are percent-encoded into single whitespace-free tokens so that every
// payload line splits unambiguously on spaces. The empty string encodes to
// the empty token.

[[nodiscard]] std::string encode_token(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto b = static_cast<unsigned char>(c);
        if (b > 0x20 && b < 0x7f && b != '%') {
            out.push_back(c);
        } else {
            out.push_back('%');
            out.push_back(kHex[b >> 4]);
            out.push_back(kHex[b & 0xf]);
        }
    }
    return out;
}

[[nodiscard]] int lower_hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
}

/// Reads one encode_token() token: the run of bytes up to the next space,
/// newline or other byte encode_token never writes plain, with %xx
/// (lowercase) standing for exactly the bytes encode_token escapes.
[[nodiscard]] bool read_token(util::TextCursor& in, std::string& out) {
    const std::string_view rest = in.rest();
    std::size_t i = 0;
    while (i < rest.size()) {
        const auto b = static_cast<unsigned char>(rest[i]);
        if (b <= 0x20 || b >= 0x7f) break;
        if (b != '%') {
            out.push_back(rest[i++]);
            continue;
        }
        if (rest.size() - i < 3) return false;
        const int hi = lower_hex_digit(rest[i + 1]);
        const int lo = lower_hex_digit(rest[i + 2]);
        if (hi < 0 || lo < 0) return false;
        const auto decoded = static_cast<unsigned char>((hi << 4) | lo);
        if (decoded > 0x20 && decoded < 0x7f && decoded != '%') return false;
        out.push_back(static_cast<char>(decoded));
        i += 3;
    }
    in.skip(i);
    return true;
}

/// `key=<integer>` (see util::TextCursor::integer).
template <typename T>
[[nodiscard]] bool read_kv(util::TextCursor& in, std::string_view key, T& out) {
    return in.literal(key) && in.literal('=') && in.integer(out);
}

[[nodiscard]] bool read_kv_flag(util::TextCursor& in, std::string_view key, bool& out) {
    return in.literal(key) && in.literal('=') && in.flag(out);
}

[[nodiscard]] bool read_kv_token(util::TextCursor& in, std::string_view key,
                                 std::string& out) {
    return in.literal(key) && in.literal('=') && read_token(in, out);
}

/// Chunk-file names zero-pad their indices, so they parse with from_chars
/// rather than the canonical-integer reader.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view token, T& out) {
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
    return ec == std::errc{} && ptr == token.data() + token.size();
}

void append_kv(std::string& out, std::string_view key, std::uint64_t v) {
    out += ' ';
    out += key;
    out += '=';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

void append_kv_signed(std::string& out, std::string_view key, long long v) {
    out += ' ';
    out += key;
    out += '=';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", v);
    out += buf;
}

void append_length_block(std::string& out, std::string_view keyword, std::string_view bytes) {
    out += keyword;
    out += ' ';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%zu", bytes.size());
    out += buf;
    out += '\n';
    out += bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// Record payloads

std::string serialize_header(const CampaignHeader& header) {
    std::string out = "campaign";
    append_kv(out, "seed", header.seed);
    append_kv_signed(out, "week", header.week);
    append_kv(out, "ipv6", header.ipv6 ? 1 : 0);
    append_kv(out, "chunk_domains", header.chunk_domains);
    append_kv(out, "domain_count", header.domain_count);
    append_kv(out, "telemetry", header.has_telemetry ? 1 : 0);
    out += '\n';
    return out;
}

std::optional<CampaignHeader> parse_header(std::string_view payload) {
    util::TextCursor in{payload};
    CampaignHeader header;
    if (!in.literal("campaign ") || !read_kv(in, "seed", header.seed) ||
        !read_kv(in, " week", header.week) || !read_kv_flag(in, " ipv6", header.ipv6) ||
        !read_kv(in, " chunk_domains", header.chunk_domains) ||
        !read_kv(in, " domain_count", header.domain_count) ||
        !read_kv_flag(in, " telemetry", header.has_telemetry) || !in.literal('\n') ||
        !in.done()) {
        return std::nullopt;
    }
    return header;
}

std::string serialize_chunk_record(const ChunkRecord& record) {
    std::string out = "chunk";
    append_kv(out, "index", record.chunk_index);
    append_kv(out, "quarantined", record.quarantined ? 1 : 0);
    out += " error=";
    out += encode_token(record.quarantine_error);
    append_kv(out, "domains", record.scans.size());
    out += '\n';

    for (const auto& scan : record.scans) {
        out += "domain";
        append_kv(out, "id", scan.domain_id);
        append_kv(out, "resolved", scan.resolved ? 1 : 0);
        append_kv(out, "redirects", scan.redirects_followed);
        append_kv(out, "retries", scan.retries);
        append_kv(out, "recovered", scan.recovered_by_retry ? 1 : 0);
        append_kv(out, "attempts_truncated", scan.attempts_truncated);
        append_kv_signed(out, "sim_ns", scan.sim_time.count_nanos());
        out += " error=";
        out += encode_token(scan.error);
        append_kv(out, "response", scan.final_response ? 1 : 0);
        const ResponseInfo response = scan.final_response.value_or(ResponseInfo{});
        append_kv_signed(out, "status", response.status);
        append_kv(out, "body", response.body_bytes);
        out += " location=";
        out += encode_token(response.location);
        out += " server=";
        out += encode_token(response.server_name);
        append_kv(out, "attempts", scan.attempts.size());
        append_kv(out, "connections", scan.connections.size());
        out += '\n';

        for (const auto& attempt : scan.attempts) {
            out += "attempt";
            append_kv_signed(out, "hop", attempt.redirect_hop);
            append_kv_signed(out, "retry", attempt.retry);
            append_kv(out, "outcome", static_cast<std::uint64_t>(attempt.outcome));
            append_kv_signed(out, "backoff_ns", attempt.backoff.count_nanos());
            append_kv(out, "fault", static_cast<std::uint64_t>(attempt.server_fault));
            out += '\n';
        }
        for (const auto& trace : scan.connections) {
            append_length_block(out, "trace", qlog::to_jsonl(trace));
        }
    }
    append_length_block(out, "telemetry", record.telemetry_snapshot);
    return out;
}

namespace {

/// Reads one append_length_block(): `<keyword> <nbytes>\n` and that many
/// raw bytes.
[[nodiscard]] std::optional<std::string_view> read_length_block(util::TextCursor& in,
                                                                std::string_view keyword) {
    std::size_t n = 0;
    if (!in.literal(keyword) || !in.literal(' ') || !in.integer(n) || !in.literal('\n')) {
        return std::nullopt;
    }
    return in.bytes(n);
}

/// Room to reserve for `count` parsed elements: a count read off the input
/// is untrusted, and every element takes at least a few bytes of it.
[[nodiscard]] std::size_t reserve_bound(std::size_t count, const util::TextCursor& in) {
    return std::min(count, in.rest().size() / 16);
}

[[nodiscard]] bool read_attempt(util::TextCursor& in, DomainScan::AttemptRecord& attempt) {
    std::size_t outcome = 0;
    std::int64_t backoff_ns = 0;
    std::size_t fault = 0;
    if (!in.literal("attempt ") || !read_kv(in, "hop", attempt.redirect_hop) ||
        !read_kv(in, " retry", attempt.retry) || !read_kv(in, " outcome", outcome) ||
        !read_kv(in, " backoff_ns", backoff_ns) || !read_kv(in, " fault", fault) ||
        !in.literal('\n') || outcome >= qlog::kConnectionOutcomeCount ||
        fault >= faults::kServerFaultModeCount) {
        return false;
    }
    attempt.outcome = static_cast<qlog::ConnectionOutcome>(outcome);
    attempt.backoff = util::Duration::nanos(backoff_ns);
    attempt.server_fault = static_cast<faults::ServerFaultMode>(fault);
    return true;
}

[[nodiscard]] bool read_scan(util::TextCursor& in, DomainScan& scan) {
    std::int64_t sim_ns = 0;
    bool has_response = false;
    ResponseInfo response;
    std::size_t attempt_count = 0;
    std::size_t connection_count = 0;
    if (!in.literal("domain ") || !read_kv(in, "id", scan.domain_id) ||
        !read_kv_flag(in, " resolved", scan.resolved) ||
        !read_kv(in, " redirects", scan.redirects_followed) ||
        !read_kv(in, " retries", scan.retries) ||
        !read_kv_flag(in, " recovered", scan.recovered_by_retry) ||
        !read_kv(in, " attempts_truncated", scan.attempts_truncated) ||
        !read_kv(in, " sim_ns", sim_ns) || !read_kv_token(in, " error", scan.error) ||
        !read_kv_flag(in, " response", has_response) ||
        !read_kv(in, " status", response.status) ||
        !read_kv(in, " body", response.body_bytes) ||
        !read_kv_token(in, " location", response.location) ||
        !read_kv_token(in, " server", response.server_name) ||
        !read_kv(in, " attempts", attempt_count) ||
        !read_kv(in, " connections", connection_count) || !in.literal('\n')) {
        return false;
    }
    scan.sim_time = util::Duration::nanos(sim_ns);
    if (has_response) {
        scan.final_response = std::move(response);
    } else if (response.status != 0 || response.body_bytes != 0 || !response.location.empty() ||
               !response.server_name.empty()) {
        return false;  // the writer prints a default ResponseInfo
    }

    scan.attempts.reserve(reserve_bound(attempt_count, in));
    for (std::size_t a = 0; a < attempt_count; ++a) {
        if (!read_attempt(in, scan.attempts.emplace_back())) return false;
    }
    scan.connections.reserve(reserve_bound(connection_count, in));
    for (std::size_t c = 0; c < connection_count; ++c) {
        const auto raw = read_length_block(in, "trace");
        if (!raw) return false;
        auto trace = qlog::parse_jsonl(*raw);
        if (!trace) return false;
        scan.connections.push_back(std::move(*trace));
    }
    return true;
}

}  // namespace

std::optional<ChunkRecord> parse_chunk_record(std::string_view payload) {
    util::TextCursor in{payload};
    ChunkRecord record;
    std::size_t domain_count = 0;
    if (!in.literal("chunk ") || !read_kv(in, "index", record.chunk_index) ||
        !read_kv_flag(in, " quarantined", record.quarantined) ||
        !read_kv_token(in, " error", record.quarantine_error) ||
        !read_kv(in, " domains", domain_count) || !in.literal('\n')) {
        return std::nullopt;
    }
    record.scans.reserve(reserve_bound(domain_count, in));
    for (std::size_t d = 0; d < domain_count; ++d) {
        if (!read_scan(in, record.scans.emplace_back())) return std::nullopt;
    }
    const auto telemetry = read_length_block(in, "telemetry");
    if (!telemetry || !in.done()) return std::nullopt;
    record.telemetry_snapshot = std::string{*telemetry};
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

/// Reads the next frame of `in` into `payload`; false at a garbled head, a
/// short read or, with `check_crc`, a CRC mismatch.
[[nodiscard]] bool read_frame(std::istream& in, std::string& payload, bool check_crc) {
    char line[kMaxFrameHead + 2];
    if (!in.getline(line, sizeof line)) return false;
    const auto head = parse_frame_head(line);
    if (!head) return false;
    payload.resize(head->len);
    if (!in.read(payload.data(), static_cast<std::streamsize>(head->len))) return false;
    return !check_crc || util::crc32(payload) == head->crc;
}

[[noreturn]] void throw_io(const std::string& what, util::IoResult result) {
    throw JournalIoError{what + ": " + result.message(), result};
}

}  // namespace

std::optional<std::size_t> frame_size(std::string_view bytes) {
    const std::size_t head_end = bytes.find('\n');
    if (head_end == std::string_view::npos) {
        if (bytes.size() > kMaxFrameHead) return std::nullopt;
        return 0;  // the head is still arriving
    }
    const auto head = parse_frame_head(bytes.substr(0, head_end));
    if (!head) return std::nullopt;
    const std::string_view rest = bytes.substr(head_end + 1);
    if (rest.size() < head->len) return 0;
    if (util::crc32(rest.substr(0, head->len)) != head->crc) return std::nullopt;
    return head_end + 1 + head->len;
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
    if (!std::filesystem::is_regular_file(path)) return std::nullopt;
    std::ifstream in{path, std::ios::binary};
    std::string payload;
    if (!read_frame(in, payload, /*check_crc=*/true) || in.peek() != EOF) return std::nullopt;
    return payload;
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
    if (wipe) {
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            if (is_map_file(entry.path().filename().string())) {
                const util::IoResult removed = io.remove(entry.path());
                if (!removed) {
                    throw_io("journal: cannot wipe " + entry.path().string(), removed);
                }
            }
        }
    } else {
        const auto existing = read_framed_file(map_header_path(dir));
        if (existing) {
            const auto parsed = parse_header(*existing);
            if (parsed && !(*parsed == header)) {
                throw std::invalid_argument(
                    "journal: map header mismatch — this journal belongs to a "
                    "different campaign (seed/week/family/chunking/population "
                    "differ)");
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
    const CampaignHeader header{options.seed,          options.week,
                                options.ipv6,          options.chunk_domains,
                                campaign.domain_count(), campaign.metrics() != nullptr};
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
        if (result) result = publish(batch, framed);
        held_.erase(held_.begin(), it);
    }
    return result;
}

std::size_t replay_map_batch(const std::filesystem::path& dir, const MapBatch& batch,
                             const std::function<void(ChunkRecord&&)>& visit,
                             std::string* prefix) {
    const auto path = map_batch_path(dir, batch);
    if (!std::filesystem::is_regular_file(path)) return 0;
    // Two passes over the file with one frame buffer: the first checks every
    // frame, the second decodes them one at a time.
    std::ifstream in{path, std::ios::binary};
    std::string frame;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!read_frame(in, frame, /*check_crc=*/true)) return 0;
    }
    if (in.peek() != EOF) return 0;
    in.seekg(0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::streamoff start = in.tellg();
        auto record = read_frame(in, frame, /*check_crc=*/false)
                          ? parse_chunk_record(frame)
                          : std::nullopt;
        if (!record || record->chunk_index != batch.first + i) {
            if (prefix != nullptr) {
                prefix->resize(static_cast<std::size_t>(start));
                in.clear();
                in.seekg(0);
                in.read(prefix->data(), start);
            }
            return i;
        }
        visit(std::move(*record));
    }
    return batch.size();
}

std::optional<std::vector<ChunkRecord>> read_map_batch(const std::filesystem::path& dir,
                                                       const MapBatch& batch) {
    std::vector<ChunkRecord> records;
    records.reserve(batch.size());
    const std::size_t read = replay_map_batch(
        dir, batch, [&](ChunkRecord&& record) { records.push_back(std::move(record)); });
    if (read != batch.size()) return std::nullopt;
    return records;
}

std::optional<ChunkRecord> read_map_chunk(const std::filesystem::path& dir,
                                          std::size_t chunk_index) {
    auto records = read_map_batch(dir, {chunk_index, chunk_index});
    if (!records) return std::nullopt;
    return std::move(records->front());
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
    for (const MapBatch& batch : list_map_batches(dir)) {
        const std::size_t read = replay_map_batch(dir, batch, visit);
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

std::string ScrubReport::machine_report() const {
    std::string out = "scrub";
    append_kv(out, "header", has_header ? 1 : 0);
    append_kv(out, "files", files_checked);
    append_kv(out, "records_intact", records_intact);
    append_kv(out, "chunks_intact", chunks_intact);
    append_kv(out, "bytes_discarded", bytes_discarded);
    append_kv(out, "findings", findings.size());
    out += '\n';
    for (const auto& finding : findings) {
        out += "finding damage=";
        out += to_cstring(finding.damage);
        out += " file=";
        out += encode_token(finding.file);
        append_kv(out, "quarantined", finding.quarantined ? 1 : 0);
        out += " detail=";
        out += encode_token(finding.detail);
        out += '\n';
    }
    for (const std::size_t index : chunks_to_rescan) {
        out += "rescan";
        append_kv(out, "chunk", index);
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
    }
    // Every file, overlapping ones included: scrub judges what is on disk,
    // not just what a reducer would fold.
    for (const MapBatch& batch : all_map_batches(dir)) {
        ++report.files_checked;
        if (read_map_batch(dir, batch)) {
            report.records_intact += batch.size();
            report.chunks_intact += batch.size();
            continue;
        }
        damaged(ScrubDamage::corrupt_map_chunk, map_batch_path(dir, batch),
                "record file fails frame/CRC/body validation or names the wrong chunk; "
                "rescan chunks " +
                    std::to_string(batch.first) + ".." + std::to_string(batch.last));
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
            io, corrupt_dir / "scrub.report", report.machine_report());
        if (!written) throw_io("journal: scrub cannot save scrub.report", written);
    }
    return report;
}

}  // namespace spinscope::scanner
