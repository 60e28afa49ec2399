// spinscope/scanner/procpool.cpp

#include "scanner/procpool.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scanner/journal.hpp"
#include "scanner/shard.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/trace.hpp"
#include "util/io.hpp"
#include "util/proc.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace spinscope::scanner {

void ProcPoolOptions::validate() const {
    if (procs < 1) throw std::invalid_argument("procpool: procs must be >= 1");
    if (chunk_attempts < 1) {
        throw std::invalid_argument("procpool: chunk_attempts must be >= 1");
    }
    if (hang_deadline.count_nanos() <= 0) {
        throw std::invalid_argument("procpool: hang_deadline must be positive");
    }
    proc_restart.validate();
}

#ifndef _WIN32

namespace {

/// Quarantine note used when a chunk exhausts chunk_attempts.
constexpr const char* kProcQuarantineError = "worker process died repeatedly";

/// The supervisor's poll period: how soon it notices a silent deadline
/// passing. Channel traffic and worker deaths wake it at once.
constexpr int kPollPeriodMs = 10;

/// Parses a `<verb> <n1> ... <nk>` channel line into `fields` (k =
/// fields.size()); false for any other verb, field count or spelling.
bool parse_line(std::string_view line, std::string_view verb,
                std::span<std::uint64_t> fields) {
    if (!line.starts_with(verb)) return false;
    const char* at = line.data() + verb.size();
    const char* const end = line.data() + line.size();
    for (std::uint64_t& field : fields) {
        if (at == end || *at != ' ') return false;
        const auto [next, ec] = std::from_chars(at + 1, end, field);
        if (ec != std::errc{} || next == at + 1) return false;
        at = next;
    }
    return at == end;
}

/// The worker process body: scan each chunk the supervisor assigns and send
/// its record back, until the channel reaches EOF. A worker touches no file.
/// Exit codes: 0 = EOF (the supervisor finished or died), 2 = unexpected
/// exception or garbled assignment.
int worker_main(const Campaign& campaign, const ProcPoolOptions& options, unsigned slot,
                int fd) noexcept {
    try {
        const auto& hook = options.worker_event_hook;
        const auto send = [&](const std::string& message) { (void)util::write_all(fd, message); };
        std::string inbox;
        for (;;) {
            struct pollfd in{fd, POLLIN, 0};
            if (::poll(&in, 1, -1) < 0 && errno != EINTR) return 2;
            const bool open = util::read_available(fd, inbox);
            std::size_t pos = 0;
            for (std::size_t nl = 0; (nl = inbox.find('\n', pos)) != std::string::npos;
                 pos = nl + 1) {
                std::uint64_t c = 0;
                if (!parse_line(std::string_view{inbox}.substr(pos, nl - pos), "scan", {&c, 1})) {
                    return 2;
                }
                if (hook) hook(slot, "claim", c);
                // From here on, this process dying charges the chunk.
                send("start " + std::to_string(c) + "\n");
                // Thread-level restart-then-quarantine happens inside
                // scan_chunk, so the record matches what run() journals.
                const telemetry::AllocSnapshot allocs;
                const ChunkRecord record = campaign.scan_chunk(c);
                const std::uint64_t chunk_allocs = allocs.count_since();
                const std::uint64_t chunk_alloc_bytes = allocs.bytes_since();
                if (hook) hook(slot, "scanned", c);
                // `record <c> <restarts> <rss> <allocs> <alloc bytes>`, then
                // the journal frame the supervisor commits byte for byte.
                send("record " + std::to_string(c) + " " + std::to_string(record.restarts) + " " +
                     std::to_string(telemetry::current_rss_bytes()) + " " +
                     std::to_string(chunk_allocs) + " " + std::to_string(chunk_alloc_bytes) +
                     "\n" + frame_record(serialize_chunk_record(record)));
                if (hook) hook(slot, "sent", c);
            }
            inbox.erase(0, pos);
            if (!open) return 0;
        }
    } catch (...) {
        return 2;
    }
}

/// Supervisor-side state of one worker slot across its incarnations.
struct WorkerSlot {
    long pid = -1;
    std::optional<util::Pipe> channel;  // parent end only (child end closed)
    std::string inbox;     // received bytes not yet split into messages
    bool hung_up = false;  // the channel read EOF: the process has exited
    std::chrono::steady_clock::time_point last_heard{};
    int incarnations = 0;
    util::Rng backoff_rng;
    bool alive = false;
    bool hang_killed = false;  // current incarnation was SIGKILLed for silence
    /// The chunk in flight (`scan` sent, its record not yet received) and
    /// whether the worker has sent `start` for it.
    std::optional<std::size_t> chunk;
    bool started = false;
    std::uint64_t peak_rss = 0;
    std::int64_t spawn_ns = 0;
    int lane = -1;
};

}  // namespace

ProcPoolReport run_procs(const Campaign& campaign, const ProcPoolOptions& options) {
    options.validate();
    const ScanOptions& sopt = campaign.options();
    if (sopt.journal_dir.empty()) {
        throw std::invalid_argument(
            "procpool: the campaign has no journal_dir — multi-process execution "
            "needs a shared map journal");
    }
    const std::filesystem::path dir = sopt.journal_dir;
    // Exclusive campaign ownership of the directory for the whole map pass.
    // Forked children inherit the held flag but _exit without running
    // destructors, so only the supervisor ever releases it.
    util::PidLockFile journal_lock;
    const std::vector<MapBatch> kept = open_map_journal(journal_lock, campaign, options.fresh);

    ProcPoolReport report;
    report.procs = options.procs;
    report.chunks_total = campaign.chunk_count();
    const std::size_t total = campaign.chunk_count();

    // The scheduler's whole state. `done` starts from one listing (possibly
    // a killed pass's batch files) and marks every chunk whose record is on
    // disk or held by the writer; `frontier` is the lowest chunk not done.
    // Pending chunks are the requeued ones (back = front of the queue) and
    // then every not-done chunk from `cursor` upwards, ascending, at most
    // `ahead` past the frontier: a stalled chunk holds back dispatch, so the
    // writer holds a few batches' records, never O(chunks).
    std::vector<char> done(total, 0);
    for (const MapBatch& batch : kept) std::fill_n(done.begin() + batch.first, batch.size(), 1);
    std::size_t frontier = 0;
    std::size_t cursor = 0;
    const std::size_t ahead = 2 * kMapBatchChunks + options.procs;
    std::vector<std::size_t> requeued;
    std::unordered_map<std::size_t, std::uint64_t> charges;  // mid-scan deaths
    const auto next_pending = [&]() -> std::optional<std::size_t> {
        if (!requeued.empty()) {
            const std::size_t c = requeued.back();
            requeued.pop_back();
            return c;
        }
        while (cursor < total && done[cursor] != 0) ++cursor;
        if (cursor == total || cursor >= frontier + ahead) return std::nullopt;
        return cursor++;
    };

    // The supervisor is the journal's only writer. Each batch window is
    // committed once the frontier passes it; a publish that fails past its
    // retries refuses the pass.
    MapBatchWriter writer{util::resolve_io(sopt.io), dir, sopt.journal_retry, sopt.seed};
    std::optional<std::string> refusal;
    const auto commit_ready = [&] {
        while (frontier < total && done[frontier] != 0) ++frontier;
        if (!writer.commit_passed(frontier, total) && !refusal) refusal = writer.last_error();
    };
    const auto record_chunk = [&](std::size_t c, std::string framed) {
        writer.add(c, std::move(framed));
        done[c] = 1;
        commit_ready();
    };
    // A resumed pass's frontier starts past its kept batches, or a long kept
    // prefix would leave nothing within `ahead` of it to dispatch.
    commit_ready();

    telemetry::MetricsRegistry* metrics = campaign.metrics();
    telemetry::TraceRecorder* trace = campaign.trace();
    const auto mark = [&](const WorkerSlot& slot, std::string_view what) {
        if (trace != nullptr && slot.lane >= 0) {
            trace->instant(telemetry::TraceClock::wall, slot.lane, std::string{what},
                           trace->wall_now_ns());
        }
    };

    std::vector<WorkerSlot> slots(options.procs);
    [[maybe_unused]] const ::pid_t supervisor = ::getpid();  // read by the worker

    const auto spawn = [&](unsigned index) {
        WorkerSlot& slot = slots[index];
        util::Pipe channel;  // throws std::runtime_error on failure
        const ::pid_t child = ::fork();
        if (child < 0) {
            throw std::runtime_error(std::string("procpool: fork failed: ") +
                                     std::strerror(errno));
        }
        if (child == 0) {
            // Worker process. Leave only via _exit: no destructors, no exit
            // handlers, no stdio flushing — the parent owns all of those.
#ifdef __linux__
            // Die with the supervisor even mid-scan; the re-check covers a
            // supervisor that died before the prctl. The signal fires when
            // the forking THREAD exits, which is never early: run_procs
            // reaps every worker before it returns.
            (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != supervisor) ::_exit(0);
#endif
            // Keep no copy of any parent end: a sibling holding one would
            // hide the supervisor's close (or death) from that worker.
            channel.close_parent();
            for (WorkerSlot& other : slots) {
                if (other.channel) other.channel->close_parent();
            }
            (void)util::set_nonblocking(channel.child_fd());
            ::_exit(worker_main(campaign, options, index, channel.child_fd()));
        }
        channel.close_child();
        (void)util::set_nonblocking(channel.parent_fd());
        slot.pid = child;
        slot.channel.emplace(std::move(channel));
        slot.hung_up = false;
        slot.last_heard = std::chrono::steady_clock::now();
        ++slot.incarnations;
        slot.alive = true;
        slot.hang_killed = false;
        if (trace != nullptr) slot.spawn_ns = trace->wall_now_ns();
    };

    // A message no healthy worker sends: kill the worker, whose death then
    // charges the chunk it was scanning like any other mid-scan death.
    const auto garble = [&](WorkerSlot& slot) {
        (void)::kill(static_cast<::pid_t>(slot.pid), SIGKILL);
        slot.inbox.clear();
        mark(slot, "garbled channel");
    };

    // `slot`'s `record <c> <restarts> <rss> <allocs> <alloc bytes>` for its
    // chunk in flight; false when the line is malformed or names another
    // chunk, which garbles the channel.
    const auto handle_record = [&](WorkerSlot& slot, std::string_view line,
                                   std::string_view frame) {
        std::uint64_t fields[5] = {};  // chunk, restarts, rss, allocs, alloc bytes
        if (!parse_line(line, "record", fields) || fields[0] != slot.chunk) {
            garble(slot);
            return false;
        }
        slot.chunk.reset();
        slot.started = false;
        report.worker_thread_restarts += fields[1];
        slot.peak_rss = std::max(slot.peak_rss, fields[2]);
        report.worker_allocs += fields[3];
        report.worker_alloc_bytes += fields[4];
        mark(slot, line.substr(0, line.find(' ', 7)));
        record_chunk(fields[0], std::string{frame});
        return true;
    };

    // Splits what `slot` sent into messages: lines, each `record` line
    // followed by its chunk's journal frame. A frame still arriving waits in
    // the inbox; one whose length or CRC can never check out is a torn or
    // garbled send.
    const auto drain_slot = [&](WorkerSlot& slot) {
        if (!slot.channel) return;
        slot.hung_up = !util::read_available(slot.channel->parent_fd(), slot.inbox);
        const std::string_view inbox = slot.inbox;
        std::size_t pos = 0;
        for (std::size_t nl = 0; (nl = inbox.find('\n', pos)) != std::string_view::npos;) {
            slot.last_heard = std::chrono::steady_clock::now();
            const std::string_view line = inbox.substr(pos, nl - pos);
            pos = nl + 1;
            if (std::uint64_t c = 0; parse_line(line, "start", {&c, 1}) && c == slot.chunk) {
                slot.started = true;
                mark(slot, line);
            } else if (line.starts_with("record ")) {
                const auto size = frame_size(inbox.substr(pos));
                if (!size) return garble(slot);
                if (*size == 0) {
                    pos = nl - line.size();
                    break;
                }
                if (!handle_record(slot, line, inbox.substr(pos, *size))) return;
                pos += *size;
            }
        }
        slot.inbox.erase(0, pos);
    };

    // The process-level twin of Campaign::scan_chunk's quarantine, built from
    // the same placeholders. The record's error names the chunk's domain
    // range (a chunk id alone is useless for finding a poisoned block); the
    // per-scan placeholders keep the bare text, as scans carry their ids.
    const auto quarantine = [&](std::size_t c) {
        const ShardPlan plan{campaign.domain_count(), sopt.chunk_domains};
        const ChunkRecord record{
            c, true, std::string{kProcQuarantineError} + " at " + describe_chunk(plan, c),
            campaign.quarantine_scans(c, kProcQuarantineError), {}};
        record_chunk(c, frame_record(serialize_chunk_record(record)));
        ++report.chunks_quarantined;
    };

    // Closes out `slot`'s reaped incarnation: the channel is drained first
    // (its buffer outlives the process; a frame cut off by the death stays
    // unreceived), then the trace lane gets the span.
    const auto end_incarnation = [&](WorkerSlot& slot, int status) {
        drain_slot(slot);
        if (trace != nullptr && slot.lane >= 0) {
            const std::int64_t now_ns = trace->wall_now_ns();
            trace->complete(telemetry::TraceClock::wall, slot.lane, "incarnation",
                            slot.spawn_ns, now_ns - slot.spawn_ns,
                            {telemetry::TraceArg::num("pid",
                                                      static_cast<std::uint64_t>(slot.pid)),
                             telemetry::TraceArg::num("status",
                                                      static_cast<std::uint64_t>(status))});
        }
        slot.channel.reset();
        slot.inbox.clear();
        slot.alive = false;
    };

    const auto handle_death = [&](unsigned index, WorkerSlot& slot, int status) {
        end_incarnation(slot, status);
        // An unstarted assignment goes back uncharged.
        if (const auto c = std::exchange(slot.chunk, std::nullopt)) {
            if (slot.started && ++charges[*c] >= options.chunk_attempts) {
                quarantine(*c);
            } else {
                requeued.push_back(*c);
            }
        }
        slot.started = false;
        if (refusal || slot.incarnations >= options.proc_restart.max_attempts) return;
        const util::Duration backoff =
            options.proc_restart.backoff_delay(slot.incarnations, slot.backoff_rng);
        std::this_thread::sleep_for(std::chrono::nanoseconds(backoff.count_nanos()));
        spawn(index);
        ++report.proc_restarts;
        if (metrics != nullptr) {
            metrics->counter(telemetry::CounterId::campaign_restarted_procs).add(1);
        }
    };

    for (unsigned i = 0; i < options.procs; ++i) {
        slots[i].backoff_rng = faults::RetryPolicy::restart_stream(sopt.seed, i);
        if (trace != nullptr) {
            slots[i].lane = trace->lane(telemetry::TraceClock::wall,
                                        "proc worker " + std::to_string(i));
        }
        spawn(i);
    }

    std::vector<struct pollfd> fds;
    std::vector<unsigned> fd_slot;
    while (!refusal) {
        // Hand every idle worker the next pending chunk. A send to a worker
        // that just died fails harmlessly: its reap requeues the chunk.
        bool in_flight = false;
        for (WorkerSlot& slot : slots) {
            if (slot.alive && !slot.chunk) {
                if (const auto c = next_pending()) {
                    slot.chunk = *c;
                    slot.started = false;
                    slot.last_heard = std::chrono::steady_clock::now();
                    (void)util::write_all(slot.channel->parent_fd(),
                                          "scan " + std::to_string(*c) + "\n");
                }
            }
            in_flight = in_flight || slot.chunk.has_value();
        }
        // Nothing in flight: either nothing is pending, or every slot has
        // spent its restart budget and the inline pass takes over.
        if (!in_flight) break;

        fds.clear();
        fd_slot.clear();
        for (unsigned i = 0; i < options.procs; ++i) {
            if (!slots[i].alive) continue;
            fds.push_back({slots[i].channel->parent_fd(), POLLIN, 0});
            fd_slot.push_back(i);
        }
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollPeriodMs);
        if (rc < 0 && errno != EINTR) {
            throw std::runtime_error(std::string("procpool: poll failed: ") +
                                     std::strerror(errno));
        }
        for (std::size_t f = 0; f < fds.size(); ++f) {
            if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            drain_slot(slots[fd_slot[f]]);
        }
        const auto now = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < options.procs; ++i) {
            WorkerSlot& slot = slots[i];
            if (!slot.alive) continue;
            // A hung-up channel means the process has exited: wait for it.
            int status = 0;
            const ::pid_t reaped = ::waitpid(static_cast<::pid_t>(slot.pid), &status,
                                             slot.hung_up ? 0 : WNOHANG);
            if (reaped == slot.pid) {
                handle_death(i, slot, status);
                continue;
            }
            const auto silence =
                std::chrono::duration_cast<std::chrono::nanoseconds>(now - slot.last_heard)
                    .count();
            if (slot.chunk && !slot.hang_killed &&
                silence > options.hang_deadline.count_nanos()) {
                // Hung (wedged syscall, livelock, stopped): SIGKILL now; the
                // death is reaped on the next loop and restarts as usual.
                (void)::kill(static_cast<::pid_t>(slot.pid), SIGKILL);
                slot.hang_killed = true;
                ++report.hang_kills;
                mark(slot, "hang kill");
            }
        }
    }

    // Closing its channel is an idle worker's signal to exit; after a
    // refusal, a worker still scanning is killed instead.
    for (WorkerSlot& slot : slots) {
        if (!slot.alive) continue;
        if (slot.chunk) (void)::kill(static_cast<::pid_t>(slot.pid), SIGKILL);
        slot.channel.reset();
        int status = 0;
        (void)::waitpid(static_cast<::pid_t>(slot.pid), &status, 0);
        end_incarnation(slot, status);
    }

    // Last-resort completion on the supervisor thread: chunks still without
    // a record once every slot has spent its restart budget are scanned
    // inline into the same writer.
    for (std::size_t c = 0; c < total && !refusal; ++c) {
        if (done[c] != 0) continue;
        const ChunkRecord record = campaign.scan_chunk(c);
        report.worker_thread_restarts += static_cast<std::uint64_t>(record.restarts);
        ++report.chunks_scanned_inline;
        record_chunk(c, frame_record(serialize_chunk_record(record)));
    }

    report.io_errors = writer.io_errors();
    report.last_io_error = writer.last_error();
    if (refusal) {
        // The journal cannot take the records: refuse loudly, with the
        // storage cause attributed.
        throw std::runtime_error("procpool: cannot " + *refusal);
    }
    for (const MapBatch& batch : list_map_batches(dir)) report.chunks_recorded += batch.size();
    if (report.chunks_recorded != report.chunks_total) {
        throw std::runtime_error("procpool: map pass finished with missing chunks");
    }

    if (metrics != nullptr) {
        // campaign.restarted_procs is counted incrementally at each re-fork;
        // the rest lands here. All of it is excluded from deterministic_csv.
        using telemetry::CounterId;
        const auto count = [&](CounterId id, std::uint64_t n) {
            if (n > 0) metrics->counter(id).add(n);
        };
        count(CounterId::campaign_restarted_workers, report.worker_thread_restarts);
        count(CounterId::obs_proc_hang_kills, report.hang_kills);
        count(CounterId::obs_proc_chunks_quarantined, report.chunks_quarantined);
        count(CounterId::obs_proc_chunks_scanned_inline, report.chunks_scanned_inline);
        count(CounterId::obs_proc_io_errors, report.io_errors);
        count(CounterId::obs_proc_worker_allocs, report.worker_allocs);
        count(CounterId::obs_proc_worker_alloc_bytes, report.worker_alloc_bytes);
        metrics->gauge(telemetry::GaugeId::obs_proc_procs).set(static_cast<double>(options.procs));
        std::uint64_t peak = 0;
        for (const WorkerSlot& slot : slots) peak = std::max(peak, slot.peak_rss);
        if (peak > 0) {
            metrics->gauge(telemetry::GaugeId::obs_proc_peak_worker_rss_bytes)
                .set(static_cast<double>(peak));
        }
    }
    return report;
}

#else  // _WIN32

ProcPoolReport run_procs(const Campaign&, const ProcPoolOptions& options) {
    options.validate();
    throw std::runtime_error(
        "procpool: multi-process execution requires fork(); this platform has none");
}

#endif

}  // namespace spinscope::scanner
