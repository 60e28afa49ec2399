// spinscope/scanner/procpool.cpp

#include "scanner/procpool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
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

/// Operator-facing location of `chunk` in the campaign's domain namespace,
/// e.g. "chunk 42 (domains [672, 688))" — a chunk id alone is useless for
/// finding a poisoned block in a multi-million-domain universe.
std::string locate_chunk(const Campaign& campaign, std::size_t chunk) {
    const ShardPlan plan{campaign.domain_count(), campaign.options().chunk_domains};
    return describe_chunk(plan, chunk);
}

void sleep_for(util::Duration d) {
    if (d.count_nanos() > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(d.count_nanos()));
    }
}

/// Placeholder record for a chunk whose scans keep killing worker processes:
/// the process-level twin of Campaign::scan_chunk's quarantine, built from
/// the same placeholders. The per-scan placeholders keep the bare text:
/// scans carry their own domain_id.
ChunkRecord proc_quarantine_record(const Campaign& campaign, std::size_t chunk) {
    return {chunk, true,
            std::string(kProcQuarantineError) + " at " + locate_chunk(campaign, chunk),
            campaign.quarantine_scans(chunk, kProcQuarantineError), {}};
}

/// The chunk index of a `<verb> <chunk>[ ...]` channel line; nullopt for any
/// other verb.
std::optional<std::size_t> chunk_of(const std::string& line, std::string_view verb) {
    if (line.size() <= verb.size() || !line.starts_with(verb) ||
        line[verb.size()] != ' ') {
        return std::nullopt;
    }
    return static_cast<std::size_t>(std::strtoull(line.c_str() + verb.size() + 1,
                                                  nullptr, 10));
}

/// Everything a forked worker needs. Lives in the child's (copy-on-write)
/// address space; nothing here is shared back to the supervisor.
struct WorkerContext {
    const Campaign* campaign = nullptr;
    const ProcPoolOptions* options = nullptr;
    util::Io* io = nullptr;  // the campaign's storage seam (DESIGN.md §16)
    std::filesystem::path dir;
    unsigned slot = 0;
    int fd = -1;  // this worker's end of its channel
};

/// The worker process body: scan and publish each chunk the supervisor
/// assigns, until the channel reaches EOF. Exit codes: 0 = EOF (the
/// supervisor finished or died), 2 = unexpected exception or garbled
/// assignment, 3 = publish failed.
int worker_main(const WorkerContext& ctx) noexcept {
    try {
        const Campaign& campaign = *ctx.campaign;
        const auto& hook = ctx.options->worker_event_hook;
        const auto send = [&](const std::string& line) {
            (void)util::write_line(ctx.fd, line);
        };
        util::LineReader reader{ctx.fd};
        std::vector<std::string> lines;
        for (;;) {
            struct pollfd in{ctx.fd, POLLIN, 0};
            if (::poll(&in, 1, -1) < 0 && errno != EINTR) return 2;
            lines.clear();
            const bool open = reader.drain(lines);
            for (const std::string& line : lines) {
                const auto assigned = chunk_of(line, "scan");
                if (!assigned) return 2;
                const std::size_t c = *assigned;
                if (hook) hook(ctx.slot, "claim", c);
                // From here on, this process dying charges the chunk.
                send("start " + std::to_string(c));
                // Thread-level restart-then-quarantine happens inside
                // scan_chunk, so the record matches what run() journals.
                ScannedChunk scanned = campaign.scan_chunk(c);
                if (scanned.restarts > 0) send("restart " + std::to_string(scanned.restarts));
                const ChunkRecord record = to_chunk_record(c, std::move(scanned));
                if (hook) hook(ctx.slot, "scanned", c);
                const util::IoResult published = write_map_chunk(*ctx.io, ctx.dir, record);
                if (!published) {
                    // Without the record the scan never happened. Attribute
                    // the cause, then die so the supervisor can restart (or
                    // finish inline).
                    send("ioerr publish chunk " + std::to_string(c) + ": " +
                         published.message());
                    return 3;
                }
                if (hook) hook(ctx.slot, "published", c);
                send("done " + std::to_string(c) + " " +
                     std::to_string(telemetry::current_rss_bytes()));
            }
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
    std::optional<util::LineReader> reader;
    bool hung_up = false;  // the channel read EOF: the process has exited
    std::chrono::steady_clock::time_point last_heard{};
    int incarnations = 0;
    util::Rng backoff_rng;
    bool alive = false;
    bool hang_killed = false;  // current incarnation was SIGKILLed for silence
    /// The chunk in flight (`scan` sent, `done` not yet read) and whether
    /// the worker has sent `start` for it.
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
    util::Io& io = util::resolve_io(sopt.io);

    CampaignHeader header;
    header.seed = sopt.seed;
    header.week = sopt.week;
    header.ipv6 = sopt.ipv6;
    header.chunk_domains = sopt.chunk_domains;
    header.domain_count = campaign.domain_count();
    header.has_telemetry = campaign.metrics() != nullptr;
    init_map_journal(io, dir, header, options.fresh);

    // Exclusive campaign ownership of the directory for the whole map pass.
    // Forked children inherit the held flag but _exit without running
    // destructors, so only the supervisor ever releases it.
    util::PidLockFile journal_lock;
    try {
        journal_lock.acquire(journal_lock_path(dir));
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(
            "procpool: journal dir '" + dir.string() +
            "' is in use by another campaign (" + e.what() +
            "); this campaign spans domains [0, " +
            std::to_string(campaign.domain_count()) + ") in " +
            std::to_string(campaign.chunk_count()) + " chunks");
    }

    ProcPoolReport report;
    report.procs = options.procs;
    report.chunks_total = campaign.chunk_count();
    const std::size_t total = campaign.chunk_count();

    // The scheduler's whole state. `done` starts from one listing (possibly
    // a killed run()'s batch files); pending chunks are the requeued ones
    // (back = front of the queue) and then every not-done chunk from
    // `cursor` upwards, ascending.
    std::vector<char> done(total, 0);
    for (const std::size_t c : list_map_chunks(dir)) {
        if (c < total) done[c] = 1;
    }
    std::size_t cursor = 0;
    std::vector<std::size_t> requeued;
    std::unordered_map<std::size_t, std::uint64_t> charges;  // mid-scan deaths
    const auto next_pending = [&]() -> std::optional<std::size_t> {
        if (!requeued.empty()) {
            const std::size_t c = requeued.back();
            requeued.pop_back();
            return c;
        }
        while (cursor < total && done[cursor] != 0) ++cursor;
        if (cursor == total) return std::nullopt;
        return cursor++;
    };

    telemetry::MetricsRegistry* metrics = campaign.metrics();
    telemetry::TraceRecorder* trace = campaign.trace();
    const auto mark = [&](const WorkerSlot& slot, const std::string& what) {
        if (trace != nullptr && slot.lane >= 0) {
            trace->instant(telemetry::TraceClock::wall, slot.lane, what,
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
            WorkerContext ctx;
            ctx.campaign = &campaign;
            ctx.options = &options;
            ctx.io = &io;
            ctx.dir = dir;
            ctx.slot = index;
            ctx.fd = channel.child_fd();
            ::_exit(worker_main(ctx));
        }
        channel.close_child();
        (void)util::set_nonblocking(channel.parent_fd());
        slot.pid = child;
        slot.channel.emplace(std::move(channel));
        slot.reader.emplace(slot.channel->parent_fd());
        slot.hung_up = false;
        slot.last_heard = std::chrono::steady_clock::now();
        ++slot.incarnations;
        slot.alive = true;
        slot.hang_killed = false;
        if (trace != nullptr) slot.spawn_ns = trace->wall_now_ns();
    };

    const auto handle_line = [&](WorkerSlot& slot, const std::string& line) {
        slot.last_heard = std::chrono::steady_clock::now();
        if (const auto c = chunk_of(line, "start"); c && c == slot.chunk) {
            slot.started = true;
            mark(slot, line);
        } else if (const auto d = chunk_of(line, "done"); d && d == slot.chunk) {
            done[*d] = 1;
            slot.chunk.reset();
            slot.started = false;
            const auto rss = line.find(' ', 5);
            if (rss != std::string::npos) {
                slot.peak_rss = std::max<std::uint64_t>(
                    slot.peak_rss, std::strtoull(line.c_str() + rss + 1, nullptr, 10));
            }
            mark(slot, line.substr(0, rss));
        } else if (line.starts_with("restart ")) {
            report.worker_thread_restarts += std::strtoull(line.c_str() + 8, nullptr, 10);
        } else if (line.starts_with("ioerr ")) {
            // A worker hit a real storage failure. Count and keep the
            // attributed cause; the worker's death decides what happens to
            // its chunk.
            ++report.io_errors;
            report.last_io_error = line.substr(6);
            mark(slot, line);
        }
    };

    const auto drain_slot = [&](WorkerSlot& slot) {
        if (!slot.reader) return;
        std::vector<std::string> lines;
        slot.hung_up = !slot.reader->drain(lines);
        for (const std::string& line : lines) handle_line(slot, line);
    };

    // Publishes the quarantine placeholder for a chunk that used up its
    // charges. A failed publish leaves the chunk not done; the inline pass
    // at the end retries it.
    const auto quarantine = [&](std::size_t c) {
        const util::IoResult published =
            write_map_chunk(io, dir, proc_quarantine_record(campaign, c));
        if (!published) {
            ++report.io_errors;
            report.last_io_error = "quarantine " + locate_chunk(campaign, c) + ": " +
                                   published.message();
            return false;
        }
        done[c] = 1;
        ++report.chunks_quarantined;
        return true;
    };

    // Closes out `slot`'s reaped incarnation: the channel is drained first
    // (its buffer outlives the process), then the trace lane gets the span.
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
        slot.reader.reset();
        slot.channel.reset();
        slot.alive = false;
    };

    const auto handle_death = [&](unsigned index, WorkerSlot& slot, int status) {
        end_incarnation(slot, status);
        if (slot.chunk) {
            const std::size_t c = *slot.chunk;
            slot.chunk.reset();
            std::error_code ec;
            if (!slot.started) {
                requeued.push_back(c);  // died before starting: no charge
            } else if (std::filesystem::exists(map_chunk_path(dir, c), ec)) {
                done[c] = 1;  // died between publish and `done`
            } else if (++charges[c] < options.chunk_attempts) {
                requeued.push_back(c);
            } else {
                (void)quarantine(c);
            }
            slot.started = false;
        }
        if (slot.incarnations >= options.proc_restart.max_attempts) return;
        sleep_for(options.proc_restart.backoff_delay(slot.incarnations,
                                                     slot.backoff_rng));
        spawn(index);
        ++report.proc_restarts;
        if (metrics != nullptr) metrics->counter("campaign.restarted_procs").add(1);
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
    for (;;) {
        // Hand every idle worker the next pending chunk. A send to a worker
        // that just died fails harmlessly: its reap requeues the chunk.
        bool in_flight = false;
        for (WorkerSlot& slot : slots) {
            if (slot.alive && !slot.chunk) {
                if (const auto c = next_pending()) {
                    slot.chunk = *c;
                    slot.started = false;
                    slot.last_heard = std::chrono::steady_clock::now();
                    (void)util::write_line(slot.channel->parent_fd(),
                                           "scan " + std::to_string(*c));
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

    // Every live worker is idle: closing its channel is its signal to exit.
    for (WorkerSlot& slot : slots) {
        if (!slot.alive) continue;
        slot.reader.reset();
        slot.channel.reset();
        int status = 0;
        (void)::waitpid(static_cast<::pid_t>(slot.pid), &status, 0);
        end_incarnation(slot, status);
    }

    // Last-resort completion on the supervisor thread: chunks still without
    // a record once every slot has spent its restart budget (or whose
    // quarantine publish failed) are finished inline.
    for (std::size_t c = 0; c < total; ++c) {
        if (done[c] != 0) continue;
        const auto charged = charges.find(c);
        if (charged != charges.end() && charged->second >= options.chunk_attempts) {
            if (quarantine(c)) continue;
            throw std::runtime_error("procpool: cannot publish quarantine record for " +
                                     locate_chunk(campaign, c) + " in '" + dir.string() +
                                     "': " + report.last_io_error);
        }
        ScannedChunk scanned = campaign.scan_chunk(c);
        report.worker_thread_restarts += static_cast<std::uint64_t>(scanned.restarts);
        const ChunkRecord record = to_chunk_record(c, std::move(scanned));
        const util::IoResult published = write_map_chunk(io, dir, record);
        if (!published) {
            // Last-resort completion has no further fallback: refuse loudly
            // with the storage cause attributed.
            throw std::runtime_error("procpool: cannot publish record for " +
                                     locate_chunk(campaign, c) + " in '" +
                                     dir.string() + "': " + published.message());
        }
        done[c] = 1;
        ++report.chunks_scanned_inline;
    }

    for (const std::size_t c : list_map_chunks(dir)) {
        if (c < total) ++report.chunks_recorded;
    }
    if (report.chunks_recorded != report.chunks_total) {
        throw std::runtime_error("procpool: map pass finished with missing chunks");
    }

    if (metrics != nullptr) {
        // campaign.restarted_procs is counted incrementally at each re-fork;
        // the rest lands here. All of it is excluded from deterministic_csv.
        if (report.worker_thread_restarts > 0) {
            metrics->counter("campaign.restarted_workers")
                .add(report.worker_thread_restarts);
        }
        if (report.hang_kills > 0) {
            metrics->counter("obs.proc.hang_kills").add(report.hang_kills);
        }
        if (report.chunks_quarantined > 0) {
            metrics->counter("obs.proc.chunks_quarantined")
                .add(report.chunks_quarantined);
        }
        if (report.chunks_scanned_inline > 0) {
            metrics->counter("obs.proc.chunks_scanned_inline")
                .add(report.chunks_scanned_inline);
        }
        if (report.io_errors > 0) {
            metrics->counter("obs.proc.io_errors").add(report.io_errors);
        }
        metrics->gauge("obs.proc.procs").set(static_cast<double>(options.procs));
        std::uint64_t peak = 0;
        for (const WorkerSlot& slot : slots) peak = std::max(peak, slot.peak_rss);
        if (peak > 0) {
            metrics->gauge("obs.proc.peak_worker_rss_bytes")
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
