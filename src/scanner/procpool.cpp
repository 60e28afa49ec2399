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
#include <vector>

#include "scanner/journal.hpp"
#include "scanner/shard.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/io.hpp"
#include "util/proc.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace spinscope::scanner {

void ProcPoolOptions::validate() const {
    if (procs < 1) throw std::invalid_argument("procpool: procs must be >= 1");
    if (lease_batch < 1) throw std::invalid_argument("procpool: lease_batch must be >= 1");
    if (chunk_attempts < 1) {
        throw std::invalid_argument("procpool: chunk_attempts must be >= 1");
    }
    if (heartbeat_interval.count_nanos() <= 0) {
        throw std::invalid_argument("procpool: heartbeat_interval must be positive");
    }
    if (hang_deadline.count_nanos() <= 0) {
        throw std::invalid_argument("procpool: hang_deadline must be positive");
    }
    if (lease_ttl.count_nanos() <= 0) {
        throw std::invalid_argument("procpool: lease_ttl must be positive");
    }
    proc_restart.validate();
}

#ifndef _WIN32

namespace {

/// Quarantine note used when a chunk burns its process-incarnation budget.
/// The worker-side stale-lease sweep and the supervisor's inline sweep both
/// use this exact text, so whoever loses the (idempotent) publish race wrote
/// the same bytes as the winner.
constexpr const char* kProcQuarantineError = "worker process died repeatedly";

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

/// Age of a lease file in wall nanoseconds; nullopt when unreadable (e.g.
/// removed concurrently).
std::optional<std::int64_t> lease_age_ns(const std::filesystem::path& path) {
    std::error_code ec;
    const auto written = std::filesystem::last_write_time(path, ec);
    if (ec) return std::nullopt;
    const auto now = std::filesystem::file_time_type::clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now - written).count();
}

/// True once `chunk` has a record: a file that held it when the pass
/// started (`at_start` — possibly a run()'s batch file) or the single-chunk
/// file a worker published since.
bool chunk_recorded(const std::filesystem::path& dir, const std::vector<char>& at_start,
                    std::size_t chunk) {
    std::error_code ec;
    return at_start[chunk] != 0 || std::filesystem::exists(map_chunk_path(dir, chunk), ec);
}

/// Placeholder record for a chunk whose scans keep killing worker processes:
/// the process-level twin of Campaign::scan_chunk's quarantine, built from
/// the same placeholders.
ChunkRecord proc_quarantine_record(const Campaign& campaign, std::size_t chunk) {
    // The located note is a pure function of (campaign geometry, chunk), so
    // racing publishers still write byte-identical records. The per-scan
    // placeholders keep the bare text: scans carry their own domain_id.
    return {chunk, true,
            std::string(kProcQuarantineError) + " at " + locate_chunk(campaign, chunk),
            campaign.quarantine_scans(chunk, kProcQuarantineError), {}};
}

/// Examines the lease on `chunk` and clears it when stale (dead owner, or
/// older than lease_ttl regardless of owner — the pid-reuse guard). Returns
/// the stale lease's attempt count when the chunk became claimable, nullopt
/// when a live peer holds it or someone else won the release race. A stale
/// lease that had already exhausted chunk_attempts is quarantined on the
/// spot (`*quarantined` incremented) and reported unclaimable — the chunk is
/// finished, not available.
std::optional<std::uint64_t> clear_stale_lease(util::Io& io, const Campaign& campaign,
                                               const ProcPoolOptions& options,
                                               const std::filesystem::path& dir,
                                               std::size_t chunk,
                                               std::uint64_t* quarantined) {
    const auto lease = read_lease(dir, chunk);
    if (!lease) {
        std::error_code ec;
        if (std::filesystem::exists(lease_path(dir, chunk), ec)) {
            // Garbled lease file (torn write of a crashed claimer): break it
            // with the token-0 override.
            if (!release_lease(dir, chunk, 0)) return std::nullopt;
        }
        return 0;
    }
    const bool dead = !util::process_alive(lease->pid);
    bool expired = false;
    if (!dead) {
        if (const auto age = lease_age_ns(lease_path(dir, chunk))) {
            expired = *age > options.lease_ttl.count_nanos();
        }
    }
    if (!dead && !expired) return std::nullopt;
    // Fencing: release exactly the incarnation we inspected. If the owner
    // re-claimed with a new token in between, this fails and we back off.
    if (!release_lease(dir, chunk, lease->token)) return std::nullopt;
    if (lease->attempts >= options.chunk_attempts) {
        // Every process that touched this chunk died on it: publish the
        // quarantine placeholder instead of feeding it another incarnation.
        // Best-effort: a failed publish leaves the chunk unclaimed and the
        // next sweep (or the supervisor's inline pass) retries it.
        (void)write_map_chunk(io, dir, proc_quarantine_record(campaign, chunk));
        if (quarantined != nullptr) ++*quarantined;
        return std::nullopt;
    }
    return lease->attempts;
}

/// Everything a forked worker needs. Lives in the child's (copy-on-write)
/// address space; nothing here is shared back to the supervisor.
struct WorkerContext {
    const Campaign* campaign = nullptr;
    const ProcPoolOptions* options = nullptr;
    util::Io* io = nullptr;  // the campaign's storage seam (DESIGN.md §16)
    std::filesystem::path dir;
    const std::vector<char>* recorded_at_start = nullptr;
    unsigned slot = 0;
    std::uint64_t token = 0;
    int pipe_fd = -1;
};

/// The worker process body: claim a batch of leases, scan and publish each
/// chunk, repeat until every chunk of the campaign has a record. Exit codes:
/// 0 = no work left, 2 = unexpected exception, 3 = publish failed.
int worker_main(const WorkerContext& ctx) noexcept {
    try {
        ::signal(SIGPIPE, SIG_IGN);
        const ProcPoolOptions& opt = *ctx.options;
        const Campaign& campaign = *ctx.campaign;
        if (opt.rss_hard_limit > 0) {
            // RLIMIT_AS is address space, not resident set, but it is the
            // portable way to make a runaway worker's allocations FAIL (and
            // the worker die and restart) instead of wedging the host.
            struct rlimit lim;
            lim.rlim_cur = opt.rss_hard_limit;
            lim.rlim_max = opt.rss_hard_limit;
            (void)::setrlimit(RLIMIT_AS, &lim);
        }
        const auto send = [&](const std::string& line) {
            (void)util::write_line(ctx.pipe_fd, line);
        };
        const auto heartbeat = [&] {
            send("hb " + std::to_string(telemetry::current_rss_bytes()));
        };
        heartbeat();
        const std::size_t total = campaign.chunk_count();
        if (total == 0) return 0;
        std::size_t batch = opt.lease_batch;
        // Striped start point: slots begin their claim walk at different
        // offsets so they do not all fight over chunk 0's lease at startup.
        std::size_t cursor =
            static_cast<std::size_t>(ctx.slot) * total / std::max(1u, opt.procs);
        for (;;) {
            std::vector<ChunkLease> claimed;
            bool any_pending = false;
            for (std::size_t step = 0; step < total && claimed.size() < batch; ++step) {
                const std::size_t c = (cursor + step) % total;
                if (chunk_recorded(ctx.dir, *ctx.recorded_at_start, c)) continue;
                any_pending = true;
                std::uint64_t quarantined = 0;
                const auto prior =
                    clear_stale_lease(*ctx.io, campaign, opt, ctx.dir, c, &quarantined);
                if (quarantined > 0) {
                    send("pquar " + std::to_string(c));
                    continue;
                }
                if (!prior) continue;
                ChunkLease lease;
                lease.chunk_index = c;
                lease.pid = util::current_pid();
                lease.token = ctx.token;
                // Inherit the scan-start count unchanged: merely HOLDING a
                // lease when the process dies must not taint the chunk — only
                // dying mid-scan does (the bump below, right before scanning).
                lease.attempts = *prior;
                const util::IoResult claimed_res = claim_lease(*ctx.io, ctx.dir, lease);
                if (!claimed_res) {
                    // EEXIST is the normal lost-claim race; anything else is
                    // the disk failing under us — report the real cause.
                    if (claimed_res.err != EEXIST) {
                        send("ioerr claim chunk " + std::to_string(c) + ": " +
                             claimed_res.message());
                    }
                    continue;
                }
                if (opt.worker_event_hook) opt.worker_event_hook(ctx.slot, "claim", c);
                send("claim " + std::to_string(c));
                claimed.push_back(lease);
            }
            if (claimed.empty()) {
                if (!any_pending) return 0;  // every chunk has a record
                // Live peers hold all remaining work: wait for them (or for
                // their leases to go stale) with the heartbeat flowing.
                heartbeat();
                sleep_for(opt.heartbeat_interval);
                cursor = (cursor + 1) % total;
                continue;
            }
            for (ChunkLease lease : claimed) {
                const std::size_t c = lease.chunk_index;
                heartbeat();
                // Mark the scan as STARTED: a death from here until publish
                // charges one attempt against the chunk. We own the lease, so
                // an atomic rewrite (same token, attempts+1) is race-free.
                ++lease.attempts;
                const util::IoResult bumped = util::write_file_atomic(
                    *ctx.io, lease_path(ctx.dir, c), serialize_lease(lease));
                if (!bumped) {
                    // Non-fatal (the lease is advisory bookkeeping), but the
                    // supervisor should know the disk dropped a write.
                    send("ioerr lease bump chunk " + std::to_string(c) + ": " +
                         bumped.message());
                }
                // Thread-level restart-then-quarantine happens inside
                // scan_chunk, so the record matches what run() journals.
                ScannedChunk scanned = campaign.scan_chunk(c);
                if (scanned.restarts > 0) send("restart " + std::to_string(scanned.restarts));
                const ChunkRecord record = to_chunk_record(c, std::move(scanned));
                if (opt.worker_event_hook) opt.worker_event_hook(ctx.slot, "scanned", c);
                const util::IoResult published = write_map_chunk(*ctx.io, ctx.dir, record);
                if (!published) {
                    // Publish is the one write that matters: without the
                    // record the scan never happened. Attribute the cause,
                    // then die with the publish-failed exit code so the
                    // supervisor can restart (or finish inline).
                    send("ioerr publish chunk " + std::to_string(c) + ": " +
                         published.message());
                    return 3;
                }
                if (opt.worker_event_hook) {
                    opt.worker_event_hook(ctx.slot, "published", c);
                }
                (void)release_lease(ctx.dir, c, ctx.token);
                send("done " + std::to_string(c));
                if (opt.rss_soft_budget > 0 && batch > 1 &&
                    telemetry::current_rss_bytes() > opt.rss_soft_budget) {
                    // Soft budget tripped: degrade to single-chunk batches
                    // instead of growing until the hard limit kills us.
                    batch = 1;
                    send("batch 1");
                }
            }
            cursor = (claimed.back().chunk_index + 1) % total;
        }
    } catch (...) {
        return 2;
    }
}

/// Supervisor-side state of one worker slot across its incarnations.
struct WorkerSlot {
    long pid = -1;
    std::optional<util::Pipe> pipe;        // read end only (write end closed)
    std::optional<util::LineReader> reader;
    std::chrono::steady_clock::time_point last_hb{};
    int incarnations = 0;
    std::uint64_t token = 0;
    util::Rng backoff_rng;
    bool alive = false;
    bool exhausted = false;   // restart budget spent
    bool hang_killed = false; // current incarnation was SIGKILLed for silence
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
    // Only this pass's workers publish while it runs, so one listing covers
    // every file they did not write themselves.
    std::vector<char> recorded_at_start(campaign.chunk_count(), 0);
    for (const std::size_t c : list_map_chunks(dir)) {
        if (c < recorded_at_start.size()) recorded_at_start[c] = 1;
    }

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

    telemetry::MetricsRegistry* metrics = campaign.metrics();
    telemetry::TraceRecorder* trace = campaign.trace();

    std::vector<WorkerSlot> slots(options.procs);
    std::uint64_t next_token = 1;

    const auto spawn = [&](unsigned index) {
        WorkerSlot& slot = slots[index];
        util::Pipe pipe;  // throws std::runtime_error on failure
        const std::uint64_t token = next_token++;
        const ::pid_t child = ::fork();
        if (child < 0) {
            throw std::runtime_error(std::string("procpool: fork failed: ") +
                                     std::strerror(errno));
        }
        if (child == 0) {
            // Worker process. Leave only via _exit: no destructors, no exit
            // handlers, no stdio flushing — the parent owns all of those.
            pipe.close_read();
            WorkerContext ctx;
            ctx.campaign = &campaign;
            ctx.options = &options;
            ctx.io = &io;
            ctx.dir = dir;
            ctx.recorded_at_start = &recorded_at_start;
            ctx.slot = index;
            ctx.token = token;
            ctx.pipe_fd = pipe.write_fd();
            ::_exit(worker_main(ctx));
        }
        pipe.close_write();
        (void)util::set_nonblocking(pipe.read_fd());
        slot.pid = child;
        slot.pipe.emplace(std::move(pipe));
        slot.reader.emplace(slot.pipe->read_fd());
        slot.last_hb = std::chrono::steady_clock::now();
        slot.token = token;
        ++slot.incarnations;
        slot.alive = true;
        slot.hang_killed = false;
        if (trace != nullptr) slot.spawn_ns = trace->wall_now_ns();
    };

    const auto handle_line = [&](WorkerSlot& slot, const std::string& line) {
        // Any traffic proves liveness, not just heartbeats.
        slot.last_hb = std::chrono::steady_clock::now();
        const auto space = line.find(' ');
        const std::string verb = line.substr(0, space);
        const std::string arg =
            space == std::string::npos ? std::string{} : line.substr(space + 1);
        std::uint64_t value = 0;
        if (!arg.empty()) value = std::strtoull(arg.c_str(), nullptr, 10);
        if (verb == "hb") {
            slot.peak_rss = std::max(slot.peak_rss, value);
        } else if (verb == "restart") {
            report.worker_thread_restarts += value;
        } else if (verb == "pquar") {
            ++report.chunks_quarantined;
        } else if (verb == "ioerr") {
            // A worker hit a real storage failure (not a lost race). Count
            // and keep the attributed cause for the report; the worker's own
            // exit code decides whether this was fatal to the incarnation.
            ++report.io_errors;
            report.last_io_error = arg;
            if (trace != nullptr && slot.lane >= 0) {
                trace->instant(telemetry::TraceClock::wall, slot.lane,
                               "ioerr " + arg, trace->wall_now_ns());
            }
        } else if (verb == "done" || verb == "claim" || verb == "batch") {
            if (trace != nullptr && slot.lane >= 0) {
                trace->instant(telemetry::TraceClock::wall, slot.lane, verb + " " + arg,
                               trace->wall_now_ns());
            }
        }
    };

    const auto drain_slot = [&](WorkerSlot& slot) {
        if (!slot.reader) return;
        for (;;) {
            std::vector<std::string> lines;
            const bool open = slot.reader->drain(lines);
            for (const std::string& line : lines) handle_line(slot, line);
            if (!open || lines.empty()) break;
        }
    };

    const auto handle_death = [&](unsigned index, WorkerSlot& slot, int status) {
        drain_slot(slot);  // the pipe buffer outlives the process
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
        slot.pipe.reset();
        slot.alive = false;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (clean) return;  // worker found no work left — not a death
        if (slot.incarnations >= options.proc_restart.max_attempts) {
            slot.exhausted = true;
            return;
        }
        // Restart with backoff on the slot's own jitter stream. Leases the
        // dead incarnation still held are NOT swept here: every live worker's
        // claim walk (and the inline sweep at the end) detects the dead pid
        // and reclaims them, and the fencing token guarantees nobody can
        // sweep the replacement's fresh leases by mistake.
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

    const int poll_ms =
        std::max(1, static_cast<int>(options.heartbeat_interval.count_millis()));
    for (;;) {
        std::vector<struct pollfd> fds;
        std::vector<unsigned> fd_slot;
        for (unsigned i = 0; i < options.procs; ++i) {
            if (!slots[i].alive) continue;
            fds.push_back({slots[i].pipe->read_fd(), POLLIN, 0});
            fd_slot.push_back(i);
        }
        if (fds.empty()) break;
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_ms);
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
            int status = 0;
            const ::pid_t reaped = ::waitpid(static_cast<::pid_t>(slot.pid), &status,
                                             WNOHANG);
            if (reaped == slot.pid) {
                handle_death(i, slot, status);
                continue;
            }
            const auto silence =
                std::chrono::duration_cast<std::chrono::nanoseconds>(now - slot.last_hb)
                    .count();
            if (!slot.hang_killed && silence > options.hang_deadline.count_nanos()) {
                // Hung (wedged syscall, livelock, stopped): SIGKILL now; the
                // death is reaped on the next loop and restarts as usual.
                (void)::kill(static_cast<::pid_t>(slot.pid), SIGKILL);
                slot.hang_killed = true;
                ++report.hang_kills;
                if (trace != nullptr && slot.lane >= 0) {
                    trace->instant(telemetry::TraceClock::wall, slot.lane, "hang kill",
                                   trace->wall_now_ns());
                }
            }
        }
    }

    // Last-resort completion on the supervisor thread: every slot has exited
    // — cleanly (no claimable work left) or with its restart budget spent.
    // Chunks still missing a record are finished inline, with the same
    // attempts bookkeeping the workers apply.
    for (std::size_t c = 0; c < report.chunks_total; ++c) {
        if (chunk_recorded(dir, recorded_at_start, c)) continue;
        std::uint64_t quarantined = 0;
        (void)clear_stale_lease(io, campaign, options, dir, c, &quarantined);
        if (quarantined > 0) {
            report.chunks_quarantined += quarantined;
            continue;
        }
        // A lease surviving to here belongs to a dead campaign of ours (all
        // children are reaped) or a foreign pid-reuse victim; either way the
        // supervisor owns the directory now, so force it off.
        if (const auto lease = read_lease(dir, c)) {
            (void)release_lease(dir, c, lease->token);
            if (lease->attempts >= options.chunk_attempts) {
                (void)write_map_chunk(io, dir, proc_quarantine_record(campaign, c));
                ++report.chunks_quarantined;
                continue;
            }
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
        ++report.chunks_scanned_inline;
    }

    for (std::size_t c = 0; c < report.chunks_total; ++c) {
        if (chunk_recorded(dir, recorded_at_start, c)) ++report.chunks_recorded;
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
