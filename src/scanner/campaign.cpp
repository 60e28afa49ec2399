#include "scanner/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "scanner/journal.hpp"
#include "scanner/shard.hpp"
#include "telemetry/export.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"
#include "util/distributions.hpp"
#include "util/format.hpp"
#include "util/proc.hpp"

namespace spinscope::scanner {

using netsim::Datagram;
using netsim::LinkConfig;
using netsim::Path;
using netsim::Simulator;
using quic::Connection;
using quic::ConnectionConfig;
using util::Duration;
using util::Rng;
using util::TimePoint;

namespace {

/// Restart schedule of a chunk whose scan crashed outside the per-domain
/// isolation: two executions in total, then quarantine. Backoffs are real
/// wall-clock sleeps on the scanning thread, kept small.
constexpr faults::RetryPolicy kChunkRestart{2, Duration::millis(10), 2.0,
                                            Duration::millis(100), true};

}  // namespace

void ScanOptions::validate() {
    const auto checked_probability = [](double p, const char* name) {
        if (std::isnan(p)) {
            throw std::invalid_argument(std::string{"scanner: ScanOptions."} + name +
                                        " is NaN");
        }
        return std::clamp(p, 0.0, 1.0);
    };
    loss_rate = checked_probability(loss_rate, "loss_rate");
    reorder_rate = checked_probability(reorder_rate, "reorder_rate");
    if (max_redirects < 0) {
        throw std::invalid_argument("scanner: ScanOptions.max_redirects is negative");
    }
    if (attempt_deadline.is_negative() || attempt_deadline.is_zero()) {
        throw std::invalid_argument("scanner: ScanOptions.attempt_deadline must be > 0");
    }
    if (domain_deadline.is_negative() || domain_deadline.is_zero()) {
        throw std::invalid_argument("scanner: ScanOptions.domain_deadline must be > 0");
    }
    if (max_attempt_records == 0) {
        throw std::invalid_argument("scanner: ScanOptions.max_attempt_records must be >= 1");
    }
    if (chunk_domains == 0) {
        throw std::invalid_argument("scanner: ScanOptions.chunk_domains must be >= 1");
    }
    retry.validate();
    journal_retry.validate();
    if (fault_plan) fault_plan->validate();
    if (observer) observer->validate();
}

bool DomainScan::quic_ok() const noexcept {
    return std::any_of(connections.begin(), connections.end(), [](const qlog::Trace& t) {
        return t.outcome == qlog::ConnectionOutcome::ok;
    });
}

std::string CampaignStats::render() const {
    util::TextTable table;
    table.add_row({"campaign", "value"});
    table.add_row({"domains scanned", util::group_digits(domains_scanned)});
    table.add_row({"domains resolved", util::group_digits(domains_resolved)});
    table.add_row({"domains QUIC ok", util::group_digits(domains_quic_ok)});
    table.add_row({"QUIC-ok rate (resolved)", util::percent(quic_ok_rate())});
    table.add_row({"connections", util::group_digits(connections)});
    table.add_row({"redirects followed", util::group_digits(redirects_followed)});
    table.add_row({"retries", util::group_digits(retries)});
    table.add_row({"domains recovered by retry", util::group_digits(domains_recovered_by_retry)});
    table.add_row({"domains errored", util::group_digits(domains_errored)});
    // Recovery rows only when the supervisor actually intervened — the
    // healthy sweep's table stays as it always was.
    if (chunks_quarantined > 0 || domains_quarantined > 0) {
        table.add_row({"chunks quarantined", util::group_digits(chunks_quarantined)});
        table.add_row({"domains quarantined", util::group_digits(domains_quarantined)});
    }
    if (worker_restarts > 0) {
        table.add_row({"worker restarts", util::group_digits(worker_restarts)});
    }
    if (proc_restarts > 0) {
        table.add_row({"process restarts", util::group_digits(proc_restarts)});
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        table.add_row({std::string{"outcome "} +
                           qlog::to_cstring(static_cast<qlog::ConnectionOutcome>(i)),
                       util::group_digits(outcomes[i])});
    }
    // Server-fault exposure rows only when some fault fired — the healthy
    // sweep's table stays as it always was.
    for (std::size_t i = 1; i < server_faults.size(); ++i) {
        if (server_faults[i] == 0) continue;
        table.add_row({std::string{"server fault "} +
                           faults::to_cstring(static_cast<faults::ServerFaultMode>(i)),
                       util::group_digits(server_faults[i])});
    }
    table.add_row({"wall seconds", util::fixed(wall_seconds, 2)});
    table.add_row({"domains/sec", util::fixed(domains_per_sec(), 1)});
    return table.render(true);
}

Campaign::AttemptOutcome Campaign::run_attempt(const web::Domain& domain,
                                               const std::string& host, int redirect_hop,
                                               int retry, bool serve_redirect,
                                               Duration deadline,
                                               telemetry::MetricsRegistry* metrics,
                                               bytes::BufferPool* pool,
                                               core::ConstrainedMonitor* observer) const {
    // The watchdog capped this attempt below the normal per-attempt
    // deadline: a cut-off is then a kill, not an ordinary timeout.
    const bool watchdog_capped = deadline < options_.attempt_deadline;
    const web::PopulationModel& pop = *model_;
    // Redirect follow-ups are profiled as their own phase: their cost is
    // extra connections, which the first-attempt phase must not absorb.
    std::optional<telemetry::ScopedTimer> attempt_timer;
    if (metrics != nullptr) {
        attempt_timer.emplace(*metrics, redirect_hop == 0 ? "scanner.phase.attempt_ms"
                                                          : "scanner.phase.redirect_ms");
    }
    AttemptOutcome out;
    out.trace.host = host;
    out.trace.ip = pop.host_address(domain, options_.ipv6);

    Simulator sim;
    // Attempt randomness is a domain-keyed sub-stream (the sharded
    // determinism contract, DESIGN.md §9): never a function of scan order,
    // shard assignment or thread count. (hop | retry << 16) keeps retry 0
    // byte-identical to the pre-retry seeding while giving every retry an
    // independent stream.
    const std::uint64_t attempt_key = static_cast<std::uint64_t>(redirect_hop) |
                                      (static_cast<std::uint64_t>(retry) << 16);
    const std::uint64_t attempt_seed =
        util::derive_stream_seed(options_.seed, domain.id) ^
        (static_cast<std::uint64_t>(options_.week) << 32) ^
        (options_.ipv6 ? 0x10000ULL : 0ULL) ^ attempt_key;
    Rng rng{attempt_seed};
    // Fault decisions run on their own streams so attaching a fault plan (or
    // drawing a server-fault lottery that comes up healthy) never perturbs
    // the attempt's own randomness.
    Rng server_fault_rng{~attempt_seed};

    const auto one_way = Duration::from_ms(domain.rtt_ms() / 2.0);
    LinkConfig link;
    link.base_delay = one_way;
    link.jitter_scale = one_way.scaled(0.03);
    link.jitter_sigma = 0.5;
    link.loss_probability = options_.loss_rate;
    link.reorder_probability = options_.reorder_rate;
    link.reorder_extra_min = Duration::micros(60);
    link.reorder_extra_max = Duration::from_ms(1.5);
    Path path{sim, link, link, rng};
    // The constrained observer sits on the server→client direction — the
    // one the paper's passive measurement watches (the server reflects the
    // client's spin; its packets carry the measurable wave) and the one
    // whose DCID is the client-chosen connection ID.
    if (observer != nullptr) path.return_link().add_tap(observer->tap());
    if (options_.fault_plan) {
        path.forward_link().attach_faults(*options_.fault_plan, Rng{attempt_seed ^ 0xFA017'F0ULL});
        path.return_link().attach_faults(*options_.fault_plan, Rng{attempt_seed ^ 0xFA017'F1ULL});
    }

    ConnectionConfig client_cfg;
    client_cfg.role = quic::Role::client;
    client_cfg.spin = options_.client_spin;
    client_cfg.handshake_timeout = Duration::seconds(5);
    Connection client{sim, client_cfg, rng.fork(100),
                      [&path](Datagram dg) { path.forward_link().send(std::move(dg)); },
                      &out.trace, pool};

    // Shared attempt epilogue: trace finalization (its own profiled phase),
    // the deadline-vs-drained outcome decision, and per-attempt telemetry.
    const auto finish_attempt = [&](bool drained, bool got_response) {
        {
            std::optional<telemetry::ScopedTimer> finalize_timer;
            if (metrics != nullptr) {
                finalize_timer.emplace(*metrics, "scanner.phase.finalize_ms");
            }
            client.finalize_trace();
            if (got_response) {
                out.trace.outcome = qlog::ConnectionOutcome::ok;
            } else if (!drained && !client.failed() && !client.closed()) {
                // The deadline cut the simulation short with events still
                // pending: the attempt neither completed nor failed on its
                // own. Record that distinctly instead of pretending the
                // queue drained (the old behaviour left `aborted`, which
                // conflated deadline hits with protocol-level aborts) — and
                // distinguish the watchdog's kill from the ordinary
                // per-attempt timeout.
                out.trace.outcome = watchdog_capped
                                        ? qlog::ConnectionOutcome::watchdog_cancelled
                                        : qlog::ConnectionOutcome::attempt_timeout;
            }
        }
        out.sim_elapsed = sim.now() - TimePoint::origin();
        if (metrics != nullptr) {
            sim.publish_metrics(*metrics);
            path.forward_link().publish_metrics(*metrics, "netsim.link.forward");
            path.return_link().publish_metrics(*metrics, "netsim.link.return");
            client.publish_metrics(*metrics);
            telemetry::record_sim_time(*metrics, "scanner.attempt_sim_ms",
                                       sim.now() - TimePoint::origin());
        }
    };

    if (!domain.quic) {
        // Nothing QUIC-capable listens: Initials vanish, the client retries
        // via PTO and gives up at the handshake timeout (paper §3.3: "check
        // whether the endpoints answer to QUIC packets").
        client.connect();
        const bool drained = sim.run_until(TimePoint::origin() + deadline);
        finish_attempt(drained, /*got_response=*/false);
        return out;
    }

    const auto& stack = pop.stack_of(domain);
    const bool spins = pop.host_spins(domain, options_.week, options_.ipv6);

    // Serving-side fault lottery: the mode is a host property, whether it
    // fires is a per-attempt draw (transient faults are what retries can
    // beat). A healthy profile draws nothing, keeping fault-free campaigns
    // byte-identical.
    const faults::ServerFaultProfile fault_profile =
        pop.server_fault_profile(domain, options_.ipv6);
    faults::ServerFaultMode active_fault = faults::ServerFaultMode::none;
    if (!fault_profile.healthy() &&
        server_fault_rng.chance(fault_profile.per_attempt_probability)) {
        active_fault = fault_profile.mode;
    }
    out.server_fault = active_fault;

    ConnectionConfig server_cfg;
    server_cfg.role = quic::Role::server;
    server_cfg.spin = spins ? stack.spin_enabled
                            : quic::SpinConfig{pop.host_disabled_policy(domain, options_.ipv6),
                                               0, quic::SpinPolicy::always_zero};
    server_cfg.params.max_ack_delay = stack.max_ack_delay;
    server_cfg.fault_stall_handshake =
        active_fault == faults::ServerFaultMode::handshake_stall;
    server_cfg.fault_never_ack = active_fault == faults::ServerFaultMode::never_ack;
    Connection server{sim, server_cfg, rng.fork(200),
                      [&path](Datagram dg) { path.return_link().send(std::move(dg)); },
                      nullptr, pool};

    path.forward_link().set_receiver(
        [&server](bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver(
        [&client](bytes::ConstByteSpan dg) { client.on_datagram(dg); });

    // --- server application (HTTP/3-mini) -----------------------------------
    server.on_handshake_complete = [&server] {
        server.send_stream(kServerControlStream, build_settings(true), true);
    };
    server.on_stream_complete = [&, serve_redirect](std::uint64_t stream_id,
                                                    std::vector<std::uint8_t> data) {
        if (stream_id != kRequestStream) return;
        const auto requested = parse_request(data);
        const std::string redirect_target =
            serve_redirect ? pop.domain_name(domain) : std::string{};
        const Duration header_delay = stack.header_delay.sample(rng);
        (void)requested;

        sim.schedule_after(header_delay, [&, redirect_target, active_fault] {
            if (server.closed() || server.failed()) return;
            if (active_fault == faults::ServerFaultMode::garbage_payload) {
                // Instead of a response, emit an undecodable 1-RTT payload
                // (unknown frame type + noise). The client must classify
                // this as protocol_error — never crash or hang.
                std::vector<std::uint8_t> junk(48);
                junk[0] = 0x21;  // unknown frame type
                for (std::size_t i = 1; i < junk.size(); ++i) {
                    junk[i] = static_cast<std::uint8_t>(server_fault_rng.next());
                }
                server.send_raw_payload(std::move(junk));
                return;
            }
            if (active_fault == faults::ServerFaultMode::mid_transfer_abort) {
                // Headers arrive, then the server tears the connection down
                // where the body should begin (worker crash, LB drain).
                server.send_stream(kRequestStream,
                                   build_response_headers(200, "", stack.name), false);
                sim.schedule_after(stack.body_delay.sample(server_fault_rng), [&] {
                    if (server.closed() || server.failed()) return;
                    server.close(0x10c, "backend worker lost");
                });
                return;
            }
            if (!redirect_target.empty()) {
                server.send_stream(
                    kRequestStream,
                    build_response_headers(301, redirect_target, stack.name), true);
                return;
            }
            server.send_stream(kRequestStream,
                               build_response_headers(200, "", stack.name), false);
            const double sampled =
                util::sample_lognormal(rng, stack.body_log_mu, stack.body_log_sigma);
            const auto body_size = static_cast<std::size_t>(
                std::clamp(sampled, 400.0, 300'000.0));
            // Dynamic pages are generated and flushed in pieces (template
            // rendering, database queries); each app-limited pause can land
            // between two spin edges and inflate one RTT sample — the §5.2
            // end-host-delay effect.
            std::size_t chunk_count = 1;
            if (rng.chance(stack.chunked_body_rate)) {
                chunk_count = 2 + rng.uniform_u64(3);  // 2..4 chunks
            }
            Duration at = Duration::zero();
            std::size_t offset = 0;
            for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) {
                at += stack.body_delay.sample(rng);
                const std::size_t end =
                    chunk + 1 == chunk_count ? body_size
                                             : body_size * (chunk + 1) / chunk_count;
                const std::size_t part = end - offset;
                const bool fin = chunk + 1 == chunk_count;
                sim.schedule_after(at, [&, part, fin] {
                    if (server.closed() || server.failed()) return;
                    server.send_stream(kRequestStream, build_body(part), fin);
                });
                offset = end;
            }
        });
    };

    // --- client application --------------------------------------------------
    bool got_response = false;
    client.on_handshake_complete = [&client, &host] {
        client.send_stream(kClientControlStream, build_settings(false), true);
        client.send_stream(kRequestStream, build_request(host), true);
    };
    client.on_stream_complete = [&](std::uint64_t stream_id, std::vector<std::uint8_t> data) {
        if (stream_id != kRequestStream) return;
        out.response = parse_response(data);
        got_response = true;
        client.close(0, "done");
    };

    client.connect();
    const bool drained = sim.run_until(TimePoint::origin() + deadline);
    finish_attempt(drained, got_response);
    return out;
}

DomainScan Campaign::scan_domain(const web::Domain& domain) const {
    // One-off scans get a transient pool: the first attempt seeds it and
    // later attempts of the same domain reuse the recycled datagram storage.
    bytes::BufferPool pool;
    DomainScan scan = scan_domain_into(domain, metrics_, &pool);
    if (metrics_ != nullptr) pool.publish_metrics(*metrics_);
    return scan;
}

std::size_t Campaign::chunk_count() const {
    return ShardPlan{model_->domain_count(), options_.chunk_domains}.chunk_count();
}

std::vector<DomainScan> Campaign::quarantine_scans(std::size_t chunk_index,
                                                   const std::string& error) const {
    // Domain ids ARE global indices (PopulationModel's purity contract), so
    // the placeholders follow from the geometry alone — no materialization.
    const ShardPlan plan{model_->domain_count(), options_.chunk_domains};
    if (chunk_index >= plan.chunk_count()) {
        throw std::out_of_range("scanner: quarantine_scans index past chunk_count()");
    }
    std::vector<DomainScan> scans(plan.chunk_end(chunk_index) - plan.chunk_begin(chunk_index));
    for (std::size_t j = 0; j < scans.size(); ++j) {
        scans[j].domain_id = static_cast<std::uint32_t>(plan.chunk_begin(chunk_index) + j);
        scans[j].error = "chunk quarantined: " + error;
    }
    return scans;
}

Campaign::ChunkScan Campaign::scan_chunk_into(std::size_t chunk_index) const {
    const ShardPlan plan{model_->domain_count(), options_.chunk_domains};
    if (chunk_index >= plan.chunk_count()) {
        throw std::out_of_range("scanner: scan_chunk index past chunk_count()");
    }
    const auto scan_once = [&] {
        if (options_.chunk_fault_hook) options_.chunk_fault_hook(chunk_index);
        // The worker regenerates exactly its own chunk's domains and drops
        // them with this frame: chunk scans touch O(chunk_domains) population
        // memory no matter how large the universe is.
        const web::DomainBlock block = model_->materialize(
            static_cast<std::uint32_t>(plan.chunk_begin(chunk_index)),
            static_cast<std::uint32_t>(plan.chunk_end(chunk_index)));
        ChunkScan out;
        if (metrics_ != nullptr) out.metrics = std::make_unique<telemetry::MetricsRegistry>();
        // Chunk-private datagram pool, same ownership story as the chunk
        // registry: touched by exactly one worker, so no locking. Datagram
        // storage recycles across every attempt of the chunk's domains; all
        // buffers are dead by the time the chunk completes (each attempt's
        // simulator drains before the next starts), so the pool can die
        // here. Pool counters depend on chunk geometry, which is why
        // deterministic_csv excludes the bytes.pool prefix.
        bytes::BufferPool pool;
        std::vector<DomainScan>& scans = out.chunk.scans;
        scans.reserve(block.size());
        for (const web::Domain& domain : block.domains) {
            // Per-domain fault isolation: one pathological target must cost
            // one scan record, never the sweep. Telemetry may be partially
            // written for the failed domain; counters stay monotonic either
            // way.
            DomainScan scan;
            try {
                scan = scan_domain_into(domain, out.metrics.get(), &pool);
            } catch (const std::exception& e) {
                scan = DomainScan{};
                scan.domain_id = domain.id;
                scan.error = e.what();
            }
            scans.push_back(std::move(scan));
        }
        if (out.metrics != nullptr) pool.publish_metrics(*out.metrics);
        return out;
    };

    // A crash outside the per-domain isolation is often environmental
    // (resource exhaustion, an injected fault), so back off and re-execute
    // the whole chunk from scratch; a chunk that keeps crashing costs one
    // quarantined record, never the sweep. Restart jitter draws from the
    // chunk's own stream, so it never perturbs any domain's scan stream.
    util::Rng restart_rng = faults::RetryPolicy::restart_stream(options_.seed, chunk_index);
    std::string error;
    for (int attempt = 1;; ++attempt) {
        try {
            ChunkScan out = scan_once();
            out.chunk.restarts = attempt - 1;
            return out;
        } catch (const std::exception& e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
        if (attempt >= kChunkRestart.max_attempts) break;
        const Duration delay = kChunkRestart.backoff_delay(attempt, restart_rng);
        std::this_thread::sleep_for(std::chrono::nanoseconds{delay.count_nanos()});
    }
    ChunkScan out;
    out.chunk.scans = quarantine_scans(chunk_index, error);
    out.chunk.restarts = kChunkRestart.max_attempts - 1;
    out.chunk.quarantined = true;
    out.chunk.quarantine_error = std::move(error);
    return out;
}

ScannedChunk Campaign::scan_chunk(std::size_t chunk_index) const {
    ChunkScan scanned = scan_chunk_into(chunk_index);
    if (scanned.metrics != nullptr) {
        scanned.chunk.telemetry_snapshot = telemetry::snapshot(*scanned.metrics);
    }
    return std::move(scanned.chunk);
}

DomainScan Campaign::scan_domain_into(const web::Domain& domain,
                                      telemetry::MetricsRegistry* metrics,
                                      bytes::BufferPool* pool) const {
    DomainScan scan;
    scan.domain_id = domain.id;
    {
        // DNS is modelled as a population lookup, but it is still a campaign
        // phase: profiling it keeps the phase breakdown exhaustive.
        std::optional<telemetry::ScopedTimer> resolve_timer;
        if (metrics != nullptr) resolve_timer.emplace(*metrics, "scanner.phase.resolve_ms");
        scan.resolved = domain.resolves && (!options_.ipv6 || domain.has_ipv6);
    }
    if (!scan.resolved) return scan;

    // Per-DOMAIN constrained observer (DESIGN.md §14): its counters are a
    // pure function of this domain's packet stream, never of shard/chunk
    // geometry, so the observer.* telemetry below stays byte-identical for
    // every thread count and --procs setting.
    std::optional<core::ConstrainedMonitor> observer;
    if (options_.observer) observer.emplace(*options_.observer);

    std::string host = "www." + model_->domain_name(domain);
    bool serve_redirect = domain.redirects;
    // Backoff jitter runs on its own per-domain stream: with retries off it
    // is never drawn from, and with them on it cannot perturb attempt seeds.
    Rng backoff_rng = faults::RetryPolicy::backoff_stream(options_.seed, domain.id);
    // Watchdog budget: total simulated time this domain may consume across
    // every hop, retry and backoff. Purely per-domain bookkeeping — never a
    // function of shard assignment — so the determinism contract holds.
    Duration budget = options_.domain_deadline;
    bool budget_exhausted = false;
    for (int hop = 0; hop <= options_.max_redirects && !budget_exhausted; ++hop) {
        std::optional<AttemptOutcome> outcome;
        Duration backoff = Duration::zero();
        bool first_try_failed = false;
        for (int retry = 0;; ++retry) {
            const Duration deadline = std::min(options_.attempt_deadline, budget);
            outcome = run_attempt(domain, host, hop, retry, serve_redirect, deadline,
                                  metrics, pool, observer ? &*observer : nullptr);
            scan.sim_time += outcome->sim_elapsed;
            budget -= outcome->sim_elapsed;
            if (budget <= Duration::zero()) budget_exhausted = true;
            const bool ok = outcome->trace.outcome == qlog::ConnectionOutcome::ok;
            if (outcome->trace.outcome == qlog::ConnectionOutcome::watchdog_cancelled) {
                budget_exhausted = true;
                if (metrics != nullptr) {
                    metrics->counter("scanner.watchdog_cancelled").add(1);
                }
            }
            // Bounded attempt log: past the cap, the attempt still ran (and
            // is counted below) but its record and trace are dropped.
            if (scan.attempts.size() < options_.max_attempt_records) {
                scan.attempts.push_back(DomainScan::AttemptRecord{
                    hop, retry, outcome->trace.outcome, backoff, outcome->server_fault});
                scan.connections.push_back(std::move(outcome->trace));
            } else {
                ++scan.attempts_truncated;
            }
            if (retry > 0) ++scan.retries;
            if (ok) {
                if (first_try_failed) scan.recovered_by_retry = true;
                break;
            }
            first_try_failed = true;
            if (budget_exhausted || !options_.retry.should_retry(retry, false)) break;
            // Attempts run on per-attempt simulators, so the backoff is
            // campaign bookkeeping in simulated time, not a sim event — but
            // it still burns watchdog budget.
            backoff = options_.retry.backoff_delay(retry + 1, backoff_rng);
            scan.sim_time += backoff;
            budget -= backoff;
            if (budget <= Duration::zero()) {
                budget_exhausted = true;
                break;
            }
        }
        const bool redirected =
            outcome->response.has_value() && outcome->response->status == 301 &&
            !outcome->response->location.empty();
        scan.final_response = outcome->response;
        if (!redirected) break;
        ++scan.redirects_followed;
        if (metrics != nullptr) metrics->counter("scanner.redirects_followed").add(1);
        host = outcome->response->location;
        serve_redirect = false;  // the canonical target serves the page
    }
    if (observer && metrics != nullptr) {
        const core::ConstrainedTableCounters& t = observer->counters();
        metrics->counter("observer.offered").add(t.offered);
        metrics->counter("observer.non_flow").add(t.non_flow);
        metrics->counter("observer.sampled_out").add(t.sampled_out);
        metrics->counter("observer.tracked").add(t.tracked);
        metrics->counter("observer.untracked").add(t.untracked);
        metrics->counter("observer.collisions").add(t.collisions);
        metrics->counter("observer.evictions").add(t.evictions);
        metrics->counter("observer.flows").add(t.active_slots);
        std::uint64_t samples = 0;
        std::uint64_t rejected = 0;
        std::uint64_t spin_candidates = 0;
        for (const auto& [key, stats] : observer->flows()) {
            samples += stats.samples;
            rejected += stats.rejected_samples;
            if (stats.spin_candidate()) ++spin_candidates;
        }
        metrics->counter("observer.samples").add(samples);
        metrics->counter("observer.rejected_samples").add(rejected);
        metrics->counter("observer.spin_candidate_flows").add(spin_candidates);
    }
    return scan;
}

CampaignStats Campaign::run(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink) const {
    return run_impl(sink, /*reuse_journal=*/false);
}

CampaignStats Campaign::reduce(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink) const {
    if (options_.journal_dir.empty()) {
        throw std::invalid_argument("scanner: reduce() requires ScanOptions.journal_dir");
    }
    return run_impl(sink, /*reuse_journal=*/true);
}

CampaignStats Campaign::run_impl(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink,
    bool reuse_journal) const {
    CampaignStats stats;
    const auto wall_start = std::chrono::steady_clock::now();
    const auto wall_elapsed = [&wall_start] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    };

    // The population is never materialized here: the merge thread works from
    // the model's closed-form geometry and regenerates single domains on
    // demand, so run_impl's footprint is O(merge window), not O(universe).
    const std::size_t universe = model_->domain_count();
    const ShardPlan plan{universe, options_.chunk_domains};

    // Whole-sweep host-resource observation: wall time, allocation traffic
    // (when the binary links the interposer) and peak RSS, published as
    // obs.resource.campaign.* gauges — host facts, excluded from the
    // deterministic telemetry view.
    std::optional<telemetry::ResourceProbe> resource_probe;
    if (metrics_ != nullptr) resource_probe.emplace("campaign");

    // ---- flight recorder ----------------------------------------------------
    // Simulated-time events are recorded ONLY here on the merge thread, in
    // ascending chunk order, positioned at cumulative simulated-nanosecond
    // offsets — a pure function of the scan results, so the sim trace is
    // byte-identical for every thread count and across kill/reduce. Worker
    // scheduling, merge and journal latencies go to the wall clock (the
    // recorder's sidecar file).
    telemetry::TraceRecorder* const trace = trace_;
    using telemetry::TraceArg;
    using telemetry::TraceClock;
    const int sim_lane =
        trace != nullptr ? trace->lane(TraceClock::sim, "merge (chunk timeline)") : 0;
    const int wall_merge_lane =
        trace != nullptr ? trace->lane(TraceClock::wall, "merge") : 0;
    std::int64_t sim_cursor_ns = 0;
    std::uint64_t traced_domains = 0;
    std::uint64_t traced_quic_ok = 0;

    // One chunk's sim-timeline events: a span covering the chunk's total
    // simulated time, instants for retries/watchdog kills/quarantine at the
    // owning domain's offset, and cumulative counter tracks. The `replayed`
    // arg is ALWAYS present (0 or 1) so a reduce trace equals the
    // uninterrupted one after flipping that single flag.
    const auto trace_chunk = [&](std::size_t chunk_index,
                                 const std::vector<DomainScan>& scans, bool replayed,
                                 bool quarantined) {
        if (trace == nullptr) return;
        const std::int64_t start_ns = sim_cursor_ns;
        std::int64_t dur_ns = 0;
        std::uint64_t quic_ok = 0;
        std::uint64_t errors = 0;
        std::uint64_t retries = 0;
        for (const auto& scan : scans) {
            if (scan.quic_ok()) ++quic_ok;
            if (!scan.error.empty()) ++errors;
            retries += scan.retries;
            dur_ns += scan.sim_time.count_nanos();
        }
        // The span first, instants after: per-lane timestamps then never
        // decrease (the span starts at or before every instant it contains).
        trace->complete(
            TraceClock::sim, sim_lane, "chunk", start_ns, dur_ns,
            {TraceArg::num("chunk", static_cast<std::uint64_t>(chunk_index)),
             TraceArg::num("domains", static_cast<std::uint64_t>(scans.size())),
             TraceArg::num("quic_ok", quic_ok), TraceArg::num("errors", errors),
             TraceArg::num("retries", retries),
             TraceArg::num("replayed", static_cast<std::uint64_t>(replayed ? 1 : 0)),
             TraceArg::num("quarantined",
                           static_cast<std::uint64_t>(quarantined ? 1 : 0))});
        if (quarantined) {
            trace->instant(TraceClock::sim, sim_lane, "quarantine", start_ns,
                           {TraceArg::num("chunk", static_cast<std::uint64_t>(chunk_index))});
        }
        std::int64_t offset_ns = 0;
        for (const auto& scan : scans) {
            if (scan.retries > 0) {
                trace->instant(
                    TraceClock::sim, sim_lane, "retry", start_ns + offset_ns,
                    {TraceArg::num("domain", static_cast<std::uint64_t>(scan.domain_id)),
                     TraceArg::num("retries", scan.retries)});
            }
            const bool watchdog_killed = std::any_of(
                scan.attempts.begin(), scan.attempts.end(),
                [](const DomainScan::AttemptRecord& a) {
                    return a.outcome == qlog::ConnectionOutcome::watchdog_cancelled;
                });
            if (watchdog_killed) {
                trace->instant(
                    TraceClock::sim, sim_lane, "watchdog", start_ns + offset_ns,
                    {TraceArg::num("domain", static_cast<std::uint64_t>(scan.domain_id))});
            }
            offset_ns += scan.sim_time.count_nanos();
        }
        sim_cursor_ns = start_ns + dur_ns;
        traced_domains += scans.size();
        traced_quic_ok += quic_ok;
        trace->counter(TraceClock::sim, "domains", sim_cursor_ns,
                       static_cast<double>(traced_domains));
        trace->counter(TraceClock::sim, "domains quic_ok", sim_cursor_ns,
                       static_cast<double>(traced_quic_ok));
    };

    // Per-scan merge bookkeeping, identical for scanned and replayed chunks:
    // replayed chunks re-drive exactly the counters an uninterrupted merge
    // would have driven, which is what makes reduced output byte-identical.
    const auto merge_scan = [&](std::size_t domain_index, DomainScan&& scan) {
        // Regenerated, not looked up: the sink's Domain is a pure function of
        // (seed, id), so handing it a fresh copy keeps the merge thread free
        // of any materialized population.
        const web::Domain domain =
            model_->domain(static_cast<std::uint32_t>(domain_index));

        ++stats.domains_scanned;
        if (scan.resolved) ++stats.domains_resolved;
        if (scan.quic_ok()) ++stats.domains_quic_ok;
        stats.connections += scan.connections.size();
        stats.redirects_followed += scan.redirects_followed;
        stats.retries += scan.retries;
        if (scan.recovered_by_retry) ++stats.domains_recovered_by_retry;
        if (!scan.error.empty()) ++stats.domains_errored;
        for (const auto& trace : scan.connections) {
            ++stats.outcomes[static_cast<std::size_t>(trace.outcome)];
            if (metrics_ != nullptr) {
                metrics_->counter(telemetry::MetricName{"scanner.outcome.",
                                                        qlog::to_cstring(trace.outcome)})
                    .add(1);
            }
        }
        for (const auto& attempt : scan.attempts) {
            ++stats.server_faults[static_cast<std::size_t>(attempt.server_fault)];
            if (metrics_ != nullptr &&
                attempt.server_fault != faults::ServerFaultMode::none) {
                metrics_->counter(telemetry::MetricName{
                                      "scanner.server_fault.",
                                      faults::to_cstring(attempt.server_fault)})
                    .add(1);
            }
        }
        if (metrics_ != nullptr) {
            metrics_->counter("scanner.domains_scanned").add(1);
            if (scan.resolved) metrics_->counter("scanner.domains_resolved").add(1);
            if (scan.quic_ok()) metrics_->counter("scanner.domains_quic_ok").add(1);
            metrics_->counter("scanner.connections").add(scan.connections.size());
            if (scan.retries > 0) {
                metrics_->counter("scanner.retries").add(scan.retries);
            }
            if (scan.recovered_by_retry) {
                metrics_->counter("scanner.domains_recovered_by_retry").add(1);
            }
            if (!scan.error.empty()) {
                metrics_->counter("scanner.domains_errored").add(1);
            }
        }

        sink(domain, std::move(scan));

        if (progress_ && progress_every_ > 0 &&
            stats.domains_scanned % progress_every_ == 0) {
            stats.wall_seconds = wall_elapsed();
            progress_(stats);
        }
    };

    // One chunk on its way to the merge: scanned (its registry handed over
    // in memory), replayed from the journal (telemetry in the record's
    // snapshot) or a quarantine placeholder.
    struct ChunkItem {
        ChunkRecord record;
        std::unique_ptr<telemetry::MetricsRegistry> metrics;
        int restarts = 0;               ///< crashed executions (0 when replayed)
        std::int64_t scan_done_ns = 0;  ///< wall instant the scan finished
    };

    const auto merge_chunk = [&](ChunkItem& item, bool replayed) {
        ChunkRecord& record = item.record;
        const std::size_t begin = plan.chunk_begin(record.chunk_index);
        if (record.scans.size() != plan.chunk_end(record.chunk_index) - begin) {
            throw std::invalid_argument(
                "scanner: journal chunk geometry does not match the population at " +
                describe_chunk(plan, record.chunk_index) + ": record holds " +
                std::to_string(record.scans.size()) + " scans");
        }
        const std::int64_t merge_start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        if (trace != nullptr && item.metrics != nullptr) {
            // Chunk-local efficiency, sampled from the chunk's private
            // registry before it merges away: datagram-pool hit rate and the
            // simulator event-queue high-water mark. Read-only probes — the
            // merged registry must not grow instruments just because a
            // recorder is attached.
            const auto* hits = item.metrics->find_counter("bytes.pool.hits");
            const auto* acquires = item.metrics->find_counter("bytes.pool.acquires");
            if (hits != nullptr && acquires != nullptr && acquires->value() > 0) {
                trace->counter(TraceClock::wall, "pool hit rate", merge_start_ns,
                               static_cast<double>(hits->value()) /
                                   static_cast<double>(acquires->value()));
            }
            if (const auto* hwm = item.metrics->find_gauge("netsim.sim.queue_depth_hwm");
                hwm != nullptr && hwm->has_value()) {
                trace->counter(TraceClock::wall, "event queue hwm", merge_start_ns,
                               hwm->value());
            }
        }
        // Chunk telemetry first, then per-scan bookkeeping.
        if (metrics_ != nullptr) {
            if (item.metrics != nullptr) {
                metrics_->merge_from(*item.metrics);
            } else if (!record.telemetry_snapshot.empty()) {
                auto parsed = telemetry::parse_snapshot(record.telemetry_snapshot);
                if (!parsed) {
                    throw std::invalid_argument(
                        "scanner: journal telemetry snapshot is malformed at " +
                        describe_chunk(plan, record.chunk_index));
                }
                metrics_->merge_from(*parsed);
            }
        }
        stats.worker_restarts += item.restarts;
        if (record.quarantined) {
            ++stats.chunks_quarantined;
            stats.domains_quarantined += record.scans.size();
            if (metrics_ != nullptr) {
                metrics_->counter("campaign.quarantined_chunks").add(1);
                metrics_->counter("campaign.quarantined_domains").add(record.scans.size());
            }
            if (trace != nullptr && !replayed) {
                trace->instant(
                    TraceClock::wall, wall_merge_lane, "quarantine", trace->wall_now_ns(),
                    {TraceArg::num("chunk", static_cast<std::uint64_t>(record.chunk_index)),
                     TraceArg::num("attempts", static_cast<std::uint64_t>(item.restarts + 1)),
                     TraceArg::str("error", record.quarantine_error)});
            }
        }
        trace_chunk(record.chunk_index, record.scans, replayed, record.quarantined);
        for (std::size_t j = 0; j < record.scans.size(); ++j) {
            // Model ids are global indices, so the expected id is arithmetic.
            if (record.scans[j].domain_id != begin + j) {
                throw std::invalid_argument(
                    "scanner: journal domain ids do not match the population at " +
                    describe_chunk(plan, record.chunk_index));
            }
            merge_scan(begin + j, std::move(record.scans[j]));
        }
        if (trace != nullptr) {
            const std::int64_t end_ns = trace->wall_now_ns();
            std::vector<TraceArg> args{
                TraceArg::num("chunk", static_cast<std::uint64_t>(record.chunk_index))};
            if (item.scan_done_ns > 0) {
                args.push_back(TraceArg::num(
                    "queued_ms", static_cast<double>(merge_start_ns - item.scan_done_ns) / 1e6));
            }
            trace->complete(TraceClock::wall, wall_merge_lane, "merge chunk", merge_start_ns,
                            end_ns - merge_start_ns, std::move(args));
            const double elapsed = wall_elapsed();
            if (elapsed > 0.0) {
                trace->counter(TraceClock::wall, "domains_per_sec", end_ns,
                               static_cast<double>(stats.domains_scanned) / elapsed);
            }
        }
    };

    // ---- journal: lock, header, recorded chunks -----------------------------
    const bool journaling = !options_.journal_dir.empty();
    const std::filesystem::path dir = options_.journal_dir;
    util::Io& io = util::resolve_io(options_.io);
    // Exactly one campaign may write a journal directory at a time: a reduce
    // racing a run would merge records the run is about to wipe. Held until
    // this run returns; a stale lock whose owner died is broken silently, a
    // live owner makes this run refuse loudly.
    util::PidLockFile journal_lock;
    std::vector<MapBatch> recorded;  // ascending, disjoint
    if (journaling) {
        std::filesystem::create_directories(dir);
        try {
            journal_lock.acquire(journal_lock_path(dir));
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(std::string{"scanner: journal dir '"} +
                                     options_.journal_dir +
                                     "' is in use by another campaign (" + e.what() +
                                     "); this campaign spans domains [0, " +
                                     std::to_string(universe) + ") in " +
                                     std::to_string(plan.chunk_count()) + " chunks");
        }
        CampaignHeader header;
        header.seed = options_.seed;
        header.week = options_.week;
        header.ipv6 = options_.ipv6;
        header.chunk_domains = options_.chunk_domains;
        header.domain_count = universe;
        header.has_telemetry = metrics_ != nullptr;
        init_map_journal(io, dir, header, /*wipe=*/!reuse_journal);
        // Only chunk PRESENCE is loaded eagerly: each recorded batch is read
        // when its turn to merge comes and dies with the merge, so RSS is
        // bounded by the merge window, never by how much was published.
        if (reuse_journal) recorded = list_map_batches(dir);
        if (!recorded.empty() && recorded.back().last >= plan.chunk_count()) {
            throw std::invalid_argument(
                "scanner: journal chunk index " + std::to_string(recorded.back().last) +
                " is past this campaign's chunk count (" +
                std::to_string(plan.chunk_count()) + " chunks over " +
                std::to_string(universe) + " domains)");
        }
    }
    std::vector<std::size_t> missing;
    {
        std::size_t c = 0;
        for (const MapBatch& batch : recorded) {
            for (; c < batch.first; ++c) missing.push_back(c);
            c = batch.last + 1;
        }
        for (; c < plan.chunk_count(); ++c) missing.push_back(c);
    }

    // ---- publishing ---------------------------------------------------------
    // Journal-before-merge: a batch is durable before any of its chunks
    // reaches the sink, so a crash in between costs nothing (reduce replays
    // it) while the opposite order could emit output a reduce then repeats.
    // A non-transient storage error must not kill a sweep whose OUTPUT is
    // still perfectly computable (DESIGN.md §16): publishing stops, the
    // cause is attributed loudly (stats flag + campaign.journal.* telemetry)
    // and merging continues. Failures before any work — lock, header — still
    // throw: refusing loudly beats running without the durability the caller
    // asked for.
    bool publishing = journaling;
    // Storage-retry jitter stream (wall-clock backoff); independent of every
    // scan-facing RNG, so disk stutter never perturbs the output.
    util::Rng io_retry_rng{util::derive_stream_seed(options_.seed, 0xd15cULL)};
    const auto publish = [&](const MapBatch& batch, std::string_view framed) {
        if (!publishing) return;
        const std::int64_t start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        util::IoResult published;
        for (int attempt = 0;; ++attempt) {
            published = write_map_batch(io, dir, batch, framed);
            if (published ||
                util::classify_io_error(published.err) != util::IoErrorClass::transient ||
                attempt + 1 >= options_.journal_retry.max_attempts) {
                break;
            }
            const Duration delay =
                options_.journal_retry.backoff_delay(attempt + 1, io_retry_rng);
            std::this_thread::sleep_for(std::chrono::nanoseconds{delay.count_nanos()});
        }
        if (published) {
            stats.journal_records_appended += batch.size();
            if (trace != nullptr) {
                trace->complete(
                    TraceClock::wall, wall_merge_lane, "journal publish", start_ns,
                    trace->wall_now_ns() - start_ns,
                    {TraceArg::num("first", static_cast<std::uint64_t>(batch.first)),
                     TraceArg::num("last", static_cast<std::uint64_t>(batch.last)),
                     TraceArg::num("bytes", static_cast<std::uint64_t>(framed.size()))});
            }
            return;
        }
        publishing = false;
        stats.journal_degraded = true;
        stats.journal_degraded_error =
            "scanner: cannot publish journal records for chunks " +
            std::to_string(batch.first) + ".." + std::to_string(batch.last) + " (domains [" +
            std::to_string(plan.chunk_begin(batch.first)) + ", " +
            std::to_string(plan.chunk_end(batch.last)) + ")) in " + options_.journal_dir +
            ": " + published.message();
        if (metrics_ != nullptr) {
            metrics_->counter("campaign.journal.degraded").add(1);
            metrics_->counter(telemetry::MetricName{
                                  "campaign.journal.io_errors.",
                                  util::to_cstring(util::classify_io_error(published.err))})
                .add(1);
        }
        if (trace != nullptr) {
            trace->instant(TraceClock::wall, wall_merge_lane, "journal degraded",
                           trace->wall_now_ns(),
                           {TraceArg::str("error", stats.journal_degraded_error)});
        }
    };
    // Thread-safe: runs on shard workers (and inline on the merge thread).
    // Never throws for a crashing chunk: scan_chunk_into restarts it, then
    // hands back its quarantine placeholders.
    const auto scan_item = [this](std::size_t chunk_index) {
        ChunkScan scanned = scan_chunk_into(chunk_index);
        ChunkItem item;
        item.restarts = scanned.chunk.restarts;
        item.record = to_chunk_record(chunk_index, std::move(scanned.chunk));
        item.metrics = std::move(scanned.metrics);
        return item;
    };

    // ---- the merge loop -----------------------------------------------------
    // Recorded batches replay right before the first scanned chunk past
    // them; scanned chunks collect into `pending` (consecutive indices, at
    // most kMapBatchChunks) and are published as one file, then merged.
    // Records are encoded here on the merge thread, in parallel with the
    // workers' scans: a run on N threads keeps N + 1 cores busy.
    std::size_t next_recorded = 0;
    std::uint64_t records_replayed = 0;
    std::uint64_t corrupt_chunks = 0;
    std::vector<ChunkItem> pending;
    const auto commit = [&](std::vector<ChunkItem>& items) {
        if (items.empty()) return;
        if (publishing) {
            std::string framed;
            for (ChunkItem& item : items) {
                if (item.metrics != nullptr) {
                    item.record.telemetry_snapshot = telemetry::snapshot(*item.metrics);
                }
                framed += frame_record(serialize_chunk_record(item.record));
            }
            publish({items.front().record.chunk_index, items.back().record.chunk_index},
                    framed);
        }
        for (ChunkItem& item : items) merge_chunk(item, /*replayed=*/false);
        items.clear();
    };
    const auto replay_up_to = [&](std::size_t limit) {
        for (; next_recorded < recorded.size() && recorded[next_recorded].first < limit;
             ++next_recorded) {
            const MapBatch& batch = recorded[next_recorded];
            if (auto records = read_map_batch(dir, batch)) {
                for (ChunkRecord& record : *records) {
                    ChunkItem item;
                    item.record = std::move(record);
                    merge_chunk(item, /*replayed=*/true);
                }
                records_replayed += batch.size();
                continue;
            }
            // Listed but unreadable (torn or bit-flipped): rescan the batch
            // inline and republish it under the same name — byte-identical
            // by the purity contract, so the repair is idempotent.
            corrupt_chunks += batch.size();
            std::vector<ChunkItem> rescanned;
            for (std::size_t c = batch.first; c <= batch.last; ++c) {
                rescanned.push_back(scan_item(c));
            }
            commit(rescanned);
        }
    };
    const auto take = [&](ChunkItem&& item) {
        const std::size_t c = item.record.chunk_index;
        if (!pending.empty() && c != pending.back().record.chunk_index + 1) commit(pending);
        replay_up_to(c);
        pending.push_back(std::move(item));
        if (!publishing || pending.size() == kMapBatchChunks) commit(pending);
    };

    // One missing chunk per work item: the campaign chunk is the unit of
    // journaling, so the shard layer must not regroup. Slot m % window is
    // written by exactly one worker (inside scan_missing(m)) and read by the
    // merge thread only after run_sharded reports the chunk done; the shard
    // merge window bounds how many chunks are live past the merge frontier,
    // so in-flight results cost O(window), never O(chunk count).
    const ShardConfig shard{options_.threads};
    const ShardPlan missing_plan{missing.size(), 1};
    const std::size_t window = std::max<std::size_t>(
        std::min<std::size_t>(shard.window_chunks(), missing.size()), 1);
    std::vector<ChunkItem> scanned(window);
    const auto scan_missing = [&](std::size_t m) {
        const std::int64_t start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        ChunkItem item = scan_item(missing[m]);
        if (trace != nullptr) {
            item.scan_done_ns = trace->wall_now_ns();
            trace->complete(
                TraceClock::wall, trace->wall_lane_for_current_thread("worker"),
                "scan chunk", start_ns, item.scan_done_ns - start_ns,
                {TraceArg::num("chunk", static_cast<std::uint64_t>(missing[m])),
                 TraceArg::num("domains",
                               static_cast<std::uint64_t>(item.record.scans.size()))});
        }
        scanned[m % window] = std::move(item);
    };
    const auto merge_missing = [&](std::size_t m) {
        ChunkItem item = std::move(scanned[m % window]);
        scanned[m % window] = ChunkItem{};  // release the slot's storage
        take(std::move(item));
    };

    run_sharded(shard, missing_plan, scan_missing, merge_missing);
    commit(pending);
    replay_up_to(plan.chunk_count());

    if (metrics_ != nullptr) {
        // restarted_workers = thread-level scan re-executions (scan_chunk);
        // its sibling campaign.restarted_procs counts worker PROCESS re-forks
        // and is published by scanner::run_procs.
        if (stats.worker_restarts > 0) {
            metrics_->counter("campaign.restarted_workers").add(stats.worker_restarts);
        }
        if (journaling) {
            metrics_->counter("campaign.journal.records_appended")
                .add(stats.journal_records_appended);
        }
        if (records_replayed > 0) {
            metrics_->counter("campaign.journal.records_replayed").add(records_replayed);
        }
        if (corrupt_chunks > 0) {
            metrics_->counter("campaign.journal.corrupt_map_chunks").add(corrupt_chunks);
        }
    }

    // Wall clock is aggregated exactly once, here on the merge thread —
    // never accumulated per domain, which would double-count overlapping
    // worker time under sharding.
    stats.wall_seconds = wall_elapsed();
    if (metrics_ != nullptr) {
        metrics_->gauge("scanner.domains_per_sec").set(stats.domains_per_sec());
        metrics_->gauge("scanner.quic_ok_rate").set(stats.quic_ok_rate());
        if (resource_probe) resource_probe->publish(*metrics_);
        if (trace != nullptr) trace->publish_metrics(*metrics_);
    }
    return stats;
}

}  // namespace spinscope::scanner
