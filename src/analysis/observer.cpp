#include "analysis/observer.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "quic/packet.hpp"
#include "util/rng.hpp"

namespace spinscope::analysis {

void ObserverReplay::add(const qlog::Trace& trace) {
    const auto observations = core::spin_observations(trace);
    if (observations.empty()) return;

    Connection conn;
    // Flow identity is a derived sub-stream of the replay seed keyed by the
    // registration index (DESIGN.md §9 scheme) — stable across runs, and
    // 64-bit, so accidental key sharing between connections is negligible
    // while slot collisions in the constrained table remain the experiment.
    conn.key = util::derive_stream_seed(seed_, static_cast<std::uint64_t>(connections_.size()));
    conn.assessment = core::assess_connection(trace);
    const auto conn_index = static_cast<std::uint32_t>(connections_.size());
    connections_.push_back(std::move(conn));

    std::uint32_t seq = 0;
    events_.reserve(events_.size() + observations.size());
    for (const auto& obs : observations) {
        events_.push_back(Event{obs.time.count_nanos(), conn_index, seq++, obs});
    }
}

std::vector<ObserverReplay::Event> ObserverReplay::sorted_events() const {
    std::vector<Event> sorted = events_;
    std::sort(sorted.begin(), sorted.end(), [](const Event& a, const Event& b) {
        return std::tie(a.time_ns, a.conn, a.seq) < std::tie(b.time_ns, b.conn, b.seq);
    });
    return sorted;
}

ObserverRun ObserverReplay::run_idealized(core::ObserverConfig config) const {
    // A perfect flow table is one observer per connection. It sees the same
    // interleave as the constrained table, with the per-connection arrival
    // index as packet number: PNs are protected on the wire.
    std::vector<core::SpinEdgeObserver> observers(connections_.size(),
                                                  core::SpinEdgeObserver{config});
    std::vector<quic::PacketNumber> arrivals(connections_.size(), 0);
    for (const Event& event : sorted_events()) {
        core::SpinObservation obs = event.obs;
        obs.packet_number = arrivals[event.conn]++;
        observers[event.conn].on_packet(obs);
    }

    std::vector<core::SpinRttResult> observed;
    observed.reserve(observers.size());
    for (const auto& observer : observers) observed.push_back(observer.result());
    return score(std::move(observed));
}

ObserverRun ObserverReplay::run_constrained(const core::ConstrainedConfig& config) const {
    core::ConstrainedMonitor monitor{config};
    std::vector<std::uint8_t> datagram;
    static constexpr std::uint8_t kPing[] = {0x01};
    for (const Event& event : sorted_events()) {
        quic::PacketHeader header;
        header.type = quic::PacketType::one_rtt;
        header.dcid = quic::ConnectionId::from_u64(connections_[event.conn].key);
        header.packet_number = event.obs.packet_number;
        header.spin = event.obs.spin;
        header.vec = event.obs.vec;
        datagram.clear();
        quic::encode_packet(datagram, header, kPing,
                            event.obs.packet_number > 0 ? event.obs.packet_number - 1 : 0);
        monitor.on_datagram(util::TimePoint::origin() + util::Duration::nanos(event.time_ns),
                            bytes::ConstByteSpan{datagram.data(), datagram.size()});
    }

    std::vector<core::SpinRttResult> observed(connections_.size());
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        const auto stats = monitor.find_key(connections_[i].key);
        if (!stats) continue;
        static_cast<core::SpinEdgeState&>(observed[i]) = *stats;
        // The hardware estimate is one number: the integer EWMA. Wrap it as
        // a single sample so the Fig. 3/4 machinery (per-connection means)
        // scores it like any other estimator.
        if (stats->has_estimate) observed[i].samples_ms.push_back(stats->srtt_ms());
    }
    ObserverRun run = score(std::move(observed));
    run.summary.table = monitor.counters();
    return run;
}

ObserverRun ObserverReplay::score(std::vector<core::SpinRttResult> observed) const {
    ObserverRun run;
    run.summary.connections = connections_.size();
    double err_sum = 0.0;
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        const core::ConnectionAssessment& endpoint = connections_[i].assessment;
        if (endpoint.spin_received.has_samples()) ++run.summary.candidates;
        // A wire observer sees arrival order only, so both series carry the
        // received-order result.
        core::ConnectionAssessment assessed = endpoint;
        assessed.spin_received = std::move(observed[i]);
        assessed.spin_sorted = assessed.spin_received;
        if (assessed.spin_received.has_samples()) {
            ++run.summary.measured;
            if (endpoint.has_quic_baseline) {
                ++run.summary.comparable;
                const double err =
                    std::abs(assessed.spin_received.mean_ms() - endpoint.quic_mean_ms);
                err_sum += err;
                if (err <= 25.0) ++run.summary.within_25ms;
            }
        }
        run.aggregator.add(assessed);
    }
    if (run.summary.candidates > 0) {
        run.summary.coverage = static_cast<double>(run.summary.measured) /
                               static_cast<double>(run.summary.candidates);
    }
    if (run.summary.comparable > 0) {
        run.summary.mean_abs_err_ms =
            err_sum / static_cast<double>(run.summary.comparable);
    }
    return run;
}

}  // namespace spinscope::analysis
