#include "core/observer.hpp"

#include <algorithm>
#include <limits>

#include "quic/packet.hpp"

namespace spinscope::core {

double SpinRttResult::mean_ms() const noexcept {
    if (samples_ms.empty()) return 0.0;
    double sum = 0.0;
    for (double s : samples_ms) sum += s;
    return sum / static_cast<double>(samples_ms.size());
}

double SpinRttResult::min_ms() const noexcept {
    if (samples_ms.empty()) return 0.0;
    return *std::min_element(samples_ms.begin(), samples_ms.end());
}

SpinRttResult measure_spin_rtt(std::span<const SpinObservation> packets, PacketOrder order) {
    std::vector<SpinObservation> sorted;
    std::span<const SpinObservation> view = packets;
    if (order == PacketOrder::sorted) {
        sorted.assign(packets.begin(), packets.end());
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const SpinObservation& a, const SpinObservation& b) {
                             return a.packet_number < b.packet_number;
                         });
        // Drop duplicate packet numbers (retransmitted observations).
        sorted.erase(std::unique(sorted.begin(), sorted.end(),
                                 [](const SpinObservation& a, const SpinObservation& b) {
                                     return a.packet_number == b.packet_number;
                                 }),
                     sorted.end());
        view = sorted;
    }

    SpinRttResult result;
    bool have_value = false;
    bool current = false;
    TimePoint last_edge = TimePoint::never();
    for (const auto& packet : view) {
        if (packet.spin) {
            result.saw_one = true;
        } else {
            result.saw_zero = true;
        }
        if (!have_value) {
            have_value = true;
            current = packet.spin;
            continue;
        }
        if (packet.spin == current) continue;
        // Edge.
        current = packet.spin;
        ++result.edge_count;
        if (!last_edge.is_never()) {
            result.samples_ms.push_back((packet.time - last_edge).as_ms());
        }
        last_edge = packet.time;
    }
    return result;
}

void SpinEdgeObserver::on_packet(const SpinObservation& packet) {
    if (packet.spin) {
        result_.saw_one = true;
    } else {
        result_.saw_zero = true;
    }
    if (!have_value_) {
        have_value_ = true;
        current_value_ = packet.spin;
        value_set_by_pn_ = packet.packet_number;
        return;
    }
    if (packet.spin == current_value_) {
        // Same value on a newer packet advances the PN watermark.
        if (packet.packet_number > value_set_by_pn_) value_set_by_pn_ = packet.packet_number;
        return;
    }
    if (config_.packet_number_filter && packet.packet_number < value_set_by_pn_) {
        // A stale (reordered) packet from before the current value was set;
        // RFC 9312: ignore it rather than treat it as an edge.
        return;
    }
    if (config_.require_vec && packet.vec == 0) {
        // VEC mode: a value change without an edge marking is a reordering
        // artefact (or the peer does not implement the extension).
        return;
    }

    current_value_ = packet.spin;
    value_set_by_pn_ = packet.packet_number;
    ++result_.edge_count;

    if (last_edge_.is_never()) {
        last_edge_ = packet.time;
        return;
    }
    const Duration interval = packet.time - last_edge_;
    last_edge_ = packet.time;

    const double sample_ms = interval.as_ms();
    bool reject = interval < config_.min_plausible_rtt;
    if (config_.require_vec && packet.vec < 3) {
        // Only fully validated edges (both endpoints confirmed the wave)
        // terminate a sample.
        reject = true;
    }
    if (!reject && config_.dynamic_reject_ratio > 0.0 && have_smoothed_ &&
        sample_ms < config_.dynamic_reject_ratio * smoothed_ms_) {
        reject = true;
    }
    if (reject) {
        ++rejected_;
        return;
    }
    result_.samples_ms.push_back(sample_ms);
    if (!have_smoothed_) {
        smoothed_ms_ = sample_ms;
        have_smoothed_ = true;
    } else {
        smoothed_ms_ = smoothed_ms_ * 0.875 + sample_ms * 0.125;
    }
}

void SpinEdgeObserver::on_datagram(TimePoint at, bytes::ConstByteSpan datagram) {
    const auto view = quic::peek_short_header(datagram);
    if (!view) return;
    on_packet(SpinObservation{at, short_header_packets_++, view->spin, view->vec});
}

std::optional<double> SpinEdgeObserver::smoothed_ms() const noexcept {
    if (!have_smoothed_) return std::nullopt;
    return smoothed_ms_;
}

}  // namespace spinscope::core
