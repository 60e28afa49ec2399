#include "core/observer.hpp"

#include <algorithm>

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
    for (const auto& packet : view) {
        if (const auto interval_ns = result.on_packet(packet.time.count_nanos(), packet.spin)) {
            result.samples_ms.push_back(Duration::nanos(*interval_ns).as_ms());
        }
    }
    return result;
}

void SpinEdgeObserver::on_packet(const SpinObservation& packet) {
    // RFC 9312 gates: a value change on a stale (reordered) packet from
    // before the current value was set is not an edge, nor, in VEC mode, one
    // the peer did not mark (a reordering artefact, or no VEC support).
    const bool change = result_.changes(packet.spin);
    const bool admit =
        !(config_.packet_number_filter && packet.packet_number < value_set_by_pn_) &&
        !(config_.require_vec && packet.vec == 0);
    if (!change || admit) value_set_by_pn_ = std::max(value_set_by_pn_, packet.packet_number);
    const auto interval_ns = result_.on_packet(packet.time.count_nanos(), packet.spin, admit);
    if (!interval_ns) return;

    const Duration interval = Duration::nanos(*interval_ns);
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

}  // namespace spinscope::core
