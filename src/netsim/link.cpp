#include "netsim/link.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/distributions.hpp"

namespace spinscope::netsim {

namespace {

double checked_probability(double p, const char* name) {
    if (std::isnan(p)) {
        throw std::invalid_argument(std::string{"netsim: LinkConfig."} + name + " is NaN");
    }
    return std::clamp(p, 0.0, 1.0);
}

}  // namespace

void validate_link_config(LinkConfig& config) {
    config.loss_probability = checked_probability(config.loss_probability, "loss_probability");
    config.reorder_probability =
        checked_probability(config.reorder_probability, "reorder_probability");
    if (std::isnan(config.jitter_sigma)) {
        throw std::invalid_argument("netsim: LinkConfig.jitter_sigma is NaN");
    }
    if (std::isnan(config.bandwidth_bps)) {
        throw std::invalid_argument("netsim: LinkConfig.bandwidth_bps is NaN");
    }
    config.jitter_sigma = std::max(0.0, config.jitter_sigma);
    config.bandwidth_bps = std::max(0.0, config.bandwidth_bps);
    if (config.reorder_extra_min > config.reorder_extra_max) {
        throw std::invalid_argument(
            "netsim: LinkConfig.reorder_extra_min exceeds reorder_extra_max");
    }
    if (config.reorder_extra_min.is_negative()) {
        throw std::invalid_argument("netsim: LinkConfig.reorder_extra_min is negative");
    }
    if (config.base_delay.is_negative() || config.jitter_scale.is_negative()) {
        throw std::invalid_argument("netsim: LinkConfig delay knobs must be >= 0");
    }
}

Link::Link(Simulator& sim, LinkConfig config, util::Rng rng)
    : sim_{&sim}, config_{config}, rng_{rng} {
    validate_link_config(config_);
}

Duration Link::sample_jitter() {
    if (config_.jitter_scale.is_zero()) return Duration::zero();
    // exp(N(0, sigma)) - 1 is >= -1 with a right tail: occasional late
    // packets, never earlier than the propagation floor.
    const double factor = util::sample_lognormal(rng_, 0.0, config_.jitter_sigma) - 1.0;
    return Duration::from_ms(std::max(0.0, factor) * config_.jitter_scale.as_ms());
}

void Link::send(Datagram datagram) {
    ++stats_.sent;

    // Injected faults decide first: an outage or burst loss costs the
    // datagram before the steady-state channel model sees it. The injector
    // runs on its own RNG stream, so the link's draws below are unperturbed
    // whether or not a plan is attached.
    faults::FaultInjector::Verdict fault;
    if (injector_) {
        fault = injector_->on_send(sim_->now());
        if (fault.drop) {
            ++stats_.dropped;
            stats_.dropped_bytes += datagram.size();
            if (fault.blackholed) {
                ++stats_.fault_blackhole_dropped;
            } else {
                ++stats_.fault_burst_dropped;
            }
            return;
        }
        if (!fault.extra_delay.is_zero()) ++stats_.fault_delay_spiked;
        if (fault.duplicate) ++stats_.fault_duplicated;
    }

    if (rng_.chance(config_.loss_probability)) {
        ++stats_.dropped;
        stats_.dropped_bytes += datagram.size();
        return;
    }

    TimePoint departure = sim_->now();
    if (config_.bandwidth_bps > 0.0) {
        // Model a FIFO serializer: transmission begins when the line frees up.
        const double bits = static_cast<double>(datagram.size()) * 8.0;
        const auto serialization = Duration::from_ms(bits / config_.bandwidth_bps * 1e3);
        if (serializer_free_at_ < departure) serializer_free_at_ = departure;
        departure = serializer_free_at_;
        serializer_free_at_ = departure + serialization;
        departure = serializer_free_at_;  // last bit leaves at end of serialization
    }

    // A delay spike acts like a bufferbloat excursion: it delays this
    // datagram pre-clamp, so with FIFO enforcement later datagrams queue up
    // behind it instead of overtaking.
    TimePoint arrival = departure + config_.base_delay + sample_jitter() + fault.extra_delay;

    const bool reorder_event = rng_.chance(config_.reorder_probability);
    if (reorder_event) {
        const std::int64_t lo = config_.reorder_extra_min.count_nanos();
        const std::int64_t hi = config_.reorder_extra_max.count_nanos();
        arrival = arrival + Duration::nanos(rng_.uniform_i64(lo, std::max(lo, hi)));
        ++stats_.reordered;
    } else if (config_.enforce_fifo && arrival < last_scheduled_arrival_) {
        arrival = last_scheduled_arrival_;
    }
    if (!reorder_event) last_scheduled_arrival_ = arrival;

    if (fault.duplicate) {
        // The copy shares the original's arrival instant; scheduling order
        // keeps it right behind the original (stable same-time ordering).
        // clone() draws the copy's storage from the original's pool.
        schedule_delivery(datagram.clone(), arrival);
    }
    schedule_delivery(std::move(datagram), arrival);
}

void Link::schedule_delivery(Datagram datagram, TimePoint arrival) {
    sim_->schedule_at(
        arrival,
        [this, dg = std::move(datagram)] {
            ++stats_.delivered;
            stats_.delivered_bytes += dg.size();
            for (const auto& tap : taps_) tap(sim_->now(), dg.span());
            if (receiver_) receiver_(dg.span());
            // `dg` dies with this event; pooled storage recycles here.
        },
        "link.delivery");
}

void Link::publish_metrics(telemetry::MetricsRegistry& registry,
                           std::string_view prefix) const {
    const auto counter = [&](std::string_view suffix) -> telemetry::Counter& {
        return registry.counter(telemetry::MetricName{prefix, suffix});
    };
    counter(".sent").add(stats_.sent);
    counter(".delivered").add(stats_.delivered);
    counter(".dropped").add(stats_.dropped);
    counter(".reordered").add(stats_.reordered);
    counter(".delivered_bytes").add(stats_.delivered_bytes);
    counter(".dropped_bytes").add(stats_.dropped_bytes);
    // Fault counters are published only when a plan is attached, so idle
    // campaigns keep their metric schema unchanged.
    if (injector_) {
        counter(".fault.burst_dropped").add(stats_.fault_burst_dropped);
        counter(".fault.blackhole_dropped").add(stats_.fault_blackhole_dropped);
        counter(".fault.delay_spiked").add(stats_.fault_delay_spiked);
        counter(".fault.duplicated").add(stats_.fault_duplicated);
        counter(".fault.burst_entries").add(injector_->stats().burst_entries);
    }
}

Path::Path(Simulator& sim, const LinkConfig& forward, const LinkConfig& ret, util::Rng& rng)
    : forward_{sim, forward, rng.fork(1)}, return_{sim, ret, rng.fork(2)} {}

}  // namespace spinscope::netsim
