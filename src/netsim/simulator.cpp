#include "netsim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spinscope::netsim {

namespace {

/// Initial capacities of the two queue vectors. Keys are 24 bytes, so the
/// heap starts deep enough for most handshakes; slots are 128 bytes and
/// start at what a silent attempt needs, growing only on busy connections.
constexpr std::size_t kInitialKeys = 128;
constexpr std::size_t kInitialSlots = 32;

}  // namespace

Simulator::Simulator() {
    heap_.reserve(kInitialKeys);
    slots_.reserve(kInitialSlots);
}

void Simulator::check_owner() const {
    if (std::this_thread::get_id() != owner_) {
        throw std::logic_error(
            "netsim: Simulator used from a thread other than its owner "
            "(simulators are single-threaded; shard workers must create "
            "their own)");
    }
}

void Simulator::schedule_at(TimePoint t, Callback cb, const char* category) {
    check_owner();
    if (t < now_) t = now_;
    std::size_t slot = free_slot_;
    if (slot == kNoSlot) {
        slot = slots_.size();
        slots_.push_back(Slot{std::move(cb), category});
    } else {
        Slot& reused = slots_[slot];
        free_slot_ = reused.next_free;
        reused.cb = std::move(cb);
        reused.category = category;
    }
    heap_.push_back(Key{t, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (heap_.size() > queue_hwm_) queue_hwm_ = heap_.size();
}

void Simulator::schedule_after(Duration d, Callback cb, const char* category) {
    if (d.is_negative()) d = Duration::zero();
    schedule_at(now_ + d, std::move(cb), category);
}

void Simulator::pop_and_run() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    Slot& slot = slots_[key.slot];
    Callback cb = std::move(slot.cb);
    const char* const category = slot.category;
    slot.next_free = free_slot_;
    free_slot_ = key.slot;
    now_ = key.at;
    ++processed_;
    if (category != nullptr) {
        bool found = false;
        for (auto& [name, count] : category_counts_) {
            if (name == category) {
                ++count;
                found = true;
                break;
            }
        }
        if (!found) category_counts_.emplace_back(category, 1);
    }
    cb();
}

void Simulator::run() {
    check_owner();
    while (!heap_.empty()) pop_and_run();
}

bool Simulator::run_until(TimePoint deadline) {
    check_owner();
    while (!heap_.empty() && heap_.front().at <= deadline) pop_and_run();
    if (now_ < deadline) now_ = deadline;
    return heap_.empty();
}

void Simulator::run_steps(std::size_t max_events) {
    check_owner();
    for (std::size_t i = 0; i < max_events && !heap_.empty(); ++i) pop_and_run();
}

void Simulator::publish_metrics(telemetry::MetricsRegistry& registry,
                                std::string_view prefix) const {
    using telemetry::MetricName;
    registry.counter(MetricName{prefix, ".events_scheduled"}).add(next_seq_);
    registry.counter(MetricName{prefix, ".events_processed"}).add(processed_);
    registry.gauge(MetricName{prefix, ".queue_depth_hwm"})
        .set_max(static_cast<double>(queue_hwm_));
    for (const auto& [category, count] : category_counts_) {
        registry.counter(MetricName{prefix, ".events.", category}).add(count);
    }
}

void Timer::set_at(TimePoint t, Callback cb) {
    const std::uint64_t generation = ++state_->generation;
    state_->armed = true;
    state_->expiry = t;
    sim_->schedule_at(
        t,
        [state = state_, generation, cb = std::move(cb)]() mutable {
            if (generation != state->generation || !state->armed) return;
            state->armed = false;
            cb();
        },
        "timer");
}

void Timer::set_after(Duration d, Callback cb) { set_at(sim_->now() + d, std::move(cb)); }

void Timer::cancel() noexcept {
    ++state_->generation;
    state_->armed = false;
}

}  // namespace spinscope::netsim
