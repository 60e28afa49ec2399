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

void Simulator::push_key(const Key& key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (heap_.size() > queue_hwm_) queue_hwm_ = heap_.size();
}

void Simulator::schedule_at(TimePoint t, Callback cb, EventCategory category) {
    check_owner();
    std::uint32_t slot = free_slot_;
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{std::move(cb), category});
    } else {
        Slot& reused = slots_[slot];
        free_slot_ = reused.next_free;
        reused.cb = std::move(cb);
        reused.category = category;
    }
    push_key(Key{std::max(t, now_), next_seq_++, slot});
}

void Simulator::schedule_after(Duration d, Callback cb, EventCategory category) {
    if (d.is_negative()) d = Duration::zero();
    schedule_at(now_ + d, std::move(cb), category);
}

void Simulator::pop_and_run() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    now_ = key.at;
    ++processed_;
    if ((key.slot & kTimerTag) != 0) {
        // Whether it fires, requeues or is dropped, a timer key is a
        // processed "timer" event.
        ++category_counts_[static_cast<std::size_t>(EventCategory::timer)];
        pop_timer_key(key.slot & ~kTimerTag, key.seq);
        return;
    }
    Slot& slot = slots_[key.slot];
    Callback cb = std::move(slot.cb);
    const auto category = static_cast<std::size_t>(slot.category);
    slot.next_free = free_slot_;
    free_slot_ = key.slot;
    if (category < kEventCategoryCount) ++category_counts_[category];
    cb();
}

void Simulator::pop_timer_key(std::uint32_t index, std::uint64_t seq) {
    // A deque reference: it stays valid while the callback grows the table.
    TimerEntry& entry = timers_[index];
    if (seq != entry.queued_seq) return;  // superseded by an earlier arm's key
    entry.queued_seq = kNoKey;
    if (!entry.armed) return;
    if (seq != entry.arm_seq) {
        // Re-armed later while this key waited: sort where that arm's own
        // key would have, so same-instant order is the arm's.
        queue_timer_key(index, entry.expiry, entry.arm_seq);
        return;
    }
    entry.armed = false;
    // The callback runs in place. If it destroys its own Timer, the entry is
    // only marked released, and is freed here once the callback returns.
    // (Should the callback throw, the entry is never recycled; the
    // simulator still destroys it.)
    ++entry.firing;
    entry.on_fire();
    if (--entry.firing == 0 && entry.released) free_timer(index);
}

void Simulator::queue_timer_key(std::uint32_t index, TimePoint at, std::uint64_t seq) {
    TimerEntry& entry = timers_[index];
    entry.queued_at = at;
    entry.queued_seq = seq;
    push_key(Key{at, seq, kTimerTag | index});
}

std::uint32_t Simulator::acquire_timer(Callback on_fire) {
    check_owner();
    std::uint32_t index = free_timer_;
    if (index == kNoSlot) {
        index = static_cast<std::uint32_t>(timers_.size());
        timers_.emplace_back();
    } else {
        free_timer_ = timers_[index].next_free;
    }
    timers_[index].on_fire = std::move(on_fire);
    return index;
}

void Simulator::release_timer(std::uint32_t index) noexcept {
    TimerEntry& entry = timers_[index];
    if (entry.firing > 0) {
        entry.released = true;
    } else {
        free_timer(index);
    }
}

void Simulator::free_timer(std::uint32_t index) noexcept {
    TimerEntry& entry = timers_[index];
    entry.on_fire = nullptr;
    entry.released = false;
    entry.next_free = free_timer_;
    free_timer_ = index;
}

void Simulator::arm_timer(std::uint32_t index, TimePoint t) {
    check_owner();
    TimerEntry& entry = timers_[index];
    entry.armed = true;
    entry.expiry = std::max(t, now_);
    entry.arm_seq = next_seq_++;
    // A key already queued at or before the expiry moves there when popped.
    if (entry.queued_seq != kNoKey && entry.queued_at <= entry.expiry) return;
    queue_timer_key(index, entry.expiry, entry.arm_seq);
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

void Simulator::publish_metrics(telemetry::MetricsRegistry& registry) const {
    using telemetry::CounterId;
    registry.counter(CounterId::netsim_sim_events_scheduled).add(next_seq_);
    registry.counter(CounterId::netsim_sim_events_processed).add(processed_);
    registry.gauge(telemetry::GaugeId::netsim_sim_queue_depth_hwm)
        .set_max(static_cast<double>(queue_hwm_));
    for (std::size_t c = 0; c < kEventCategoryCount; ++c) {
        if (category_counts_[c] == 0) continue;
        registry.counter(CounterId::netsim_sim_events_conn_flush + c).add(category_counts_[c]);
    }
}

}  // namespace spinscope::netsim
