// spinscope/netsim/simulator.hpp
//
// Discrete-event simulation core: a virtual clock and an ordered event queue.
//
// The simulator stands in for the real Internet of the paper's measurement
// campaign. All protocol endpoints, links and passive observers run on the
// same simulated clock, which gives the analysis pipeline exact ground truth
// for packet timing — the one thing a real vantage point can never have.

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/function.hpp"
#include "util/time.hpp"

namespace spinscope::netsim {

using util::Duration;
using util::TimePoint;

/// What a scheduled event is, counted per category as the
/// `netsim.sim.events.<category>` counters (conn.flush, link.delivery,
/// timer: name order, so a category indexes that catalog family directly).
/// Untagged events are not counted.
enum class EventCategory : std::uint8_t { conn_flush, link_delivery, timer, untagged };

/// Number of counted categories (every value before `untagged`).
inline constexpr std::size_t kEventCategoryCount = 3;

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same instant fire in scheduling order (stable),
/// which keeps runs bit-for-bit reproducible.
///
/// Thread affinity: a Simulator is owned by the thread that constructs it.
/// The sharded campaign creates one per connection attempt on whichever
/// worker runs that attempt; nothing is synchronized, so scheduling or
/// running from any other thread is a determinism bug, and the simulator
/// enforces single-owner affinity by throwing std::logic_error.
class Simulator {
public:
    /// Move-only: delivery events own their (pooled) datagram buffers, which
    /// a copyable std::function could not hold.
    using Callback = util::MoveFunction<void()>;

    /// Reserves the event queue, so a short simulation allocates it once.
    Simulator();

    /// Current simulated time. Monotone: only advances while run() pops events.
    [[nodiscard]] TimePoint now() const noexcept { return now_; }

    /// Schedules `cb` at absolute time `t`. Times in the past fire "now"
    /// (the queue never runs backwards). `category` tags the event for
    /// per-category accounting.
    void schedule_at(TimePoint t, Callback cb, EventCategory category = EventCategory::untagged);

    /// Schedules `cb` after a relative delay (>= 0; negative is clamped).
    void schedule_after(Duration d, Callback cb, EventCategory category = EventCategory::untagged);

    /// Runs events until the queue is empty.
    void run();

    /// Runs events with timestamp <= deadline; the clock ends at the
    /// deadline (or stays where it was, if that is later). Returns true if
    /// the queue was drained: no key is left in the heap.
    bool run_until(TimePoint deadline);

    /// Keys in the heap: queued events, plus at most one key per timer
    /// (two or more only after re-arms to earlier times).
    [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
    /// Keys popped so far (see Timer for what a timer key's pop does).
    [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

    // --- instrumentation ---------------------------------------------------
    /// Largest queue depth ever reached (after a push).
    [[nodiscard]] std::size_t queue_depth_high_water() const noexcept { return queue_hwm_; }
    /// Total events ever scheduled, every timer arm included (each draws a
    /// sequence number whether or not it queues a key).
    [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }
    /// Adds this simulator's stats into `registry` under `netsim.sim.*`:
    /// counters events_scheduled / events_processed / events.<category>
    /// (for each category seen), and a queue_depth_hwm gauge (max-merged, so
    /// per-attempt publishes keep the campaign-wide high-water mark).
    void publish_metrics(telemetry::MetricsRegistry& registry) const;

private:
    friend class Timer;

    static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
    /// TimerEntry::queued_seq of an entry with no key in the heap.
    static constexpr std::uint64_t kNoKey = static_cast<std::uint64_t>(-1);
    /// Set in Key::slot when the key belongs to a timer: the low bits then
    /// index timers_ instead of slots_. At over 100 bytes an entry, neither
    /// table can reach 2^31 entries in memory.
    static constexpr std::uint32_t kTimerTag = std::uint32_t{1} << 31;

    /// Heap entry: 24 bytes, so sifting never moves a callback.
    struct Key {
        TimePoint at;
        std::uint64_t seq;
        std::uint32_t slot;  ///< index into slots_, or kTimerTag | timer index
    };
    static_assert(sizeof(Key) == 24);
    struct Later {
        bool operator()(const Key& a, const Key& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };
    /// Where a queued event's callback lives until it runs. A free slot has
    /// an empty callback and links to the next free slot (intrusive free
    /// list, so recycling needs no second container).
    struct Slot {
        Callback cb;
        EventCategory category = EventCategory::untagged;
        std::uint32_t next_free = kNoSlot;
    };
    /// One Timer's state: its fixed callback, its current arm and the one
    /// key it keeps in the heap. An arm draws a sequence number like any
    /// schedule and fires at (expiry, arm_seq), where a key of its own would
    /// sort. An arm at or after the queued key only records that position;
    /// the queued key, once popped, requeues itself there. An earlier arm
    /// queues a new key and leaves the old one to pop as a no-op. The queued
    /// key describes the heap, not the owner, so it outlives a recycled
    /// entry's owner; the arm it moves to is always the current owner's.
    struct TimerEntry {
        Callback on_fire;
        TimePoint expiry = TimePoint::never();
        std::uint64_t arm_seq = 0;
        TimePoint queued_at = TimePoint::never();
        std::uint64_t queued_seq = kNoKey;
        std::uint32_t next_free = kNoSlot;
        std::uint32_t firing = 0;  ///< callbacks of this entry on the stack
        bool armed = false;
        bool released = false;  ///< owner gone mid-firing: free once it returns
    };

    void push_key(const Key& key);
    void pop_and_run();
    /// Handles a popped key of timer `index`: fires the arm it sorts as,
    /// moves it to a deferred arm, or drops it.
    void pop_timer_key(std::uint32_t index, std::uint64_t seq);
    void queue_timer_key(std::uint32_t index, TimePoint at, std::uint64_t seq);
    /// Timer support: take an entry for `on_fire`, give back a cancelled
    /// one, arm one.
    [[nodiscard]] std::uint32_t acquire_timer(Callback on_fire);
    void release_timer(std::uint32_t index) noexcept;
    void free_timer(std::uint32_t index) noexcept;
    void arm_timer(std::uint32_t index, TimePoint t);
    /// Throws std::logic_error when called from a thread other than the one
    /// that constructed this simulator (single-owner affinity).
    void check_owner() const;

    /// The event queue is split in two. `heap_` is a min-heap of keys under
    /// `Later` (std::push_heap/pop_heap): earliest `at` first, scheduling
    /// order (`seq`) among equal times. `slots_` is an arena holding each
    /// queued callback and its category at a stable index, reused through
    /// `free_slot_`. A pop moves the callback out and frees its slot before
    /// running it, so the callback may schedule into that very slot.
    /// Destroying the simulator destroys every queued callback, which
    /// returns the pooled buffers that deliveries own.
    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::uint32_t free_slot_ = kNoSlot;
    /// The timer table. A deque, because push_back never moves existing
    /// entries: a firing callback may construct timers, growing the table,
    /// while its own entry's callback runs in place. Entries of destroyed
    /// timers are reused through `free_timer_`.
    std::deque<TimerEntry> timers_;
    std::uint32_t free_timer_ = kNoSlot;
    std::thread::id owner_ = std::this_thread::get_id();
    TimePoint now_ = TimePoint::origin();
    std::uint64_t next_seq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t queue_hwm_ = 0;
    std::array<std::uint64_t, kEventCategoryCount> category_counts_{};
};

/// A single re-armable, cancellable timer (QUIC PTO, idle timeout, delayed
/// ACK) with one callback fixed at construction. Its state lives in the
/// simulator's timer table, so arming allocates nothing, and it keeps at
/// most one key in the event queue: re-arming to a time at or after that key
/// only records the new expiry, and cancelling only disarms. The key, when
/// popped, requeues itself at the current expiry, so the timer fires at the
/// instant, and in the same-instant order, of its last arm. Every arm still
/// draws a sequence number (`scheduled()` counts it); every popped key,
/// including one that requeues or finds the timer cancelled, is a processed
/// "timer" event.
///
/// The callback may re-arm, cancel or destroy its own timer and construct
/// other timers. The simulator must outlive every Timer built on it.
class Timer {
public:
    using Callback = Simulator::Callback;

    Timer(Simulator& sim, Callback on_fire)
        : sim_{&sim}, index_{sim.acquire_timer(std::move(on_fire))} {}

    /// Destruction cancels: a queued key of this timer fires nothing.
    ~Timer() {
        cancel();
        sim_->release_timer(index_);
    }

    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Arms (or re-arms) the timer to fire at absolute time `t`.
    void set_at(TimePoint t) { sim_->arm_timer(index_, t); }

    /// Arms (or re-arms) the timer to fire after `d`.
    void set_after(Duration d) { set_at(sim_->now() + d); }

    /// Disarms the timer; its queued key, once popped, fires nothing.
    void cancel() noexcept { sim_->timers_[index_].armed = false; }

    [[nodiscard]] bool armed() const noexcept { return sim_->timers_[index_].armed; }
    /// Expiry of the currently armed firing; TimePoint::never() if disarmed.
    [[nodiscard]] TimePoint expiry() const noexcept {
        const Simulator::TimerEntry& entry = sim_->timers_[index_];
        return entry.armed ? entry.expiry : TimePoint::never();
    }

private:
    Simulator* sim_;
    std::uint32_t index_;
};

}  // namespace spinscope::netsim
