// spinscope/netsim/simulator.hpp
//
// Discrete-event simulation core: a virtual clock and an ordered event queue.
//
// The simulator stands in for the real Internet of the paper's measurement
// campaign. All protocol endpoints, links and passive observers run on the
// same simulated clock, which gives the analysis pipeline exact ground truth
// for packet timing — the one thing a real vantage point can never have.

#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/function.hpp"
#include "util/time.hpp"

namespace spinscope::netsim {

using util::Duration;
using util::TimePoint;

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
    /// (the queue never runs backwards). `category` optionally tags the
    /// event for per-category accounting; it must be a string literal (or
    /// otherwise outlive the simulator) — categories are interned by pointer.
    void schedule_at(TimePoint t, Callback cb, const char* category = nullptr);

    /// Schedules `cb` after a relative delay (>= 0; negative is clamped).
    void schedule_after(Duration d, Callback cb, const char* category = nullptr);

    /// Runs events until the queue is empty.
    void run();

    /// Runs events with timestamp <= deadline; the clock ends at
    /// min(deadline, last event time). Returns true if the queue was drained.
    bool run_until(TimePoint deadline);

    /// Runs at most `max_events` further events (safety valve for tests).
    void run_steps(std::size_t max_events);

    [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
    [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

    // --- instrumentation ---------------------------------------------------
    /// Largest queue depth ever reached (after a push).
    [[nodiscard]] std::size_t queue_depth_high_water() const noexcept { return queue_hwm_; }
    /// Total events ever scheduled (processed + dropped-by-never-running).
    [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }
    /// Events processed per category tag, in first-seen order. Untagged
    /// events are not listed (processed() minus the sum gives them).
    [[nodiscard]] const std::vector<std::pair<const char*, std::uint64_t>>& category_counts()
        const noexcept {
        return category_counts_;
    }

    /// Adds this simulator's stats into `registry` under `<prefix>.*`:
    /// counters events_scheduled / events_processed / events.<category>, and
    /// a queue_depth_hwm gauge (max-merged, so per-attempt publishes keep
    /// the campaign-wide high-water mark).
    void publish_metrics(telemetry::MetricsRegistry& registry,
                         std::string_view prefix = "netsim.sim") const;

private:
    /// Heap entry: 24 bytes, so sifting never moves a callback.
    struct Key {
        TimePoint at;
        std::uint64_t seq;
        std::size_t slot;  ///< index into slots_
    };
    struct Later {
        bool operator()(const Key& a, const Key& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };
    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
    /// Where a queued event's callback lives until it runs. A free slot has
    /// an empty callback and links to the next free slot (intrusive free
    /// list, so recycling needs no second container).
    struct Slot {
        Callback cb;
        const char* category = nullptr;
        std::size_t next_free = kNoSlot;
    };

    void pop_and_run();
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
    std::size_t free_slot_ = kNoSlot;
    std::thread::id owner_ = std::this_thread::get_id();
    TimePoint now_ = TimePoint::origin();
    std::uint64_t next_seq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t queue_hwm_ = 0;
    /// Interned by pointer: a handful of distinct literals per process, so a
    /// linear scan beats any map.
    std::vector<std::pair<const char*, std::uint64_t>> category_counts_;
};

/// A single re-armable, cancellable timer (QUIC PTO, idle timeout, delayed
/// ACK). Re-arming or cancelling invalidates any previously scheduled firing
/// via a generation counter, so stale queue entries become no-ops. The state
/// is shared with pending queue entries, so destroying a Timer while a stale
/// firing is still queued is safe (the firing becomes a no-op).
class Timer {
public:
    using Callback = util::MoveFunction<void()>;

    explicit Timer(Simulator& sim) : sim_{&sim}, state_{std::make_shared<State>()} {}

    /// Destruction cancels: a pending firing becomes a no-op (the shared
    /// state outlives the Timer inside any still-queued event).
    ~Timer() { cancel(); }

    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Arms (or re-arms) the timer to fire `cb` at absolute time `t`.
    void set_at(TimePoint t, Callback cb);

    /// Arms (or re-arms) the timer to fire after `d`.
    void set_after(Duration d, Callback cb);

    /// Disarms the timer; a pending firing becomes a no-op.
    void cancel() noexcept;

    [[nodiscard]] bool armed() const noexcept { return state_->armed; }
    /// Expiry of the currently armed firing; TimePoint::never() if disarmed.
    [[nodiscard]] TimePoint expiry() const noexcept {
        return state_->armed ? state_->expiry : TimePoint::never();
    }

private:
    struct State {
        std::uint64_t generation = 0;
        bool armed = false;
        TimePoint expiry = TimePoint::never();
    };

    Simulator* sim_;
    std::shared_ptr<State> state_;
};

}  // namespace spinscope::netsim
