// spinscope/core/constrained_monitor.hpp
//
// Hardware-faithful on-path spin observer (DESIGN.md §14) — spinscope's
// only multi-flow table.
//
// "Tracking the QUIC Spin Bit on Tofino" (PAPERS.md) shows what a real
// line-rate deployment has to work with: a fixed-size register file indexed
// by a hash of the flow key, so colliding flows fight over one slot; no
// floating point, so RTT smoothing is a shift-based integer EWMA; and, at
// high packet rates, 1-in-N packet sampling. This monitor models exactly
// that budget; each slot embeds the core::SpinEdgeState every spin
// measurement shares, plus an integer EWMA. Its reference is a perfect
// table, one core::SpinEdgeObserver per flow: the differential suite
// (tests/test_core_constrained_monitor.cpp) proves flow-for-flow
// equivalence with it when the constraints are lifted, and that every
// divergence under constraints is explained by the
// collision/eviction/sampling counters.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bytes/bytes.hpp"
#include "core/observer.hpp"
#include "netsim/link.hpp"
#include "util/time.hpp"

namespace spinscope::core {

/// What to do when a packet's flow hashes onto a slot owned by another flow.
/// A direct-mapped table has exactly one candidate slot, so the policy is a
/// keep-or-replace decision, the same one a P4 register allows.
enum class EvictionPolicy : std::uint8_t {
    none,    ///< drop-new: the resident flow keeps the slot; the packet is untracked
    lru,     ///< LRU-approx: evict residents idle for > lru_idle_packets (generation stamps)
    random,  ///< random replacement: evict with probability 1/2 (hash-derived, deterministic)
};

[[nodiscard]] constexpr const char* to_cstring(EvictionPolicy p) noexcept {
    switch (p) {
        case EvictionPolicy::none: return "none";
        case EvictionPolicy::lru: return "lru";
        case EvictionPolicy::random: return "random";
    }
    return "?";
}

/// The hardware budget. Defaults model the Tofino register file the paper's
/// follow-up work used: 2^16 slots, drop-new, 1/8 EWMA weight, no sampling.
struct ConstrainedConfig {
    /// Table size as a power of two (slot count = 1 << log2_slots).
    unsigned log2_slots = 16;
    /// Connection-ID length of the monitored deployment; the flow key is the
    /// first min(8, dcid_length) bytes of the DCID (a register key is one
    /// machine word — longer CIDs are truncated, exactly as hardware would).
    std::size_t dcid_length = 8;
    EvictionPolicy eviction = EvictionPolicy::none;
    /// Process every Nth short-header packet (1 = no sampling). The skipped
    /// packets are counted in sampled_out, never in any flow.
    std::uint32_t sample_every = 1;
    /// EWMA weight 1/2^ewma_shift (3 is RFC 9002's 1/8, the weight of
    /// SpinEdgeObserver's float EWMA).
    unsigned ewma_shift = 3;
    /// Static plausibility floor: edge-to-edge intervals below it are
    /// rejected (the int64 ns compare SpinEdgeObserver makes too).
    util::Duration min_plausible_rtt = util::Duration::zero();
    /// EvictionPolicy::lru: a resident is evictable once its slot sat
    /// untouched for this many processed packets (generation-stamp distance).
    std::uint64_t lru_idle_packets = 1024;

    /// Throws std::invalid_argument on a nonsensical budget; called by the
    /// monitor's constructor.
    void validate() const;
};

/// Snapshot of one flow slot: its edge state plus the slot's counters,
/// computed at the snapshot boundary (the only place integer microseconds
/// become milliseconds).
struct ConstrainedFlowStats : SpinEdgeState {
    std::uint64_t packets = 0;
    std::uint32_t samples = 0;           ///< accepted RTT samples
    std::uint32_t rejected_samples = 0;  ///< rejected by min_plausible_rtt
    /// Integer smoothed spin RTT in microseconds; valid when has_estimate.
    std::int64_t srtt_us = 0;
    bool has_estimate = false;

    [[nodiscard]] double srtt_ms() const noexcept {
        return has_estimate ? static_cast<double>(srtt_us) / 1000.0 : 0.0;
    }
};

/// Monitor-level counters. The accounting identities the property suite
/// pins (every offered datagram lands in exactly one bucket):
///   offered   == non_flow + sampled_out + tracked + untracked
///   collisions == untracked + evictions
struct ConstrainedTableCounters {
    std::uint64_t offered = 0;      ///< datagrams seen by on_datagram
    std::uint64_t non_flow = 0;     ///< long-header / malformed / truncated
    std::uint64_t sampled_out = 0;  ///< skipped by 1-in-N sampling
    std::uint64_t tracked = 0;      ///< landed in a slot (hit or insert)
    std::uint64_t untracked = 0;    ///< collision, resident kept the slot
    std::uint64_t collisions = 0;   ///< slot owned by a different flow
    std::uint64_t evictions = 0;    ///< collisions resolved by replacement
    std::uint64_t active_slots = 0; ///< slots currently holding a flow
};

/// Passive multi-flow spin monitor under a fixed hardware budget. Datapath
/// arithmetic is integer-only: timestamps are int64 nanoseconds, the EWMA is
/// shift-based over microseconds, and the only doubles appear in snapshot
/// accessors.
class ConstrainedMonitor {
public:
    /// Throws std::invalid_argument when `config` fails validation.
    explicit ConstrainedMonitor(ConstrainedConfig config = {});

    /// Processes one observed datagram (borrowed view; nothing is copied).
    void on_datagram(util::TimePoint at, bytes::ConstByteSpan datagram);

    /// Adapter usable directly as a netsim::Link tap.
    [[nodiscard]] netsim::Link::Tap tap() {
        return [this](util::TimePoint at, bytes::ConstByteSpan dg) { on_datagram(at, dg); };
    }

    [[nodiscard]] const ConstrainedConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }
    [[nodiscard]] std::size_t flow_count() const noexcept {
        return static_cast<std::size_t>(counters_.active_slots);
    }
    [[nodiscard]] const ConstrainedTableCounters& counters() const noexcept {
        return counters_;
    }

    /// Snapshot of every resident flow in slot-index order (deterministic),
    /// keyed by the hex flow key: the DCID prefix in lowercase hex.
    [[nodiscard]] std::vector<std::pair<std::string, ConstrainedFlowStats>> flows() const;

    /// Stats for one flow by raw key; nullopt when the flow is not resident
    /// (never was, or was evicted).
    [[nodiscard]] std::optional<ConstrainedFlowStats> find_key(std::uint64_t key) const;

    /// Stats by hex flow key (snapshot-boundary convenience; the datapath
    /// never touches strings).
    [[nodiscard]] std::optional<ConstrainedFlowStats> find(const std::string& hex) const;

    /// The slot index a raw key hashes to (tests craft collisions with it).
    [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept;

    /// Packs the first min(8, dcid_length) DCID bytes into a raw key,
    /// big-endian so the hex rendering equals the DCID prefix hex.
    [[nodiscard]] static std::uint64_t pack_key(const std::uint8_t* dcid,
                                                std::size_t key_len) noexcept;

private:
    /// One register-file entry. POD, fixed width — the layout a P4 target
    /// could hold in per-stage registers (DESIGN.md §14 discusses widths).
    struct Slot {
        std::uint64_t key = 0;
        std::int64_t srtt_scaled_us = 0;    ///< srtt(µs) << ewma_shift
        std::uint64_t generation = 0;       ///< last-touch stamp (LRU-approx)
        std::uint64_t packets = 0;
        SpinEdgeState edges;
        std::uint32_t samples = 0;
        std::uint32_t rejected = 0;
        bool valid = false;
        bool have_srtt = false;
    };
    static_assert(sizeof(Slot) == 64, "a slot is one 64-byte cache line");

    void reset_slot(Slot& slot, std::uint64_t key) noexcept;
    void track(Slot& slot, util::TimePoint at, bool spin) noexcept;
    [[nodiscard]] static ConstrainedFlowStats stats_of(const Slot& slot,
                                                       unsigned ewma_shift) noexcept;

    ConstrainedConfig config_;
    std::size_t key_len_;
    std::uint64_t index_mask_;
    std::vector<Slot> slots_;
    ConstrainedTableCounters counters_;
    /// Processed-packet clock: drives sampling, generation stamps and the
    /// random-replacement bit. Pure function of the input stream.
    std::uint64_t tick_ = 0;
};

}  // namespace spinscope::core
