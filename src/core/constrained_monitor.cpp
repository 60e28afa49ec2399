#include "core/constrained_monitor.hpp"

#include <stdexcept>

#include "quic/packet.hpp"
#include "util/rng.hpp"

namespace spinscope::core {
namespace {

/// SplitMix64 finalizer as a stateless hash: the slot index must be a pure
/// function of the flow key (a P4 target computes it with a CRC unit; any
/// well-mixing hash models that).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    std::uint64_t state = x;
    return util::splitmix64_next(state);
}

constexpr char kHexDigits[] = "0123456789abcdef";

[[nodiscard]] int hex_nibble(char c) noexcept {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

}  // namespace

void ConstrainedConfig::validate() const {
    if (log2_slots < 1 || log2_slots > 24) {
        throw std::invalid_argument(
            "ConstrainedConfig: log2_slots must be in [1, 24]");
    }
    if (dcid_length < 1 || dcid_length > 20) {
        throw std::invalid_argument(
            "ConstrainedConfig: dcid_length must be in [1, 20]");
    }
    if (sample_every < 1) {
        throw std::invalid_argument("ConstrainedConfig: sample_every must be >= 1");
    }
    if (ewma_shift > 15) {
        throw std::invalid_argument("ConstrainedConfig: ewma_shift must be <= 15");
    }
    if (eviction == EvictionPolicy::lru && lru_idle_packets < 1) {
        throw std::invalid_argument("ConstrainedConfig: lru_idle_packets must be >= 1");
    }
}

ConstrainedMonitor::ConstrainedMonitor(ConstrainedConfig config)
    : config_{config},
      key_len_{config.dcid_length < 8 ? config.dcid_length : 8},
      index_mask_{(std::uint64_t{1} << config.log2_slots) - 1} {
    config_.validate();
    slots_.resize(std::size_t{1} << config_.log2_slots);
}

std::uint64_t ConstrainedMonitor::pack_key(const std::uint8_t* dcid,
                                           std::size_t key_len) noexcept {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < key_len; ++i) key = (key << 8) | dcid[i];
    return key;
}

std::size_t ConstrainedMonitor::slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key) & index_mask_);
}

void ConstrainedMonitor::reset_slot(Slot& slot, std::uint64_t key) noexcept {
    slot = Slot{};
    slot.key = key;
    slot.valid = true;
}

void ConstrainedMonitor::track(Slot& slot, util::TimePoint at, bool spin) noexcept {
    ++slot.packets;
    const auto interval_ns = slot.edges.on_packet(at.count_nanos(), spin);
    if (!interval_ns) return;
    if (*interval_ns < config_.min_plausible_rtt.count_nanos()) {
        ++slot.rejected;
        return;
    }
    const std::int64_t sample_us = *interval_ns / 1'000;
    if (!slot.have_srtt) {
        slot.srtt_scaled_us = sample_us << config_.ewma_shift;
        slot.have_srtt = true;
    } else {
        // srtt += (sample - srtt) / 2^shift, carried as srtt << shift so the
        // division is a shift and no precision is lost to a narrow quotient.
        slot.srtt_scaled_us += sample_us - (slot.srtt_scaled_us >> config_.ewma_shift);
    }
    ++slot.samples;
}

void ConstrainedMonitor::on_datagram(util::TimePoint at, bytes::ConstByteSpan datagram) {
    ++counters_.offered;
    const auto view = quic::peek_short_header(datagram);
    if (!view || datagram.size() < view->dcid_offset + config_.dcid_length) {
        ++counters_.non_flow;
        return;
    }
    // 1-in-N sampling happens before any table access — its whole point is
    // to cut the register-file bandwidth, so skipped packets touch nothing.
    const bool take = (tick_ % config_.sample_every) == 0;
    ++tick_;
    if (!take) {
        ++counters_.sampled_out;
        return;
    }

    const std::uint64_t key = pack_key(datagram.data() + view->dcid_offset, key_len_);
    Slot& slot = slots_[slot_of(key)];
    if (!slot.valid) {
        reset_slot(slot, key);
        ++counters_.active_slots;
    } else if (slot.key != key) {
        ++counters_.collisions;
        bool evict = false;
        switch (config_.eviction) {
            case EvictionPolicy::none:
                break;
            case EvictionPolicy::lru:
                evict = tick_ - slot.generation > config_.lru_idle_packets;
                break;
            case EvictionPolicy::random:
                // A deterministic stand-in for the hardware LFSR: one hash
                // bit of (key, packet clock) — 1/2 replacement probability,
                // reproducible for a given input stream.
                evict = (mix64(key ^ (tick_ * 0x9e3779b97f4a7c15ULL)) & 1) != 0;
                break;
        }
        if (!evict) {
            ++counters_.untracked;
            return;
        }
        ++counters_.evictions;
        reset_slot(slot, key);
    }
    slot.generation = tick_;
    ++counters_.tracked;
    track(slot, at, view->spin);
}

ConstrainedFlowStats ConstrainedMonitor::stats_of(const Slot& slot,
                                                  unsigned ewma_shift) noexcept {
    return {slot.edges, slot.packets, slot.samples, slot.rejected,
            slot.have_srtt ? (slot.srtt_scaled_us >> ewma_shift) : 0, slot.have_srtt};
}

std::vector<std::pair<std::string, ConstrainedFlowStats>> ConstrainedMonitor::flows()
    const {
    std::vector<std::pair<std::string, ConstrainedFlowStats>> out;
    out.reserve(static_cast<std::size_t>(counters_.active_slots));
    for (const Slot& slot : slots_) {
        if (!slot.valid) continue;
        std::string hex;
        hex.reserve(key_len_ * 2);
        for (std::size_t i = 0; i < key_len_; ++i) {
            const auto byte = static_cast<std::uint8_t>(
                slot.key >> (8 * (key_len_ - 1 - i)));
            hex.push_back(kHexDigits[byte >> 4]);
            hex.push_back(kHexDigits[byte & 0xf]);
        }
        out.emplace_back(std::move(hex), stats_of(slot, config_.ewma_shift));
    }
    return out;
}

std::optional<ConstrainedFlowStats> ConstrainedMonitor::find_key(std::uint64_t key) const {
    const Slot& slot = slots_[slot_of(key)];
    if (!slot.valid || slot.key != key) return std::nullopt;
    return stats_of(slot, config_.ewma_shift);
}

std::optional<ConstrainedFlowStats> ConstrainedMonitor::find(const std::string& hex) const {
    if (hex.size() != key_len_ * 2) return std::nullopt;
    std::uint64_t key = 0;
    for (const char c : hex) {
        const int nibble = hex_nibble(c);
        if (nibble < 0) return std::nullopt;
        key = (key << 4) | static_cast<std::uint64_t>(nibble);
    }
    return find_key(key);
}

}  // namespace spinscope::core
