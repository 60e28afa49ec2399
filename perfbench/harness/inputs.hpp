// perfbench/harness/inputs.hpp
//
// Everything the benchmark feeds spinscope, as a pure function of --seed:
// the Table 1 IPv4 universe for the sweeps, and the synthetic short-header
// flows for the on-path observer. The program under test receives only these
// generated inputs.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scanner/campaign.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "web/population.hpp"

namespace perfbench {

// --- sweeps --------------------------------------------------------------------

/// 1:5000 of the paper's CW 20/2023 universe: 43,466 domains (~4,400 QUIC),
/// about one second per in-process sweep, so a run holds many sweeps and
/// seeds differ in QUIC share by only a few percent.
inline constexpr double kUniverseScale = 5000.0;
/// CW 20/2023, counted from CW 15/2022 (Table 1).
inline constexpr int kTableOneWeek = 57;
/// Worker threads or processes per sweep.
inline constexpr unsigned kWorkers = 2;

[[nodiscard]] inline spinscope::web::PopulationConfig universe_config(std::uint64_t seed) {
    spinscope::web::PopulationConfig config;
    config.scale = kUniverseScale;
    config.seed = seed;
    return config;
}

/// Scan knobs of both sweep workloads; `journal_dir` is empty in-process.
[[nodiscard]] inline spinscope::scanner::ScanOptions sweep_options(std::uint64_t seed,
                                                                   std::string journal_dir) {
    spinscope::scanner::ScanOptions options;
    options.ipv6 = false;
    options.week = kTableOneWeek;
    options.seed = spinscope::util::derive_stream_seed(seed, 0x5ca7);
    options.threads = kWorkers;
    options.journal_dir = std::move(journal_dir);
    return options;
}

/// 64-bit FNV-1a, the digest of every output check.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view data,
                                         std::uint64_t state = 0xcbf29ce484222325ULL) noexcept {
    for (const char c : data) {
        state ^= static_cast<unsigned char>(c);
        state *= 0x100000001b3ULL;
    }
    return state;
}

[[nodiscard]] inline std::string hex64(std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
        v >>= 4;
    }
    return out;
}

/// Digest of a universe: every field of every domain, in id order.
[[nodiscard]] inline std::uint64_t universe_digest(const spinscope::web::PopulationModel& model) {
    std::uint64_t state = fnv1a({});
    const spinscope::web::DomainBlock block = model.materialize(0, model.domain_count());
    for (const spinscope::web::Domain& d : block.domains) {
        const std::uint64_t fields[] = {d.id,        d.org,          d.rtt_tenths, d.ipv4_host,
                                        d.segment_raw, d.resolves,   d.quic,       d.ipv6_host,
                                        d.on_toplist, d.has_ipv6,    d.redirects};
        state = fnv1a({reinterpret_cast<const char*>(fields), sizeof fields}, state);
    }
    return state;
}

// --- on-path observer -------------------------------------------------------------
//
// Each flow's packet stream is a pure function of (seed, flow index): RTT is
// lognormal around a 50 ms median, packets arrive every RTT/4 with ±12.5 %
// jitter and the spin flips every 4 packets, so the edge-to-edge interval is
// one jittered RTT. Flows run in cohorts of kCohortFlows concurrent flows;
// within a cohort every round visits each member once in a permuted order.

inline constexpr std::uint64_t kWireFlows = std::uint64_t{1} << 20;
inline constexpr std::uint64_t kCohortFlows = 8192;
inline constexpr std::uint64_t kPacketsPerFlow = 20;
inline constexpr unsigned kMonitorLog2Slots = 16;
inline constexpr unsigned kFlipEvery = 4;

[[nodiscard]] inline std::uint64_t wire_seed(std::uint64_t seed) noexcept {
    return spinscope::util::derive_stream_seed(seed, 0x5717);
}

class FlowStream {
public:
    void init(std::uint64_t seed, std::uint64_t index) {
        rng_ = spinscope::util::Rng{spinscope::util::derive_stream_seed(seed, index)};
        const double rtt_ms =
            std::clamp(spinscope::util::sample_lognormal(rng_, std::log(50.0), 0.8), 2.0, 800.0);
        gap_ns_ = static_cast<std::int64_t>(rtt_ms * 1e6 / kFlipEvery);
        // Staggered starts across one second, so table pressure ramps in.
        time_ns_ = static_cast<std::int64_t>(rng_.uniform_u64(1'000'000'000ULL));
        spin_ = rng_.coin();
        until_flip_ = kFlipEvery;
    }

    /// The flow's next packet: observation time and spin value.
    [[nodiscard]] std::pair<std::int64_t, bool> next() {
        const std::pair<std::int64_t, bool> out{time_ns_, spin_};
        time_ns_ += static_cast<std::int64_t>(static_cast<double>(gap_ns_) *
                                              rng_.uniform_double(0.875, 1.125));
        if (--until_flip_ == 0) {
            spin_ = !spin_;
            until_flip_ = kFlipEvery;
        }
        return out;
    }

private:
    spinscope::util::Rng rng_;
    std::int64_t time_ns_ = 0;
    std::int64_t gap_ns_ = 0;
    bool spin_ = false;
    unsigned until_flip_ = kFlipEvery;
};

/// The 8-byte DCID of flow `index`: distinct for every flow (the map is a
/// bijection of the index) and different for every seed, so the slot
/// collisions the monitor sees change with the seed too.
[[nodiscard]] constexpr std::uint64_t flow_key(std::uint64_t seed, std::uint64_t index) noexcept {
    return spinscope::util::derive_stream_seed(~seed, index);
}

/// One generated short-header datagram: 1 header byte, an 8-byte DCID and
/// one packet-number byte.
struct WirePacket {
    std::int64_t time_ns = 0;
    std::uint8_t bytes[10] = {};
};

/// Index of the member of a cohort visited at slot `j` of round `round`.
[[nodiscard]] constexpr std::uint64_t cohort_member(std::uint64_t j, std::uint64_t round) noexcept {
    return (j * 0x9e3779b97f4a7c15ULL + round * 0x85ebca77c2b2ae63ULL) & (kCohortFlows - 1);
}

/// Starts cohort `cohort`: one stream per member flow.
inline void start_cohort(std::uint64_t seed, std::uint64_t cohort, std::vector<FlowStream>& streams) {
    streams.resize(kCohortFlows);
    for (std::uint64_t m = 0; m < kCohortFlows; ++m) streams[m].init(seed, cohort * kCohortFlows + m);
}

/// Fills `out` with round `round` of a started cohort: one packet from every
/// member, in wire order. Rounds are generated one at a time so the packet
/// buffer stays small beside the monitor's table.
inline void generate_round(std::uint64_t seed, std::uint64_t cohort, std::uint64_t round,
                           std::vector<FlowStream>& streams, std::vector<WirePacket>& out) {
    const std::uint64_t base = cohort * kCohortFlows;
    out.resize(kCohortFlows);
    for (std::uint64_t j = 0; j < kCohortFlows; ++j) {
        const std::uint64_t m = cohort_member(j, round);
        const auto [t, spin] = streams[m].next();
        const std::uint64_t key = flow_key(seed, base + m);
        WirePacket& p = out[j];
        p.time_ns = t;
        p.bytes[0] = static_cast<std::uint8_t>(0x40 | (spin ? 0x20 : 0x00));
        for (unsigned b = 0; b < 8; ++b) {
            p.bytes[1 + b] = static_cast<std::uint8_t>(key >> (8 * (7 - b)));
        }
    }
}

/// Per-flow ground truth: the float-EWMA spin RTT an unconstrained observer
/// computes from the same packet sequence.
struct FlowTruth {
    double srtt_ms = 0.0;
    bool candidate = false;  ///< both spin values seen and an RTT sample taken
};

[[nodiscard]] inline std::vector<FlowTruth> reference_pass(std::uint64_t seed) {
    std::vector<FlowTruth> truth(kWireFlows);
    FlowStream stream;
    for (std::uint64_t i = 0; i < kWireFlows; ++i) {
        stream.init(seed, i);
        bool have_value = false, value = false, saw_zero = false, saw_one = false;
        bool have_srtt = false;
        std::int64_t last_edge_ns = -1;
        double srtt_ms = 0.0;
        for (std::uint64_t p = 0; p < kPacketsPerFlow; ++p) {
            const auto [t, spin] = stream.next();
            (spin ? saw_one : saw_zero) = true;
            if (!have_value || spin == value) {
                have_value = true;
                value = spin;
                continue;
            }
            value = spin;
            if (last_edge_ns >= 0) {
                const double sample_ms = static_cast<double>(t - last_edge_ns) / 1e6;
                srtt_ms = have_srtt ? srtt_ms + (sample_ms - srtt_ms) / 8.0 : sample_ms;
                have_srtt = true;
            }
            last_edge_ns = t;
        }
        truth[i] = {srtt_ms, saw_zero && saw_one && have_srtt};
    }
    return truth;
}

/// Digest of the first `flows` flows' packet streams (self-test helper).
[[nodiscard]] inline std::uint64_t wire_digest(std::uint64_t seed, std::uint64_t flows) {
    std::uint64_t state = fnv1a({});
    FlowStream stream;
    for (std::uint64_t i = 0; i < flows; ++i) {
        stream.init(seed, i);
        for (std::uint64_t p = 0; p < kPacketsPerFlow; ++p) {
            const auto [t, spin] = stream.next();
            const std::int64_t fields[] = {t, spin ? 1 : 0};
            state = fnv1a({reinterpret_cast<const char*>(fields), sizeof fields}, state);
        }
    }
    return state;
}

}  // namespace perfbench
