// spinscope/quic/stream.hpp
//
// Minimal stream machinery: an offset-based reassembly buffer for received
// STREAM/CRYPTO data (reordering- and duplicate-tolerant) and a send queue
// that hands out MTU-sized chunks.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

namespace spinscope::quic {

/// Reassembles a byte stream from (offset, data) chunks that may arrive out
/// of order or duplicated (retransmissions). Tracks the FIN offset and
/// reports completion once bytes [0, fin_offset) are contiguous.
class ReassemblyBuffer {
public:
    /// Inserts a chunk at `offset`. Overlaps are resolved byte-wise (later
    /// identical data overwrites — sender never changes content at an
    /// offset, so this is safe).
    void insert(std::uint64_t offset, std::span<const std::uint8_t> data);

    /// Marks the end of stream at `final_size` (offset just past the last
    /// byte). Called when a FIN-bearing frame arrives.
    void set_final_size(std::uint64_t final_size) noexcept;

    /// Number of contiguous bytes available from offset 0.
    [[nodiscard]] std::uint64_t contiguous_length() const noexcept;

    /// True once the FIN offset is known and all bytes up to it arrived.
    [[nodiscard]] bool complete() const noexcept;

    /// Returns the full stream content; only valid when complete().
    [[nodiscard]] std::vector<std::uint8_t> take();

    [[nodiscard]] bool has_final_size() const noexcept { return final_size_.has_value(); }

private:
    // Byte buffer grown on demand plus a "received" run-length map
    // (start -> end, half-open), merged on insert.
    std::vector<std::uint8_t> bytes_;
    std::map<std::uint64_t, std::uint64_t> runs_;
    std::optional<std::uint64_t> final_size_;
};

/// Send side of one stream: a byte queue consumed in MTU-sized chunks. It
/// keeps every byte ever appended, so a lost chunk is resent by re-reading
/// its range rather than from a copy.
class SendQueue {
public:
    /// Appends data (copied into the queue — the span need only live for
    /// the call); `fin` marks the end of the stream (no more appends).
    void append(std::span<const std::uint8_t> data, bool fin);

    [[nodiscard]] bool has_pending() const noexcept {
        return !retransmit_.empty() || next_offset_ < buffer_.size() || (fin_ && !fin_sent_);
    }

    /// One STREAM frame's worth of the queue. `data` views the queue and is
    /// valid until the next append().
    struct Chunk {
        std::uint64_t offset = 0;
        std::span<const std::uint8_t> data;
        bool fin = false;
    };

    /// Pops up to `max_bytes` of the next unsent data (possibly an empty
    /// FIN-only chunk). Returns nullopt when nothing is pending.
    [[nodiscard]] std::optional<Chunk> next_chunk(std::size_t max_bytes);

    /// Re-queues the range [offset, offset + length) (and the FIN, if it was
    /// sent with it) for retransmission (loss recovery); idempotent with
    /// respect to receiver state thanks to offset-based reassembly.
    void requeue(std::uint64_t offset, std::uint64_t length, bool fin);

    /// The queued bytes [offset, offset + length), as handed out before.
    [[nodiscard]] std::span<const std::uint8_t> sent_bytes(std::uint64_t offset,
                                                           std::uint64_t length) const noexcept;

private:
    struct Lost {
        std::uint64_t offset = 0;
        std::uint64_t length = 0;
        bool fin = false;
    };

    std::vector<std::uint8_t> buffer_;
    std::uint64_t next_offset_ = 0;
    bool fin_ = false;
    bool fin_sent_ = false;
    std::vector<Lost> retransmit_;
};

}  // namespace spinscope::quic
