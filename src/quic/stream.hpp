// spinscope/quic/stream.hpp
//
// Minimal stream machinery: an offset-based reassembly buffer for received
// STREAM/CRYPTO data (reordering- and duplicate-tolerant) and a send queue
// that hands out MTU-sized chunks.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace spinscope::quic {

/// Reassembles a byte stream from (offset, data) chunks that may arrive out
/// of order or duplicated (retransmissions). Tracks the FIN offset and
/// reports completion once bytes [0, fin_offset) are contiguous.
///
/// In-order data extends the received prefix in place: one copy, no zero
/// fill and no per-insert allocation. Only data past a gap is recorded as a
/// separate run. Storage that grew past 16 KiB draws on, and returns to, the
/// calling thread's bytes::Recycler.
class ReassemblyBuffer {
public:
    ReassemblyBuffer() = default;
    ReassemblyBuffer(ReassemblyBuffer&&) noexcept = default;
    ReassemblyBuffer& operator=(ReassemblyBuffer&&) noexcept = default;
    ~ReassemblyBuffer() { release(); }

    /// Inserts a chunk at `offset`. Bytes already received are not written
    /// again: the sender never changes the content at an offset.
    void insert(std::uint64_t offset, std::span<const std::uint8_t> data);

    /// Marks the end of stream at `final_size` (offset just past the last
    /// byte). Called when a FIN-bearing frame arrives.
    void set_final_size(std::uint64_t final_size) noexcept;

    /// Number of contiguous bytes available from offset 0.
    [[nodiscard]] std::uint64_t contiguous_length() const noexcept { return contiguous_; }

    /// True once the FIN offset is known and all bytes up to it arrived.
    [[nodiscard]] bool complete() const noexcept;

    /// The full stream content; only valid when complete(). The view lives
    /// until the next insert() or release().
    [[nodiscard]] std::span<const std::uint8_t> contents() const noexcept;

    /// Drops every received byte and the final size, and hands the storage
    /// to the calling thread's bytes::Recycler.
    void release() noexcept;

    [[nodiscard]] bool has_final_size() const noexcept { return final_size_.has_value(); }

private:
    /// A received range [begin, end) past the contiguous prefix.
    struct Run {
        std::uint64_t begin = 0;
        std::uint64_t end = 0;
    };

    /// Received bytes, up to the furthest one; a gap reads as zeros until
    /// its data arrives.
    std::vector<std::uint8_t> bytes_;
    /// Bytes [0, contiguous_) have all arrived.
    std::uint64_t contiguous_ = 0;
    /// Runs received past the first gap: sorted, disjoint, not touching, and
    /// all beginning after contiguous_.
    std::vector<Run> runs_;
    std::optional<std::uint64_t> final_size_;
};

/// Send side of one stream: a byte queue consumed in MTU-sized chunks. It
/// keeps every byte ever appended, so a lost chunk is resent by re-reading
/// its range rather than from a copy. Storage that grew past 16 KiB draws on,
/// and returns to, the calling thread's bytes::Recycler.
class SendQueue {
public:
    SendQueue() = default;
    SendQueue(SendQueue&&) noexcept = default;
    SendQueue& operator=(SendQueue&&) noexcept = default;
    ~SendQueue();

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
