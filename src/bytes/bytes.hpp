// spinscope/bytes/bytes.hpp
//
// Recycled byte storage for the packet hot path.
//
// Buffer is a move-only byte container. A datagram's storage is acquired
// from the calling thread's Recycler at encode time, moved (never copied)
// through the simulator's event queue, exposed to passive taps as a
// ConstByteSpan view, and handed back to a free list when the delivery
// event destroys it, so a campaign's steady state allocates nothing per
// packet. The same Recycler keeps the large stream buffers of quic's
// SendQueue and ReassemblyBuffer between attempts.
//
// Thread affinity: a Recycler belongs to one thread and is unsynchronized.
// A Buffer keeps only a pooled flag: when it is released, its storage goes
// to the releasing thread's Recycler (DESIGN.md §10).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace spinscope::bytes {

/// Read-only view of raw bytes (what taps and decoders consume).
using ConstByteSpan = std::span<const std::uint8_t>;
/// Mutable view of raw bytes.
using ByteSpan = std::span<std::uint8_t>;

/// Move-only byte buffer whose storage may come from a Recycler.
///
/// API mirrors the std::vector subset the packet path uses, so a Buffer
/// drops in where netsim::Datagram used to be a vector. Destruction (or
/// assignment-over) gives pooled storage to the releasing thread's
/// Recycler; unpooled buffers simply free.
class Buffer {
public:
    Buffer() noexcept = default;

    /// Unpooled buffer of `n` bytes, each set to `fill` (vector-compatible
    /// shape for tests and cold paths).
    explicit Buffer(std::size_t n, std::uint8_t fill = 0) : storage_(n, fill) {}

    /// Adopts an existing vector's storage (no copy).
    explicit Buffer(std::vector<std::uint8_t> storage) noexcept
        : storage_{std::move(storage)} {}

    /// Unpooled deep copy of `data`.
    [[nodiscard]] static Buffer copy_of(ConstByteSpan data) {
        return Buffer{std::vector<std::uint8_t>(data.begin(), data.end())};
    }

    ~Buffer() { release(); }

    Buffer(Buffer&& other) noexcept
        : storage_{std::move(other.storage_)}, pooled_{std::exchange(other.pooled_, false)} {
        other.storage_.clear();
    }

    Buffer& operator=(Buffer&& other) noexcept {
        if (this != &other) {
            release();
            storage_ = std::move(other.storage_);
            other.storage_.clear();
            pooled_ = std::exchange(other.pooled_, false);
        }
        return *this;
    }

    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

    [[nodiscard]] const std::uint8_t* data() const noexcept { return storage_.data(); }
    [[nodiscard]] std::uint8_t* data() noexcept { return storage_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
    [[nodiscard]] bool empty() const noexcept { return storage_.empty(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return storage_.capacity(); }

    [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept { return storage_[i]; }
    [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept { return storage_[i]; }

    [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
    [[nodiscard]] const std::uint8_t* end() const noexcept { return data() + size(); }
    [[nodiscard]] std::uint8_t* begin() noexcept { return data(); }
    [[nodiscard]] std::uint8_t* end() noexcept { return data() + size(); }

    void clear() noexcept { storage_.clear(); }
    void resize(std::size_t n, std::uint8_t fill = 0) { storage_.resize(n, fill); }
    void reserve(std::size_t n) { storage_.reserve(n); }
    void push_back(std::uint8_t b) { storage_.push_back(b); }
    void append(ConstByteSpan data) {
        storage_.insert(storage_.end(), data.begin(), data.end());
    }

    [[nodiscard]] ConstByteSpan span() const noexcept { return {storage_}; }
    [[nodiscard]] ByteSpan writable_span() noexcept { return {storage_}; }
    operator ConstByteSpan() const noexcept { return span(); }  // NOLINT

    /// Deep copy, pooled from the calling thread's Recycler when this
    /// buffer is pooled — how the fault injector duplicates datagrams.
    [[nodiscard]] Buffer clone() const;

    /// True when the storage returns to a Recycler on release.
    [[nodiscard]] bool pooled() const noexcept { return pooled_; }

private:
    friend class Recycler;
    friend class ByteWriter;

    void release() noexcept;

    std::vector<std::uint8_t> storage_;
    bool pooled_ = false;
};

/// The calling thread's recycler of byte storage, with two free lists.
///
/// Datagrams: acquire() pops recycled storage when there is some (a hit)
/// and allocates otherwise (a miss); a released pooled Buffer pushes its
/// storage back unless kMaxFree are already free (then the storage is
/// freed: trimmed). Only capacity is recycled, never bytes: acquire()
/// always returns an empty-but-reserved buffer, so recycling cannot change
/// any output.
///
/// Streams: the storage of a SendQueue or ReassemblyBuffer that must grow
/// past kStreamMinBytes is taken from at most two spares, and given back
/// when the queue or buffer dies; the spares keep the largest storage, so
/// a scan worker reuses its previous attempts' response bodies and holds
/// at most two bodies' worth of idle storage.
class Recycler {
public:
    /// Datagram free-list capacity. A scan worker has up to 109 datagrams
    /// outstanding at once (bytes.pool.outstanding_hwm, bench_table1 at
    /// 1:20000); 128 takes them all back instead of freeing the excess.
    static constexpr std::size_t kMaxFree = 128;
    /// Stream storage below this size is not worth keeping between streams.
    static constexpr std::size_t kStreamMinBytes = 16 * 1024;

    /// The calling thread's recycler; it frees its storage when the thread
    /// ends.
    [[nodiscard]] static Recycler& local() noexcept;

    Recycler(const Recycler&) = delete;
    Recycler& operator=(const Recycler&) = delete;

    /// Returns an empty pooled Buffer with at least `size_hint` bytes
    /// reserved, reusing recycled storage when there is some.
    [[nodiscard]] Buffer acquire(std::size_t size_hint = 0);

    /// Makes room for `size` bytes in the stream storage `bytes`, keeping
    /// its content: when `size` is past kStreamMinBytes and the largest
    /// spare holds it, the spare is swapped in. Otherwise the vector grows
    /// as it would anyway.
    void reserve_stream(std::vector<std::uint8_t>& bytes, std::uint64_t size);

    /// Takes the storage of `bytes` as a spare when it is at least
    /// kStreamMinBytes and larger than the smallest spare (which it then
    /// replaces); either way `bytes` ends empty.
    void donate_stream(std::vector<std::uint8_t>& bytes) noexcept;

    /// Datagram counts over the thread's life.
    struct Stats {
        std::uint64_t acquires = 0;  ///< total acquire() calls
        std::uint64_t hits = 0;      ///< served from the free list
        std::uint64_t misses = 0;    ///< needed a fresh allocation
        std::uint64_t recycled = 0;  ///< storages returned to the free list
        std::uint64_t trimmed = 0;   ///< returns dropped because the list was full
        /// Acquired here less released here: a buffer released on another
        /// thread counts there, so one thread alone may read below zero.
        std::int64_t outstanding = 0;
        std::int64_t outstanding_hwm = 0;  ///< high-water mark since mark()
    };
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::size_t free_count() const noexcept { return free_.size(); }

    /// Starts a measured window (one chunk's scan): restarts the high-water
    /// mark and returns the stats to publish against. Windows do not nest.
    [[nodiscard]] Stats mark() noexcept;

    /// Adds the window's change since `since` (what mark() returned) into
    /// `registry` under `bytes.pool.*`: counters acquires / hits / misses /
    /// recycled / trimmed (additive across chunk-registry merges) and an
    /// outstanding_hwm gauge, the peak above the mark (max-merged). How
    /// many of them hit depends on what scanned before on the thread, so
    /// the catalog classes them MetricClass::chunk_geometry and
    /// telemetry::deterministic_csv drops them.
    void publish_since(const Stats& since, telemetry::MetricsRegistry& registry) const;

private:
    friend class Buffer;

    Recycler() = default;

    void recycle(std::vector<std::uint8_t>&& storage) noexcept;

    std::vector<std::vector<std::uint8_t>> free_;
    /// Stream spares; an empty vector is an empty place.
    std::array<std::vector<std::uint8_t>, 2> stream_spares_;
    Stats stats_;
};

inline void Buffer::release() noexcept {
    if (pooled_) {
        Recycler::local().recycle(std::move(storage_));
        pooled_ = false;
    }
}

}  // namespace spinscope::bytes
