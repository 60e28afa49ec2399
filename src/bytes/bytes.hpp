// spinscope/bytes/bytes.hpp
//
// Pooled byte storage for the packet hot path.
//
// The scan pipeline used to copy every datagram as a fresh
// std::vector<std::uint8_t> at each layer boundary (encode -> link ->
// deliver -> decode). Buffer is a move-only byte container whose backing
// storage is recycled through a BufferPool free list, so a campaign's
// steady state allocates nothing per packet: a datagram's storage is
// acquired at encode time, moved (never copied) through the simulator's
// event queue, exposed to passive taps as a ConstByteSpan view, and
// returned to the pool when the delivery event destroys it.
//
// Thread affinity: BufferPool is deliberately unsynchronized and
// chunk-private, exactly like the sharded campaign's per-chunk
// MetricsRegistry (DESIGN.md §9-10). A pool must outlive every Buffer it
// issued; buffers hold a raw back-pointer for recycling.

#pragma once

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

class BufferPool;

/// Move-only byte buffer, optionally backed by a BufferPool.
///
/// API mirrors the std::vector subset the packet path uses, so a Buffer
/// drops in where netsim::Datagram used to be a vector. Destruction (or
/// assignment-over) recycles pooled storage back to the issuing pool;
/// unpooled buffers simply free. The issuing pool must outlive the buffer.
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
        : storage_{std::move(other.storage_)}, pool_{std::exchange(other.pool_, nullptr)} {
        other.storage_.clear();
    }

    Buffer& operator=(Buffer&& other) noexcept {
        if (this != &other) {
            release();
            storage_ = std::move(other.storage_);
            other.storage_.clear();
            pool_ = std::exchange(other.pool_, nullptr);
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

    /// Deep copy drawing storage from the same pool (or unpooled when this
    /// buffer is unpooled) — how the fault injector duplicates datagrams.
    [[nodiscard]] Buffer clone() const;

    /// Issuing pool, or nullptr for unpooled buffers.
    [[nodiscard]] BufferPool* pool() const noexcept { return pool_; }

private:
    friend class BufferPool;
    friend class ByteWriter;

    void release() noexcept;

    std::vector<std::uint8_t> storage_;
    BufferPool* pool_ = nullptr;
};

/// Recycling free list of byte-vector storage.
///
/// acquire() pops recycled storage when available (a hit) and allocates
/// otherwise (a miss); a returning Buffer pushes its storage back unless
/// the free list is at capacity (then the storage is freed — trimmed).
/// Single-threaded by design: the sharded campaign gives each work chunk
/// its own pool on the worker that runs it, mirroring the chunk-private
/// MetricsRegistry, so no synchronization is needed and determinism is
/// untouched (the pool only recycles capacity, never bytes: acquire()
/// always returns an empty-but-reserved buffer).
class BufferPool {
public:
    /// Free-list capacity. A campaign attempt keeps only a handful of
    /// datagrams in flight; 64 covers bursts without hoarding.
    static constexpr std::size_t kDefaultMaxFree = 64;

    explicit BufferPool(std::size_t max_free = kDefaultMaxFree) : max_free_{max_free} {}

    ~BufferPool() = default;
    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /// Returns an empty Buffer with at least `size_hint` bytes reserved,
    /// reusing recycled storage when available.
    [[nodiscard]] Buffer acquire(std::size_t size_hint = 0);

    struct Stats {
        std::uint64_t acquires = 0;  ///< total acquire() calls
        std::uint64_t hits = 0;      ///< served from the free list
        std::uint64_t misses = 0;    ///< needed a fresh allocation
        std::uint64_t recycled = 0;  ///< storages returned to the free list
        std::uint64_t trimmed = 0;   ///< returns dropped because the list was full
        std::uint64_t outstanding = 0;       ///< pooled buffers currently alive
        std::uint64_t outstanding_hwm = 0;   ///< high-water mark of outstanding
    };
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::size_t free_count() const noexcept { return free_.size(); }

    /// Adds this pool's stats into `registry` under `bytes.pool.*`: counters
    /// acquires / hits / misses / recycled / trimmed (additive across
    /// chunk-registry merges) and an outstanding_hwm gauge (max-merged).
    /// These depend on chunk geometry (ScanOptions::chunk_domains bounds the
    /// reuse horizon), so the catalog classes them
    /// MetricClass::chunk_geometry and telemetry::deterministic_csv drops them.
    void publish_metrics(telemetry::MetricsRegistry& registry) const;

private:
    friend class Buffer;

    void recycle(std::vector<std::uint8_t>&& storage) noexcept;

    std::vector<std::vector<std::uint8_t>> free_;
    std::size_t max_free_;
    Stats stats_;
};

inline void Buffer::release() noexcept {
    if (pool_ != nullptr) {
        pool_->recycle(std::move(storage_));
        pool_ = nullptr;
    }
}

}  // namespace spinscope::bytes
