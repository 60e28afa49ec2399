#include "bytes/bytes.hpp"

#include <algorithm>

namespace spinscope::bytes {

namespace {

bool smaller_capacity(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b) {
    return a.capacity() < b.capacity();
}

}  // namespace

Buffer Buffer::clone() const {
    if (!pooled_) return copy_of(span());
    Buffer copy = Recycler::local().acquire(size());
    copy.append(span());
    return copy;
}

Recycler& Recycler::local() noexcept {
    thread_local Recycler recycler;
    return recycler;
}

Buffer Recycler::acquire(std::size_t size_hint) {
    ++stats_.acquires;
    Buffer buffer;
    if (!free_.empty()) {
        ++stats_.hits;
        buffer.storage_ = std::move(free_.back());
        free_.pop_back();
        buffer.storage_.clear();
    } else {
        ++stats_.misses;
    }
    if (size_hint > 0) buffer.storage_.reserve(size_hint);
    buffer.pooled_ = true;
    stats_.outstanding_hwm = std::max(stats_.outstanding_hwm, ++stats_.outstanding);
    return buffer;
}

void Recycler::recycle(std::vector<std::uint8_t>&& storage) noexcept {
    --stats_.outstanding;
    if (free_.size() >= kMaxFree) {
        ++stats_.trimmed;
        return;  // storage freed by the caller's moved-from destructor
    }
    ++stats_.recycled;
    free_.push_back(std::move(storage));
}

void Recycler::reserve_stream(std::vector<std::uint8_t>& bytes, std::uint64_t size) {
    if (size <= bytes.capacity() || size < kStreamMinBytes) return;
    auto& largest =
        *std::max_element(stream_spares_.begin(), stream_spares_.end(), smaller_capacity);
    if (largest.capacity() < size) return;
    largest.assign(bytes.begin(), bytes.end());
    bytes.swap(largest);
    // The outgrown storage takes the spare's place if it is worth keeping.
    if (largest.capacity() < kStreamMinBytes) {
        largest = {};
    } else {
        largest.clear();
    }
}

void Recycler::donate_stream(std::vector<std::uint8_t>& bytes) noexcept {
    if (bytes.capacity() >= kStreamMinBytes) {
        auto& smallest =
            *std::min_element(stream_spares_.begin(), stream_spares_.end(), smaller_capacity);
        if (smallest.capacity() < bytes.capacity()) {
            bytes.clear();
            smallest.swap(bytes);
        }
    }
    bytes = {};
}

Recycler::Stats Recycler::mark() noexcept {
    stats_.outstanding_hwm = stats_.outstanding;
    return stats_;
}

void Recycler::publish_since(const Stats& since, telemetry::MetricsRegistry& registry) const {
    using telemetry::CounterId;
    registry.counter(CounterId::bytes_pool_acquires).add(stats_.acquires - since.acquires);
    registry.counter(CounterId::bytes_pool_hits).add(stats_.hits - since.hits);
    registry.counter(CounterId::bytes_pool_misses).add(stats_.misses - since.misses);
    registry.counter(CounterId::bytes_pool_recycled).add(stats_.recycled - since.recycled);
    registry.counter(CounterId::bytes_pool_trimmed).add(stats_.trimmed - since.trimmed);
    registry.gauge(telemetry::GaugeId::bytes_pool_outstanding_hwm)
        .set_max(static_cast<double>(stats_.outstanding_hwm - since.outstanding));
}

}  // namespace spinscope::bytes
