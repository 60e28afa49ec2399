#include "bytes/bytes.hpp"

namespace spinscope::bytes {

Buffer Buffer::clone() const {
    if (pool_ == nullptr) return copy_of(span());
    Buffer copy = pool_->acquire(size());
    copy.append(span());
    return copy;
}

std::vector<std::uint8_t> Buffer::detach() && {
    if (pool_ != nullptr) {
        pool_->forget();
        pool_ = nullptr;
    }
    return std::move(storage_);
}

Buffer BufferPool::acquire(std::size_t size_hint) {
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
    buffer.pool_ = this;
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.outstanding_hwm) {
        stats_.outstanding_hwm = stats_.outstanding;
    }
    return buffer;
}

void BufferPool::recycle(std::vector<std::uint8_t>&& storage) noexcept {
    --stats_.outstanding;
    if (free_.size() >= max_free_) {
        ++stats_.trimmed;
        return;  // storage freed by the caller's moved-from destructor
    }
    ++stats_.recycled;
    free_.push_back(std::move(storage));
}

void BufferPool::forget() noexcept { --stats_.outstanding; }

void BufferPool::publish_metrics(telemetry::MetricsRegistry& registry,
                                 std::string_view prefix) const {
    const auto counter = [&](std::string_view suffix) -> telemetry::Counter& {
        return registry.counter(telemetry::MetricName{prefix, suffix});
    };
    counter(".acquires").add(stats_.acquires);
    counter(".hits").add(stats_.hits);
    counter(".misses").add(stats_.misses);
    counter(".recycled").add(stats_.recycled);
    counter(".trimmed").add(stats_.trimmed);
    registry.gauge(telemetry::MetricName{prefix, ".outstanding_hwm"})
        .set_max(static_cast<double>(stats_.outstanding_hwm));
}

}  // namespace spinscope::bytes
