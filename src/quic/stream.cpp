#include "quic/stream.hpp"

#include <algorithm>
#include <cassert>

namespace spinscope::quic {

void ReassemblyBuffer::insert(std::uint64_t offset, std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    const std::uint64_t end = offset + data.size();
    if (bytes_.size() < end) bytes_.resize(end);
    std::copy(data.begin(), data.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(offset));

    // Merge [offset, end) into the run map.
    std::uint64_t new_start = offset;
    std::uint64_t new_end = end;
    auto it = runs_.lower_bound(new_start);
    if (it != runs_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= new_start) {
            new_start = prev->first;
            new_end = std::max(new_end, prev->second);
            it = runs_.erase(prev);
        }
    }
    while (it != runs_.end() && it->first <= new_end) {
        new_end = std::max(new_end, it->second);
        it = runs_.erase(it);
    }
    runs_.emplace(new_start, new_end);
}

void ReassemblyBuffer::set_final_size(std::uint64_t final_size) noexcept {
    final_size_ = final_size;
}

std::uint64_t ReassemblyBuffer::contiguous_length() const noexcept {
    // Runs are merged on insert, so a run covering offset 0 starts at 0.
    if (!runs_.empty() && runs_.begin()->first == 0) return runs_.begin()->second;
    return 0;
}

bool ReassemblyBuffer::complete() const noexcept {
    return final_size_.has_value() && contiguous_length() >= *final_size_;
}

std::vector<std::uint8_t> ReassemblyBuffer::take() {
    assert(complete());
    bytes_.resize(*final_size_);
    runs_.clear();
    return std::move(bytes_);
}

void SendQueue::append(std::span<const std::uint8_t> data, bool fin) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    if (fin) fin_ = true;
}

std::optional<SendQueue::Chunk> SendQueue::next_chunk(std::size_t max_bytes) {
    if (!retransmit_.empty()) {
        const Lost lost = retransmit_.back();
        retransmit_.pop_back();
        return Chunk{lost.offset, sent_bytes(lost.offset, lost.length), lost.fin};
    }
    if (!has_pending() || max_bytes == 0) return std::nullopt;
    Chunk chunk;
    chunk.offset = next_offset_;
    const std::uint64_t available = buffer_.size() - next_offset_;
    const std::uint64_t take = std::min<std::uint64_t>(available, max_bytes);
    chunk.data = sent_bytes(next_offset_, take);
    next_offset_ += take;
    if (fin_ && next_offset_ == buffer_.size()) {
        chunk.fin = true;
        fin_sent_ = true;
    }
    return chunk;
}

void SendQueue::requeue(std::uint64_t offset, std::uint64_t length, bool fin) {
    retransmit_.push_back(Lost{offset, length, fin});
}

std::span<const std::uint8_t> SendQueue::sent_bytes(std::uint64_t offset,
                                                    std::uint64_t length) const noexcept {
    assert(offset + length <= buffer_.size());
    return std::span<const std::uint8_t>{buffer_}.subspan(offset, length);
}

}  // namespace spinscope::quic
