#include "quic/stream.hpp"

#include <algorithm>
#include <cassert>

#include "bytes/bytes.hpp"

namespace spinscope::quic {

void ReassemblyBuffer::insert(std::uint64_t offset, std::span<const std::uint8_t> data) {
    const std::uint64_t end = offset + data.size();
    if (data.empty() || end <= contiguous_) return;  // nothing new
    if (offset < contiguous_) {
        data = data.subspan(contiguous_ - offset);
        offset = contiguous_;
    }

    // Write the bytes: over a gap's placeholder where they fill one, and
    // appended past the end.
    bytes::Recycler::local().reserve_stream(bytes_, end);
    if (bytes_.size() < offset) bytes_.resize(offset);
    const std::size_t overwrite = std::min<std::uint64_t>(data.size(), bytes_.size() - offset);
    std::copy_n(data.begin(), overwrite, bytes_.begin() + static_cast<std::ptrdiff_t>(offset));
    bytes_.insert(bytes_.end(), data.begin() + static_cast<std::ptrdiff_t>(overwrite),
                  data.end());

    if (offset == contiguous_) {
        // The prefix grows, swallowing every run it now reaches.
        contiguous_ = end;
        auto reached = runs_.begin();
        for (; reached != runs_.end() && reached->begin <= contiguous_; ++reached) {
            contiguous_ = std::max(contiguous_, reached->end);
        }
        runs_.erase(runs_.begin(), reached);
        return;
    }
    // Past a gap: merge [offset, end) with every run it overlaps or touches.
    auto first = std::lower_bound(runs_.begin(), runs_.end(), offset,
                                  [](const Run& run, std::uint64_t at) { return run.end < at; });
    Run merged{offset, end};
    auto last = first;
    for (; last != runs_.end() && last->begin <= end; ++last) {
        merged.begin = std::min(merged.begin, last->begin);
        merged.end = std::max(merged.end, last->end);
    }
    if (first == last) {
        runs_.insert(first, merged);
    } else {
        *first = merged;
        runs_.erase(first + 1, last);
    }
}

void ReassemblyBuffer::set_final_size(std::uint64_t final_size) noexcept {
    final_size_ = final_size;
}

bool ReassemblyBuffer::complete() const noexcept {
    return final_size_.has_value() && contiguous_ >= *final_size_;
}

std::span<const std::uint8_t> ReassemblyBuffer::contents() const noexcept {
    assert(complete());
    return std::span<const std::uint8_t>{bytes_}.first(*final_size_);
}

void ReassemblyBuffer::release() noexcept {
    bytes::Recycler::local().donate_stream(bytes_);
    contiguous_ = 0;
    runs_.clear();
    final_size_.reset();
}

SendQueue::~SendQueue() { bytes::Recycler::local().donate_stream(buffer_); }

void SendQueue::append(std::span<const std::uint8_t> data, bool fin) {
    bytes::Recycler::local().reserve_stream(buffer_, buffer_.size() + data.size());
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
