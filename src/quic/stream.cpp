#include "quic/stream.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace spinscope::quic {

namespace {

/// Storage below this size is not worth keeping between streams.
constexpr std::size_t kSpareMinBytes = 16 * 1024;

/// The calling thread's stream spare set (stream.hpp, SendQueue): at most
/// this many buffers, each of at least kSpareMinBytes; an empty vector is an
/// empty place.
thread_local std::array<std::vector<std::uint8_t>, 2> t_spares;

/// Makes room for `size` bytes in `bytes`, keeping its content, when that
/// is past kSpareMinBytes and the largest spare holds it: the spare is
/// swapped in. Otherwise the vector grows as it would anyway.
void reserve_stream_bytes(std::vector<std::uint8_t>& bytes, std::uint64_t size) {
    if (size <= bytes.capacity() || size < kSpareMinBytes) return;
    auto& largest = *std::max_element(
        t_spares.begin(), t_spares.end(),
        [](const auto& a, const auto& b) { return a.capacity() < b.capacity(); });
    if (largest.capacity() < size) return;
    largest.assign(bytes.begin(), bytes.end());
    bytes.swap(largest);
    // The outgrown storage takes the spare's place if it is worth keeping.
    if (largest.capacity() < kSpareMinBytes) {
        largest = {};
    } else {
        largest.clear();
    }
}

/// Gives the storage of `bytes` to the spare set when it is large enough
/// and larger than the smallest spare (which it then replaces); either way
/// `bytes` ends empty.
void donate_stream_bytes(std::vector<std::uint8_t>& bytes) noexcept {
    if (bytes.capacity() >= kSpareMinBytes) {
        auto& smallest = *std::min_element(
            t_spares.begin(), t_spares.end(),
            [](const auto& a, const auto& b) { return a.capacity() < b.capacity(); });
        if (smallest.capacity() < bytes.capacity()) {
            bytes.clear();
            smallest.swap(bytes);
        }
    }
    bytes = {};
}

}  // namespace

void ReassemblyBuffer::insert(std::uint64_t offset, std::span<const std::uint8_t> data) {
    const std::uint64_t end = offset + data.size();
    if (data.empty() || end <= contiguous_) return;  // nothing new
    if (offset < contiguous_) {
        data = data.subspan(contiguous_ - offset);
        offset = contiguous_;
    }

    // Write the bytes: over a gap's placeholder where they fill one, and
    // appended past the end.
    reserve_stream_bytes(bytes_, end);
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
    donate_stream_bytes(bytes_);
    contiguous_ = 0;
    runs_.clear();
    final_size_.reset();
}

SendQueue::~SendQueue() { donate_stream_bytes(buffer_); }

void SendQueue::append(std::span<const std::uint8_t> data, bool fin) {
    reserve_stream_bytes(buffer_, buffer_.size() + data.size());
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
