// Unit tests for stream reassembly and the send queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "quic/stream.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) { return {list}; }

/// A copy of a complete buffer's contents.
std::vector<std::uint8_t> taken(const ReassemblyBuffer& buffer) {
    const auto contents = buffer.contents();
    return {contents.begin(), contents.end()};
}

TEST(Reassembly, InOrderDelivery) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1, 2, 3}));
    EXPECT_EQ(buffer.contiguous_length(), 3u);
    EXPECT_FALSE(buffer.complete());
    buffer.insert(3, bytes({4, 5}));
    buffer.set_final_size(5);
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(taken(buffer), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Reassembly, OutOfOrderChunks) {
    ReassemblyBuffer buffer;
    buffer.insert(3, bytes({4, 5}));
    EXPECT_EQ(buffer.contiguous_length(), 0u);
    buffer.insert(0, bytes({1, 2, 3}));
    EXPECT_EQ(buffer.contiguous_length(), 5u);
    buffer.set_final_size(5);
    EXPECT_TRUE(buffer.complete());
}

TEST(Reassembly, DuplicatesAndOverlapsAreIdempotent) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1, 2, 3, 4}));
    buffer.insert(2, bytes({3, 4, 5, 6}));  // overlap extends
    buffer.insert(0, bytes({1, 2}));        // pure duplicate
    buffer.set_final_size(6);
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(taken(buffer), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(Reassembly, HoleBlocksCompletion) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1}));
    buffer.insert(2, bytes({3}));
    buffer.set_final_size(3);
    EXPECT_FALSE(buffer.complete());
    EXPECT_EQ(buffer.contiguous_length(), 1u);
    buffer.insert(1, bytes({2}));
    EXPECT_TRUE(buffer.complete());
}

TEST(Reassembly, FinWithEmptyStream) {
    ReassemblyBuffer buffer;
    buffer.set_final_size(0);
    EXPECT_TRUE(buffer.complete());
    EXPECT_TRUE(buffer.contents().empty());
}

TEST(Reassembly, ManyTinyOutOfOrderChunks) {
    ReassemblyBuffer buffer;
    std::vector<std::uint8_t> expected(97);
    std::iota(expected.begin(), expected.end(), 0);
    // Insert even offsets first, then odd.
    for (std::size_t i = 0; i < expected.size(); i += 2) {
        buffer.insert(i, {&expected[i], 1});
    }
    for (std::size_t i = 1; i < expected.size(); i += 2) {
        buffer.insert(i, {&expected[i], 1});
    }
    buffer.set_final_size(expected.size());
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(taken(buffer), expected);
}

TEST(Reassembly, ReleaseForgetsTheStream) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1, 2}));
    buffer.insert(4, bytes({5}));
    buffer.set_final_size(5);
    buffer.release();
    EXPECT_FALSE(buffer.has_final_size());
    EXPECT_EQ(buffer.contiguous_length(), 0u);
    buffer.insert(0, bytes({7}));
    buffer.set_final_size(1);
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(taken(buffer), (std::vector<std::uint8_t>{7}));
}

/// One seeded case of the sweep below: a random stream delivered as a mix of
/// in-order, out-of-order, overlapping and duplicate chunks, checked after
/// every insert against a byte map. Returns the number of inserts.
int sweep_case(util::Rng& rng, ReassemblyBuffer& buffer) {
    // Mostly short streams; every 20th is long enough to grow its storage
    // past the spare-set threshold mid-stream.
    const std::size_t length = rng.one_in(20) ? 16'000 + rng.uniform_u64(30'000)
                                              : rng.uniform_u64(3'000);
    std::vector<std::uint8_t> stream(length);
    for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());
    std::vector<bool> have(length, false);
    std::size_t contiguous = 0;
    bool fin_seen = false;
    std::vector<std::pair<std::size_t, std::size_t>> sent;  // (offset, size)
    const std::size_t max_chunk = 1 + rng.uniform_u64(length < 2'000 ? 200 : 2'500);

    const auto deliver = [&](std::size_t offset, std::size_t size) {
        buffer.insert(offset, std::span<const std::uint8_t>{stream}.subspan(offset, size));
        if (offset + size == length) {  // the FIN rides the last byte's frame
            buffer.set_final_size(length);
            fin_seen = true;
        }
        sent.emplace_back(offset, size);
        for (std::size_t i = offset; i < offset + size; ++i) have[i] = true;
        while (contiguous < length && have[contiguous]) ++contiguous;
        EXPECT_EQ(buffer.contiguous_length(), contiguous);
        EXPECT_EQ(buffer.complete(), fin_seen && contiguous == length);
    };

    if (length == 0) {
        buffer.set_final_size(0);
        EXPECT_TRUE(buffer.complete());
        return 0;
    }
    int inserts = 0;
    while (!(fin_seen && contiguous == length)) {
        const std::uint64_t kind = inserts > 60 ? 0 : rng.uniform_u64(4);
        std::size_t offset = 0;
        if (kind == 0 && contiguous < length) {  // in order
            offset = contiguous;
        } else if (kind == 1 || contiguous == length) {  // anywhere
            offset = rng.uniform_u64(length);
        } else if (kind == 2 && !sent.empty()) {  // an exact duplicate
            const auto [dup_offset, dup_size] = sent[rng.uniform_u64(sent.size())];
            deliver(dup_offset, dup_size);
            ++inserts;
            continue;
        } else {  // straddling the received prefix
            offset = contiguous - std::min<std::size_t>(contiguous, rng.uniform_u64(max_chunk));
        }
        const std::size_t size = 1 + rng.uniform_u64(std::min(max_chunk, length - offset));
        deliver(offset, size);
        ++inserts;
    }
    EXPECT_EQ(taken(buffer), stream);
    return inserts;
}

TEST(Reassembly, SeededSweepMatchesAByteMap) {
    util::Rng rng{0x5eed'ab1e};
    ReassemblyBuffer buffer;
    long inserts = 0;
    for (int c = 0; c < 10'000; ++c) {
        inserts += sweep_case(rng, buffer);
        if (::testing::Test::HasFailure()) FAIL() << "case " << c;
        // Alternate a released buffer with a fresh one.
        if (c % 2 == 0) {
            buffer.release();
        } else {
            buffer = ReassemblyBuffer{};
        }
    }
    EXPECT_GT(inserts, 100'000);
}

TEST(SendQueue, GrowingPastTheSpareThresholdKeepsEveryByte) {
    // The second queue draws the storage the first one gave back.
    for (int round = 0; round < 2; ++round) {
        SendQueue queue;
        std::vector<std::uint8_t> expected(60);
        std::iota(expected.begin(), expected.end(), 0);
        queue.append(expected, false);
        std::vector<std::uint8_t> body(40'000);
        for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<std::uint8_t>(i * 7);
        queue.append(body, true);
        expected.insert(expected.end(), body.begin(), body.end());
        std::vector<std::uint8_t> sent;
        while (const auto chunk = queue.next_chunk(1'200)) {
            EXPECT_EQ(chunk->offset, sent.size());
            sent.insert(sent.end(), chunk->data.begin(), chunk->data.end());
        }
        EXPECT_EQ(sent, expected) << "round " << round;
    }
}

TEST(SendQueue, ChunksRespectLimit) {
    SendQueue queue;
    std::vector<std::uint8_t> data(10);
    std::iota(data.begin(), data.end(), 0);
    queue.append(data, true);
    auto c1 = queue.next_chunk(4);
    ASSERT_TRUE(c1.has_value());
    EXPECT_EQ(c1->offset, 0u);
    EXPECT_EQ(c1->data.size(), 4u);
    EXPECT_FALSE(c1->fin);
    auto c2 = queue.next_chunk(4);
    EXPECT_EQ(c2->offset, 4u);
    auto c3 = queue.next_chunk(4);
    EXPECT_EQ(c3->data.size(), 2u);
    EXPECT_TRUE(c3->fin);
    EXPECT_FALSE(queue.has_pending());
    EXPECT_FALSE(queue.next_chunk(4).has_value());
}

TEST(SendQueue, FinOnlyChunk) {
    SendQueue queue;
    queue.append({}, true);
    EXPECT_TRUE(queue.has_pending());
    const auto chunk = queue.next_chunk(100);
    ASSERT_TRUE(chunk.has_value());
    EXPECT_TRUE(chunk->fin);
    EXPECT_TRUE(chunk->data.empty());
    EXPECT_FALSE(queue.has_pending());
}

TEST(SendQueue, AppendAcrossChunks) {
    SendQueue queue;
    queue.append(bytes({1, 2}), false);
    auto c1 = queue.next_chunk(10);
    EXPECT_EQ(c1->data.size(), 2u);
    EXPECT_FALSE(c1->fin);
    EXPECT_FALSE(queue.has_pending());
    queue.append(bytes({3}), true);
    EXPECT_TRUE(queue.has_pending());
    auto c2 = queue.next_chunk(10);
    EXPECT_EQ(c2->offset, 2u);
    EXPECT_TRUE(c2->fin);
}

TEST(SendQueue, RequeuePriority) {
    SendQueue queue;
    std::vector<std::uint8_t> data(8, 0xaa);
    queue.append(data, true);
    auto lost = queue.next_chunk(4);
    ASSERT_TRUE(lost.has_value());
    queue.requeue(lost->offset, lost->data.size(), lost->fin);
    EXPECT_TRUE(queue.has_pending());
    // Retransmission comes out before new data.
    const auto again = queue.next_chunk(100);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->offset, lost->offset);
    EXPECT_TRUE(std::ranges::equal(again->data, lost->data));
    // New data continues afterwards.
    const auto rest = queue.next_chunk(100);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(rest->offset, 4u);
    EXPECT_TRUE(rest->fin);
}

TEST(SendQueue, RequeueOfFinChunkKeepsPendingUntilResent) {
    SendQueue queue;
    queue.append(bytes({1}), true);
    auto chunk = queue.next_chunk(10);
    ASSERT_TRUE(chunk->fin);
    EXPECT_FALSE(queue.has_pending());
    queue.requeue(chunk->offset, chunk->data.size(), chunk->fin);
    EXPECT_TRUE(queue.has_pending());
    auto again = queue.next_chunk(10);
    EXPECT_TRUE(again->fin);
    EXPECT_FALSE(queue.has_pending());
}

}  // namespace
}  // namespace spinscope::quic
