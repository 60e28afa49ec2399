// Unit tests for stream reassembly and the send queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "quic/stream.hpp"

namespace spinscope::quic {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) { return {list}; }

TEST(Reassembly, InOrderDelivery) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1, 2, 3}));
    EXPECT_EQ(buffer.contiguous_length(), 3u);
    EXPECT_FALSE(buffer.complete());
    buffer.insert(3, bytes({4, 5}));
    buffer.set_final_size(5);
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(buffer.take(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
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
    EXPECT_EQ(buffer.take(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
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
    EXPECT_TRUE(buffer.take().empty());
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
    EXPECT_EQ(buffer.take(), expected);
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
