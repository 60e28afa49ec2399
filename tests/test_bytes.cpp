// Buffer/Recycler semantics and a seeded property sweep over the byte
// cursors: every schema round-trips exactly, every truncated prefix fails
// cleanly (run under ASan to enforce no over-read), and ByteReader's varint
// agrees with the free decode_varint on all valid inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "bytes/bytes.hpp"
#include "bytes/cursor.hpp"
#include "scanner/campaign.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "web/population.hpp"

namespace spinscope::bytes {
namespace {

using util::Rng;

// ---------------------------------------------------------------------------
// Buffer semantics

TEST(Buffer, DefaultIsEmptyAndUnpooled) {
    Buffer b;
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
    EXPECT_FALSE(b.pooled());
}

TEST(Buffer, VectorShapeOperations) {
    Buffer b{4, 0xab};
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0xab);
    b.push_back(0x01);
    b.append(std::vector<std::uint8_t>{2, 3});
    ASSERT_EQ(b.size(), 7u);
    EXPECT_EQ(b[4], 0x01);
    EXPECT_EQ(b[6], 3);
    b.resize(2);
    EXPECT_EQ(b.size(), 2u);
    b.clear();
    EXPECT_TRUE(b.empty());
}

TEST(Buffer, AdoptsVectorWithoutCopy) {
    std::vector<std::uint8_t> v{1, 2, 3};
    const auto* before = v.data();
    Buffer b{std::move(v)};
    EXPECT_EQ(b.data(), before);
    EXPECT_EQ(b.size(), 3u);
}

TEST(Buffer, MoveTransfersStorageAndEmptiesSource) {
    Buffer a = Buffer::copy_of(std::vector<std::uint8_t>{9, 8, 7});
    Buffer b{std::move(a)};
    EXPECT_EQ(b.size(), 3u);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): post-move state is defined
    Buffer c;
    c = std::move(b);
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0], 9);
}

TEST(Buffer, SpanViewsSeeTheBytes) {
    Buffer b = Buffer::copy_of(std::vector<std::uint8_t>{1, 2, 3});
    ConstByteSpan view = b;  // implicit conversion, borrowed
    ASSERT_EQ(view.size(), 3u);
    EXPECT_EQ(view[2], 3);
    b.writable_span()[0] = 42;
    EXPECT_EQ(b.span()[0], 42);
}

TEST(Buffer, UnpooledCloneIsDeepAndUnpooled) {
    Buffer a = Buffer::copy_of(std::vector<std::uint8_t>{5, 6});
    Buffer b = a.clone();
    EXPECT_NE(a.data(), b.data());
    EXPECT_FALSE(b.pooled());
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[1], 6);
}

// ---------------------------------------------------------------------------
// The per-thread datagram pool (Recycler; `bytes.pool.*` telemetry). Each
// case runs on a fresh thread, so it starts from an empty recycler.

template <typename Body>
void on_fresh_thread(Body body) {
    std::thread{body}.join();
}

TEST(BufferPool, FirstAcquireMissesThenRecycledStorageHits) {
    on_fresh_thread([] {
        Recycler& recycler = Recycler::local();
        {
            Buffer b = recycler.acquire(1200);
            EXPECT_GE(b.capacity(), 1200u);
            EXPECT_TRUE(b.empty());  // capacity is recycled, bytes never are
            EXPECT_TRUE(b.pooled());
            b.push_back(0xff);
        }  // destructor recycles
        EXPECT_EQ(recycler.free_count(), 1u);
        {
            Buffer b = recycler.acquire(100);
            EXPECT_TRUE(b.empty());
            EXPECT_GE(b.capacity(), 1200u);  // reused the recycled storage
        }
        const auto& s = recycler.stats();
        EXPECT_EQ(s.acquires, 2u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.hits, 1u);
        EXPECT_EQ(s.recycled, 2u);
        EXPECT_EQ(s.outstanding, 0);
    });
}

TEST(BufferPool, OutstandingTracksLiveBuffersWithHighWaterMark) {
    on_fresh_thread([] {
        Recycler& recycler = Recycler::local();
        {
            Buffer a = recycler.acquire();
            Buffer b = recycler.acquire();
            EXPECT_EQ(recycler.stats().outstanding, 2);
        }
        EXPECT_EQ(recycler.stats().outstanding, 0);
        { Buffer c = recycler.acquire(); }
        EXPECT_EQ(recycler.stats().outstanding_hwm, 2);
        // mark() restarts the high-water mark at the current level.
        (void)recycler.mark();
        EXPECT_EQ(recycler.stats().outstanding_hwm, 0);
    });
}

TEST(BufferPool, FreeListIsCappedAndTrims) {
    on_fresh_thread([] {
        Recycler& recycler = Recycler::local();
        {
            std::vector<Buffer> live;
            for (std::size_t i = 0; i <= Recycler::kMaxFree; ++i) {
                live.push_back(recycler.acquire());
            }
        }
        EXPECT_EQ(recycler.free_count(), Recycler::kMaxFree);
        EXPECT_EQ(recycler.stats().trimmed, 1u);
        EXPECT_EQ(recycler.stats().recycled, Recycler::kMaxFree);
    });
}

TEST(BufferPool, MovedFromBufferDoesNotDoubleRecycle) {
    on_fresh_thread([] {
        Recycler& recycler = Recycler::local();
        {
            Buffer a = recycler.acquire();
            Buffer b = std::move(a);
            // `a` no longer owns pooled storage; only `b`'s death may recycle.
        }
        EXPECT_EQ(recycler.stats().recycled, 1u);
        EXPECT_EQ(recycler.stats().outstanding, 0);
    });
}

TEST(BufferPool, CloneDrawsFromTheSamePool) {
    on_fresh_thread([] {
        Recycler& recycler = Recycler::local();
        Buffer a = recycler.acquire();
        a.append(std::vector<std::uint8_t>{1, 2, 3});
        Buffer b = a.clone();
        EXPECT_TRUE(b.pooled());
        EXPECT_EQ(recycler.stats().acquires, 2u);
        EXPECT_EQ(b.size(), 3u);
        EXPECT_NE(a.data(), b.data());
    });
}

TEST(BufferPool, PublishMetricsMergesAcrossChunkRegistries) {
    // Two chunks on one worker publish their windows into two chunk
    // registries that merge into one — the sharded campaign's exact
    // telemetry shape. The second chunk finds the first one's storage.
    on_fresh_thread([] {
        Recycler& recycler = Recycler::local();
        telemetry::MetricsRegistry merged;
        for (int chunk = 0; chunk < 2; ++chunk) {
            const Recycler::Stats since = recycler.mark();
            {
                Buffer a = recycler.acquire();
                Buffer b = recycler.acquire();
            }
            { Buffer c = recycler.acquire(); }
            telemetry::MetricsRegistry chunk_registry;
            recycler.publish_since(since, chunk_registry);
            merged.merge_from(chunk_registry);
        }
        using telemetry::CounterId;
        EXPECT_EQ(merged.counter(CounterId::bytes_pool_acquires).value(), 6u);
        EXPECT_EQ(merged.counter(CounterId::bytes_pool_hits).value(), 4u);
        EXPECT_EQ(merged.counter(CounterId::bytes_pool_misses).value(), 2u);
        EXPECT_EQ(merged.counter(CounterId::bytes_pool_recycled).value(), 6u);
        EXPECT_DOUBLE_EQ(merged.gauge(telemetry::GaugeId::bytes_pool_outstanding_hwm).value(),
                         2.0);
    });
}

TEST(BufferPool, ABufferReleasedOnAnotherThreadLandsInThatThreadsFreeList) {
    Buffer moved;
    on_fresh_thread([&moved] {
        moved = Recycler::local().acquire(64);
        moved.push_back(1);
        EXPECT_EQ(Recycler::local().stats().outstanding, 1);
    });
    on_fresh_thread([&moved] {
        { Buffer released = std::move(moved); }
        const Recycler& recycler = Recycler::local();
        EXPECT_EQ(recycler.free_count(), 1u);
        EXPECT_EQ(recycler.stats().recycled, 1u);
        EXPECT_EQ(recycler.stats().acquires, 0u);
        EXPECT_EQ(recycler.stats().outstanding, -1);
    });
}

class RecyclerCampaignTest : public ::testing::Test {
protected:
    RecyclerCampaignTest() : population_{{20000.0, 20230520}} {}

    static std::uint64_t counter(const telemetry::MetricsRegistry& registry,
                                 std::string_view name) {
        const auto* c = registry.find_counter(name);
        return c == nullptr ? 0 : c->value();
    }

    web::PopulationModel population_;
};

TEST_F(RecyclerCampaignTest, ScanningADomainAgainOnTheSameThreadMissesNothing) {
    const web::DomainBlock block = population_.materialize(0, 512);
    const auto quic = std::ranges::find_if(
        block.domains, [](const web::Domain& d) { return d.resolves && d.quic; });
    ASSERT_NE(quic, block.domains.end());
    on_fresh_thread([&] {
        telemetry::MetricsRegistry registry;
        scanner::Campaign campaign{population_, {}};
        campaign.set_metrics(&registry);
        (void)campaign.scan_domain(*quic);
        const std::uint64_t first_acquires = counter(registry, "bytes.pool.acquires");
        const std::uint64_t first_misses = counter(registry, "bytes.pool.misses");
        EXPECT_GT(first_misses, 0u);
        (void)campaign.scan_domain(*quic);
        EXPECT_EQ(counter(registry, "bytes.pool.acquires"), 2 * first_acquires);
        EXPECT_EQ(counter(registry, "bytes.pool.misses"), first_misses);
    });
}

TEST_F(RecyclerCampaignTest, AChunkPublishesABalancedWindow) {
    on_fresh_thread([&] {
        telemetry::MetricsRegistry registry;
        scanner::Campaign campaign{population_, {}};
        campaign.set_metrics(&registry);
        const scanner::ChunkRecord record = campaign.scan_chunk(0);
        const auto chunk = telemetry::parse_snapshot(record.telemetry_snapshot);
        ASSERT_TRUE(chunk.has_value());
        const std::uint64_t acquires = counter(*chunk, "bytes.pool.acquires");
        EXPECT_GT(acquires, 0u);
        EXPECT_EQ(acquires, counter(*chunk, "bytes.pool.hits") +
                                counter(*chunk, "bytes.pool.misses"));
        // Every buffer the chunk drew came back before it ended.
        EXPECT_EQ(acquires, counter(*chunk, "bytes.pool.recycled") +
                                counter(*chunk, "bytes.pool.trimmed"));
        EXPECT_EQ(Recycler::local().stats().outstanding, 0);
    });
}

TEST(ByteWriter, WritesInPlaceIntoPooledBuffer) {
    Buffer b = Recycler::local().acquire(64);
    ByteWriter w{b};
    w.u8(0x40);
    w.varint(1200);
    w.bytes(std::vector<std::uint8_t>{1, 2});
    EXPECT_EQ(w.size(), b.size());
    EXPECT_EQ(b[0], 0x40);
}

// ---------------------------------------------------------------------------
// Cursor property sweep

struct Field {
    enum Kind { u8, u32, u64, varint, be_truncated, raw_bytes, fill } kind;
    std::uint64_t value = 0;
    std::size_t width = 0;  // be_truncated / raw_bytes / fill length
};

std::vector<Field> random_schema(Rng& rng) {
    std::vector<Field> fields;
    const std::size_t n = 1 + rng.uniform_u64(12);
    fields.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Field f;
        f.kind = static_cast<Field::Kind>(rng.uniform_u64(7));
        switch (f.kind) {
            case Field::u8: f.value = rng.uniform_u64(1ULL << 8); break;
            case Field::u32: f.value = rng.uniform_u64(1ULL << 32); break;
            case Field::u64: f.value = rng.next(); break;
            case Field::varint:
                // Bit-length-uniform so all four encoded widths occur often.
                f.value = rng.next() >> rng.uniform_u64(64);
                if (f.value > kVarintMax) f.value >>= 2;
                break;
            case Field::be_truncated:
                f.width = 1 + rng.uniform_u64(8);
                f.value = rng.next() & (f.width == 8 ? ~0ULL : (1ULL << (8 * f.width)) - 1);
                break;
            case Field::raw_bytes:
            case Field::fill:
                f.width = rng.uniform_u64(16);
                f.value = rng.uniform_u64(1ULL << 8);
                break;
        }
        fields.push_back(f);
    }
    return fields;
}

std::vector<std::uint8_t> encode_schema(const std::vector<Field>& fields) {
    std::vector<std::uint8_t> wire;
    ByteWriter w{wire};
    for (const Field& f : fields) {
        switch (f.kind) {
            case Field::u8: w.u8(static_cast<std::uint8_t>(f.value)); break;
            case Field::u32: w.u32(static_cast<std::uint32_t>(f.value)); break;
            case Field::u64: w.u64(f.value); break;
            case Field::varint: w.varint(f.value); break;
            case Field::be_truncated: w.be_truncated(f.value, f.width); break;
            case Field::raw_bytes: {
                std::vector<std::uint8_t> data(f.width,
                                               static_cast<std::uint8_t>(f.value));
                w.bytes(data);
                break;
            }
            case Field::fill: w.fill(f.width, static_cast<std::uint8_t>(f.value)); break;
        }
    }
    return wire;
}

// Reads one field; nullopt on a clean decode failure (truncation).
bool read_field(ByteReader& r, const Field& f, bool check_values) {
    const auto check = [&](std::uint64_t got) {
        if (check_values) {
            EXPECT_EQ(got, f.value);
        }
    };
    switch (f.kind) {
        case Field::u8: {
            const auto v = r.u8();
            if (!v) return false;
            check(*v);
            return true;
        }
        case Field::u32: {
            const auto v = r.u32();
            if (!v) return false;
            check(*v);
            return true;
        }
        case Field::u64: {
            const auto v = r.u64();
            if (!v) return false;
            check(*v);
            return true;
        }
        case Field::varint: {
            const auto v = r.varint();
            if (!v) return false;
            check(*v);
            return true;
        }
        case Field::be_truncated: {
            const auto v = r.be_truncated(f.width);
            if (!v) return false;
            check(*v);
            return true;
        }
        case Field::raw_bytes:
        case Field::fill: {
            const auto v = r.bytes(f.width);
            if (!v) return false;
            if (check_values) {
                for (const auto byte : *v) {
                    EXPECT_EQ(byte, static_cast<std::uint8_t>(f.value));
                }
            }
            return true;
        }
    }
    return false;
}

TEST(CursorSweep, TenThousandSchemasRoundTripExactly) {
    Rng rng{0xB17E5};
    for (int seed_case = 0; seed_case < 10'000; ++seed_case) {
        const auto fields = random_schema(rng);
        const auto wire = encode_schema(fields);
        ByteReader r{wire};
        for (const Field& f : fields) {
            ASSERT_TRUE(read_field(r, f, /*check_values=*/true))
                << "case " << seed_case << " failed on complete input";
        }
        EXPECT_TRUE(r.done()) << "case " << seed_case << " left trailing bytes";
    }
}

TEST(CursorSweep, EveryTruncatedPrefixFailsCleanly) {
    // Distinct seed from the round-trip sweep, smaller case count: the inner
    // loop is quadratic in the wire size.
    Rng rng{0x7A17};
    for (int seed_case = 0; seed_case < 500; ++seed_case) {
        const auto fields = random_schema(rng);
        const auto wire = encode_schema(fields);
        for (std::size_t cut = 0; cut < wire.size(); ++cut) {
            ByteReader r{ConstByteSpan{wire.data(), cut}};
            bool failed = false;
            for (const Field& f : fields) {
                if (!read_field(r, f, /*check_values=*/false)) {
                    failed = true;
                    break;
                }
            }
            ASSERT_TRUE(failed) << "prefix of " << cut << '/' << wire.size()
                                << " bytes decoded every field";
            // A failed read never advances past the end.
            ASSERT_LE(r.consumed(), cut);
        }
    }
}

TEST(CursorSweep, ReaderVarintAgreesWithFreeDecoderOnValidInputs) {
    Rng rng{0xDEC0DE};
    for (int i = 0; i < 10'000; ++i) {
        std::uint64_t value = rng.next() >> rng.uniform_u64(64);
        if (value > kVarintMax) value >>= 2;
        std::vector<std::uint8_t> wire;
        encode_varint(wire, value);
        ASSERT_EQ(wire.size(), varint_size(value));

        const auto free_form = decode_varint(wire);
        ASSERT_TRUE(free_form.has_value());
        EXPECT_EQ(free_form->value, value);
        EXPECT_EQ(free_form->consumed, wire.size());

        ByteReader r{wire};
        const auto cursor_form = r.varint();
        ASSERT_TRUE(cursor_form.has_value());
        EXPECT_EQ(*cursor_form, free_form->value);
        EXPECT_EQ(r.consumed(), free_form->consumed);
        EXPECT_TRUE(r.done());
    }
}

TEST(CursorSweep, VarintMinimalRejectsOverlongWithoutAdvancing) {
    // 0x4001 is an overlong encoding of 1: varint() accepts, minimal rejects.
    const std::vector<std::uint8_t> overlong{0x40, 0x01};
    ByteReader plain{overlong};
    EXPECT_EQ(plain.varint(), std::optional<std::uint64_t>{1});
    ByteReader minimal{overlong};
    EXPECT_FALSE(minimal.varint_minimal().has_value());
    EXPECT_EQ(minimal.consumed(), 0u);  // no advance on failure
    EXPECT_EQ(minimal.varint(), std::optional<std::uint64_t>{1});  // still readable
}

TEST(RecordFields, RoundTripEveryRangeAndRejectNonCanonicalForms) {
    constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t unsigned_values[] = {0,          63,          64,         16383,
                                             16384,      (1u << 30) - 1, 1u << 30, kVarintMax - 1,
                                             kVarintMax, kMax64};
    const std::int64_t signed_values[] = {0, -1, 1, -64, 64, std::numeric_limits<std::int64_t>::min(),
                                          std::numeric_limits<std::int64_t>::max()};
    std::vector<std::uint8_t> wire;
    ByteWriter w{wire};
    for (const std::uint64_t v : unsigned_values) w.uvarint(v);
    for (const std::int64_t v : signed_values) w.svarint(v);
    w.f64(-0.0);
    w.text(std::string_view("a\0b", 3));
    ByteReader r{wire};
    for (const std::uint64_t v : unsigned_values) EXPECT_EQ(r.uvarint(), v);
    for (const std::int64_t v : signed_values) EXPECT_EQ(r.svarint(), v);
    const auto zero = r.f64();
    ASSERT_TRUE(zero.has_value());
    EXPECT_TRUE(std::signbit(*zero));
    EXPECT_EQ(r.text(), std::string_view("a\0b", 3));
    EXPECT_TRUE(r.done());

    const auto rejects = [](std::vector<std::uint8_t> bytes, auto read) {
        ByteReader in{bytes};
        return !read(in).has_value();
    };
    const auto uvarint = [](ByteReader& in) { return in.uvarint(); };
    EXPECT_TRUE(rejects({0x40, 0x01}, uvarint)) << "overlong";
    EXPECT_TRUE(rejects({0x80, 0x00, 0x3f}, uvarint)) << "truncated";
    // The escape (the 8-byte varint kVarintMax) must carry a u64 that needs it.
    std::vector<std::uint8_t> escape(8, 0xff);
    EXPECT_TRUE(rejects(escape, uvarint)) << "escape without its u64";
    std::vector<std::uint8_t> small = escape;
    small.insert(small.end(), {0, 0, 0, 0, 0, 0, 0, 5});
    EXPECT_TRUE(rejects(small, uvarint)) << "escaped 5";
    EXPECT_TRUE(rejects({0x03, 'a', 'b'}, [](ByteReader& in) { return in.text(); }));
    EXPECT_TRUE(rejects({0x03, 0, 0}, [](ByteReader& in) { return in.count(); }));
    EXPECT_FALSE(rejects({0x02, 0, 0}, [](ByteReader& in) { return in.count(); }));
    std::uint8_t narrow = 0;
    const std::vector<std::uint8_t> two_five_six{0x41, 0x00};
    ByteReader wide_value{two_five_six};
    EXPECT_FALSE(wide_value.integer(narrow)) << "256 is no uint8_t";
}

}  // namespace
}  // namespace spinscope::bytes
