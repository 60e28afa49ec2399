// Unit tests for util::Duration/TimePoint arithmetic, format helpers, the
// CRC-32 checksum, crash-safe file publication, and the process helpers
// (pipes, line channels, pid lock files) behind multi-process campaigns.

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/format.hpp"
#include "util/proc.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace spinscope::util {
namespace {

TEST(Duration, Constructors) {
    EXPECT_EQ(Duration::millis(3).count_nanos(), 3'000'000);
    EXPECT_EQ(Duration::micros(5).count_nanos(), 5'000);
    EXPECT_EQ(Duration::seconds(2).count_millis(), 2000);
    EXPECT_EQ(Duration::from_ms(1.5).count_micros(), 1500);
    EXPECT_EQ(Duration::from_ms(-1.5).count_micros(), -1500);
}

TEST(Duration, Arithmetic) {
    const auto a = Duration::millis(10);
    const auto b = Duration::millis(4);
    EXPECT_EQ((a + b).count_millis(), 14);
    EXPECT_EQ((a - b).count_millis(), 6);
    EXPECT_EQ((b - a).count_millis(), -6);
    EXPECT_EQ((a * 3).count_millis(), 30);
    EXPECT_EQ((std::int64_t{3} * a).count_millis(), 30);
    EXPECT_EQ((a / 2).count_millis(), 5);
    EXPECT_EQ(a.scaled(2.5).count_millis(), 25);
}

TEST(Duration, ComparisonAndAbs) {
    EXPECT_LT(Duration::millis(1), Duration::millis(2));
    EXPECT_TRUE((Duration::millis(-7)).is_negative());
    EXPECT_EQ(Duration::millis(-7).abs(), Duration::millis(7));
    EXPECT_TRUE(Duration::zero().is_zero());
}

TEST(Duration, UnitConversions) {
    const auto d = Duration::from_ms(1234.567);
    EXPECT_NEAR(d.as_ms(), 1234.567, 1e-6);
    EXPECT_NEAR(d.as_seconds(), 1.234567, 1e-9);
}

TEST(TimePoint, Arithmetic) {
    const auto t0 = TimePoint::origin();
    const auto t1 = t0 + Duration::millis(5);
    EXPECT_EQ((t1 - t0).count_millis(), 5);
    EXPECT_EQ((t1 - Duration::millis(2) - t0).count_millis(), 3);
    EXPECT_LT(t0, t1);
    EXPECT_TRUE(TimePoint::never().is_never());
    EXPECT_FALSE(t1.is_never());
}

TEST(Format, GroupDigits) {
    EXPECT_EQ(group_digits(0), "0");
    EXPECT_EQ(group_digits(999), "999");
    EXPECT_EQ(group_digits(1000), "1 000");
    EXPECT_EQ(group_digits(2732702), "2 732 702");
    EXPECT_EQ(group_digits(216520521), "216 520 521");
}

TEST(Format, Percent) {
    EXPECT_EQ(percent(0.102), "10.2 %");
    EXPECT_EQ(percent(0.0028, 2), "0.28 %");
    EXPECT_EQ(percent(1.0), "100.0 %");
}

TEST(Format, Fixed) {
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(-1.5, 0), "-2");  // round-half-even via printf
}

TEST(Format, TextTableAlignment) {
    TextTable t;
    t.add_row({"h1", "h2"});
    t.add_row({"a", "1234"});
    t.add_row({"bb"});
    const std::string out = t.render();
    // Header rule present, columns padded, missing cells tolerated.
    EXPECT_NE(out.find("h1"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_NE(out.find("1234"), std::string::npos);
    const auto first_line_end = out.find('\n');
    const auto rule_end = out.find('\n', first_line_end + 1);
    const auto third_end = out.find('\n', rule_end + 1);
    const auto fourth_end = out.find('\n', third_end + 1);
    // All data rows have equal rendered width.
    EXPECT_EQ(third_end - rule_end, fourth_end - third_end);
}

TEST(Format, BarLineClamps) {
    const auto full = bar_line("x", 1.5, 10);
    EXPECT_NE(full.find("##########"), std::string::npos);
    const auto empty = bar_line("x", -0.5, 10);
    EXPECT_EQ(empty.find('#'), std::string::npos);
}

TEST(Format, DurationToString) {
    EXPECT_EQ(to_string(Duration::nanos(870)), "870 ns");
    EXPECT_EQ(to_string(Duration::micros(12)), "12.00 us");
    EXPECT_EQ(to_string(Duration::from_ms(12.3)), "12.300 ms");
    EXPECT_EQ(to_string(Duration::seconds(3)), "3.000 s");
}

TEST(Checksum, Crc32MatchesKnownVectors) {
    // The IEEE 802.3 check value every CRC-32 implementation must reproduce.
    EXPECT_EQ(crc32(std::string_view{"123456789"}), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string_view{""}), 0x00000000u);
    EXPECT_EQ(crc32(std::string_view{"a"}), 0xE8B7BE43u);
    // constexpr: usable to fold frame checksums of literals at compile time.
    static_assert(crc32(std::string_view{"123456789"}) == 0xCBF43926u);
}

TEST(Checksum, IncrementalUpdateEqualsOneShot) {
    const std::string data = "the quick brown fox jumps over the lazy dog";
    std::uint32_t state = crc32_init();
    for (const char c : data) state = crc32_update(state, &c, 1);
    EXPECT_EQ(crc32_final(state), crc32(std::string_view{data}));
    // Single-bit damage changes the checksum.
    std::string flipped = data;
    flipped[10] ^= 0x01;
    EXPECT_NE(crc32(std::string_view{flipped}), crc32(std::string_view{data}));
}

/// Bit-at-a-time CRC-32, independent of the table-driven implementation.
std::uint32_t reference_crc32(const char* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= static_cast<std::uint8_t>(data[i]);
        for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(Checksum, SlicingBy8AgreesWithBitwiseReference) {
    // Every length 0..1024 at every start offset 0..7 covers each split of a
    // buffer into 8-byte blocks and a byte-wise tail, at every alignment.
    Rng rng{0xC0FFEE};
    std::vector<char> buffer(1024 + 8);
    for (char& c : buffer) c = static_cast<char>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t size = 0; size <= 1024; ++size) {
            const char* data = buffer.data() + offset;
            ASSERT_EQ(crc32(std::string_view{data, size}), reference_crc32(data, size))
                << "offset " << offset << " size " << size;
        }
    }
    // Incremental updates over random split points give the one-shot value.
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t size = rng.uniform_u64(buffer.size() + 1);
        std::uint32_t state = crc32_init();
        std::size_t pos = 0;
        while (pos < size) {
            const std::size_t step = 1 + rng.uniform_u64(std::min<std::size_t>(size - pos, 40));
            state = crc32_update(state, buffer.data() + pos, step);
            pos += step;
        }
        ASSERT_EQ(crc32_final(state), reference_crc32(buffer.data(), size)) << "size " << size;
    }
}

class AtomicFileTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_atomic_file_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    [[nodiscard]] std::string slurp(const std::filesystem::path& path) const {
        std::ifstream in{path, std::ios::binary};
        return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    }

    std::filesystem::path dir_;
};

TEST_F(AtomicFileTest, WriteCreatesAndReplacesWithoutTempDebris) {
    const auto path = dir_ / "out.txt";
    ASSERT_TRUE(write_file_atomic(Io::real(), path, "first\n"));
    EXPECT_EQ(slurp(path), "first\n");
    ASSERT_TRUE(write_file_atomic(Io::real(), path, "second, longer content\n"));
    EXPECT_EQ(slurp(path), "second, longer content\n");
    std::size_t entries = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u) << "temp file leaked next to the target";
}

TEST_F(AtomicFileTest, WriteFailureLeavesTargetUntouched) {
    const auto path = dir_ / "no_such_subdir" / "out.txt";
    EXPECT_FALSE(write_file_atomic(Io::real(), path, "data"));
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(AtomicFileTest, RenameDurableMovesAndAFailedRenameLeavesTheTarget) {
    const auto from = dir_ / "a.tmp";
    const auto to = dir_ / "a.final";
    ASSERT_TRUE(write_file_atomic(Io::real(), from, "payload"));
    ASSERT_TRUE(rename_durable(Io::real(), from, to));
    EXPECT_FALSE(std::filesystem::exists(from));
    EXPECT_EQ(slurp(to), "payload");
    EXPECT_FALSE(rename_durable(Io::real(), dir_ / "missing", to));
    EXPECT_EQ(slurp(to), "payload") << "failed rename must leave the target alone";
}

TEST_F(AtomicFileTest, RenameDurableAcrossDirectoriesSyncsBothParents) {
    const auto src_dir = dir_ / "src";
    const auto dst_dir = dir_ / "dst";
    std::filesystem::create_directories(src_dir);
    std::filesystem::create_directories(dst_dir);
    const auto from = src_dir / "rec.tmp";
    const auto to = dst_dir / "rec.final";
    ASSERT_TRUE(write_file_atomic(Io::real(), from, "cross-dir payload"));
    ASSERT_TRUE(rename_durable(Io::real(), from, to));
    EXPECT_FALSE(std::filesystem::exists(from));
    EXPECT_EQ(slurp(to), "cross-dir payload");
}

TEST_F(AtomicFileTest, FsyncDirReportsOnRealAndMissingDirectories) {
    EXPECT_TRUE(fsync_dir(Io::real(), dir_));
    EXPECT_FALSE(fsync_dir(Io::real(), dir_ / "no_such_dir"));
}

TEST_F(AtomicFileTest, CreateFileExclusiveClaimsExactlyOnce) {
    const auto path = dir_ / "claim.lock";
    ASSERT_TRUE(create_file_exclusive(Io::real(), path, "owner 1\n"));
    EXPECT_EQ(slurp(path), "owner 1\n");
    // A second claim must fail and must NOT clobber the winner's content.
    EXPECT_FALSE(create_file_exclusive(Io::real(), path, "owner 2\n"));
    EXPECT_EQ(slurp(path), "owner 1\n");
    EXPECT_FALSE(create_file_exclusive(Io::real(), dir_ / "missing_dir" / "x", "y"));
}

TEST_F(AtomicFileTest, ConcurrentAtomicWritesToOneTargetNeverTearOrCollide) {
    // Many threads of ONE process publish to the same path: the pid-based
    // temp names must still be unique (per-thread serial), so no thread ever
    // renames another thread's half-written temp into place.
    const auto path = dir_ / "contended.txt";
    constexpr int kThreads = 8;
    constexpr int kRounds = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string content(128, static_cast<char>('a' + t));
            for (int r = 0; r < kRounds; ++r) {
                ASSERT_TRUE(write_file_atomic(Io::real(), path, content));
            }
        });
    }
    for (auto& thread : threads) thread.join();
    const std::string final = slurp(path);
    ASSERT_EQ(final.size(), 128u);
    for (const char c : final) EXPECT_EQ(c, final[0]) << "torn publish";
    std::size_t entries = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u) << "temp debris leaked by concurrent publishes";
}

// --- Process helpers ---------------------------------------------------------

class ProcTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_proc_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(ProcTest, ProcessLivenessProbe) {
    EXPECT_TRUE(process_alive(current_pid()));
    EXPECT_FALSE(process_alive(0));
    EXPECT_FALSE(process_alive(-1));
#ifndef _WIN32
    EXPECT_TRUE(process_alive(1)) << "pid 1 always exists on POSIX";
#endif
}

#ifndef _WIN32
TEST_F(ProcTest, PipeLineChannelRoundTripsAndReportsEof) {
    Pipe pipe;
    ASSERT_TRUE(set_nonblocking(pipe.parent_fd()));
    std::string inbox;
    EXPECT_TRUE(read_available(pipe.parent_fd(), inbox));
    EXPECT_TRUE(inbox.empty());

    ASSERT_TRUE(write_all(pipe.child_fd(), "start 4\n"));
    ASSERT_TRUE(write_all(pipe.child_fd(), std::string_view{"bytes\0\n", 7}));
    EXPECT_TRUE(read_available(pipe.parent_fd(), inbox));
    EXPECT_EQ(inbox, std::string_view("start 4\nbytes\0\n", 15));

    // Bytes accumulate across reads until the caller consumes them.
    ASSERT_EQ(::write(pipe.child_fd(), "par", 3), 3);
    EXPECT_TRUE(read_available(pipe.parent_fd(), inbox));
    EXPECT_TRUE(inbox.ends_with("par"));
    pipe.close_child();
    EXPECT_FALSE(read_available(pipe.parent_fd(), inbox)) << "EOF after the other end closes";
    EXPECT_EQ(inbox.size(), 18u);
}

TEST_F(ProcTest, WriteLineToClosedPipeFailsInsteadOfCrashing) {
    Pipe pipe;
    pipe.close_parent();
    // With SIGPIPE at its default action a plain write() here would kill
    // the test; write_all must report EPIPE instead, as a supervisor
    // writing to a worker that just died relies on.
    ::signal(SIGPIPE, SIG_DFL);
    EXPECT_FALSE(write_all(pipe.child_fd(), "into the void\n"));
}
#endif

TEST_F(ProcTest, PidLockFileRefusesLiveOwnerAndBreaksStaleLocks) {
    const auto path = dir_ / "journal.lock";

    // Lock held by a live FOREIGN process (pid 1): refuse loudly, naming it.
    {
        std::ofstream out{path};
        out << "1\n";
    }
    PidLockFile lock;
    try {
        lock.acquire(path);
        FAIL() << "acquire must refuse a live owner's lock";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("pid 1"), std::string::npos) << e.what();
    }
    EXPECT_FALSE(lock.held());

    // A dead owner's lock is stale: broken silently and re-acquired.
    {
        std::ofstream out{path, std::ios::trunc};
        out << "999999999\n";  // far above any real pid_max
    }
    lock.acquire(path);
    EXPECT_TRUE(lock.held());
    EXPECT_EQ(PidLockFile::owner(path), current_pid());
    lock.release();
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(PidLockFile::owner(path).has_value());

    // Garbled lock content is stale too.
    {
        std::ofstream out{path, std::ios::trunc};
        out << "not a pid";
    }
    lock.acquire(path);
    EXPECT_TRUE(lock.held());
    lock.release();
}

}  // namespace
}  // namespace spinscope::util
