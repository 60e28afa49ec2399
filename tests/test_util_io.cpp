// Storage seam suite (DESIGN.md §16): IoResult semantics, the errno reaction
// taxonomy, real-Io round-trips, atomic-file primitives driven through a
// lying disk (faults::FaultIo), and the fault plans themselves — short
// writes, ENOSPC exhaustion, sticky fsync failure, power loss, bit flips.
//
// The contract under test: write_file_atomic either publishes the complete
// content or leaves the destination untouched (and reports the real errno) —
// no fault plan can make it publish a torn file.

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "faults/storage.hpp"
#include "util/atomic_file.hpp"
#include "util/io.hpp"

namespace spinscope::util {
namespace {

class IoTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_io_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string read_back(const std::filesystem::path& path) {
        std::ifstream in{path, std::ios::binary};
        return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    }

    std::filesystem::path dir_;
};

// --- IoResult / taxonomy -----------------------------------------------------

TEST_F(IoTest, IoResultCarriesErrnoAndRendersACause) {
    EXPECT_TRUE(IoResult::success().ok());
    const IoResult failure = IoResult::failure(ENOSPC);
    EXPECT_FALSE(failure.ok());
    EXPECT_EQ(failure.err, ENOSPC);
    EXPECT_NE(failure.message().find("errno 28"), std::string::npos);
    // A libc failure that left errno 0 must not masquerade as success.
    EXPECT_EQ(IoResult::failure(0).err, EIO);
}

TEST_F(IoTest, ErrnoTaxonomyMatchesTheReactionContract) {
    EXPECT_EQ(classify_io_error(EINTR), IoErrorClass::transient);
    EXPECT_EQ(classify_io_error(EAGAIN), IoErrorClass::transient);
    EXPECT_EQ(classify_io_error(ENOMEM), IoErrorClass::transient);
    EXPECT_EQ(classify_io_error(EMFILE), IoErrorClass::transient);
    EXPECT_EQ(classify_io_error(EIO), IoErrorClass::corrupting);
    EXPECT_EQ(classify_io_error(ENOSPC), IoErrorClass::fatal);
    EXPECT_EQ(classify_io_error(EACCES), IoErrorClass::fatal);
    EXPECT_EQ(classify_io_error(EEXIST), IoErrorClass::fatal);
}

// --- Real Io round-trips -----------------------------------------------------

TEST_F(IoTest, RealIoWritesAppendsAndRemoves) {
    Io& io = Io::real();
    const auto path = dir_ / "file.txt";
    IoResult result;
    const int fd = io.open_write(path, Io::OpenMode::truncate, result);
    ASSERT_NE(fd, Io::kBadFile) << result.message();
    ASSERT_TRUE(io.write(fd, "hello "));
    ASSERT_TRUE(io.write(fd, "world"));
    ASSERT_TRUE(io.fsync(fd));
    ASSERT_TRUE(io.close(fd));
    EXPECT_EQ(read_back(path), "hello world");

    // Exclusive create refuses an existing file with EEXIST specifically.
    EXPECT_EQ(io.open_write(path, Io::OpenMode::exclusive, result), Io::kBadFile);
    EXPECT_EQ(result.err, EEXIST);

    EXPECT_TRUE(io.remove(path));
    EXPECT_TRUE(io.remove(path)) << "removing an absent file is success";
}

// --- Atomic-file primitives under fault injection ----------------------------

TEST_F(IoTest, WriteFileAtomicPublishesAllOrNothingUnderWriteFaults) {
    const auto path = dir_ / "out.txt";
    ASSERT_TRUE(write_file_atomic(Io::real(), path, "original"));

    // Every write ordinal: fail it and assert the destination is untouched.
    for (std::uint64_t n = 1; n <= 2; ++n) {
        faults::StorageFaultPlan plan;
        plan.fail_write_at = n;
        plan.write_error = ENOSPC;
        faults::FaultIo io{Io::real(), plan};
        const IoResult result = write_file_atomic(io, path, "replacement");
        if (!result) {
            EXPECT_EQ(result.err, ENOSPC);
            EXPECT_EQ(read_back(path), "original") << "torn publish at write " << n;
        } else {
            EXPECT_EQ(read_back(path), "replacement");
        }
    }
    // A short write is still a failed publish, not a half-published file.
    ASSERT_TRUE(write_file_atomic(Io::real(), path, "original"));
    faults::StorageFaultPlan torn;
    torn.short_write_at = 1;
    faults::FaultIo io{Io::real(), torn};
    EXPECT_FALSE(write_file_atomic(io, path, "torn-content"));
    EXPECT_EQ(read_back(path), "original");
    EXPECT_GE(io.faults_injected(), 1u);
}

TEST_F(IoTest, WriteFileAtomicFailsLoudlyOnFsyncFailure) {
    const auto path = dir_ / "fsync.txt";
    ASSERT_TRUE(write_file_atomic(Io::real(), path, "original"));
    faults::StorageFaultPlan plan;
    plan.fail_fsync_at = 1;
    faults::FaultIo io{Io::real(), plan};
    const IoResult result = write_file_atomic(io, path, "replacement");
    ASSERT_FALSE(result);
    EXPECT_EQ(result.err, EIO);
    EXPECT_EQ(classify_io_error(result.err), IoErrorClass::corrupting);
    EXPECT_EQ(read_back(path), "original");
}

TEST_F(IoTest, CreateFileExclusiveReportsEexistOnALostRace) {
    const auto path = dir_ / "claim";
    ASSERT_TRUE(create_file_exclusive(Io::real(), path, "winner"));
    const IoResult lost = create_file_exclusive(Io::real(), path, "loser");
    ASSERT_FALSE(lost);
    EXPECT_EQ(lost.err, EEXIST);
    EXPECT_EQ(read_back(path), "winner");
}

// --- Fault plans -------------------------------------------------------------

TEST_F(IoTest, FaultPlanValidatesContradictions) {
    faults::StorageFaultPlan both;
    both.fail_write_at = 1;
    both.short_write_at = 1;
    EXPECT_THROW(both.validate(), std::invalid_argument);
    faults::StorageFaultPlan no_errno;
    no_errno.write_error = 0;
    EXPECT_THROW(no_errno.validate(), std::invalid_argument);
}

TEST_F(IoTest, EnospcPersistsExactlyWhatFits) {
    faults::StorageFaultPlan plan;
    plan.enospc_after_bytes = 10;
    faults::FaultIo io{Io::real(), plan};
    const auto path = dir_ / "full.txt";
    IoResult result;
    const int fd = io.open_write(path, Io::OpenMode::truncate, result);
    ASSERT_NE(fd, Io::kBadFile);
    ASSERT_TRUE(io.write(fd, "12345"));  // 5 bytes, fits
    const IoResult overflow = io.write(fd, "678901234");  // 9 more: 5 fit
    ASSERT_FALSE(overflow);
    EXPECT_EQ(overflow.err, ENOSPC);
    (void)io.close(fd);
    EXPECT_EQ(read_back(path), "1234567890");
    // The disk STAYS full: later writes keep failing.
    const int fd2 = io.open_write(dir_ / "more.txt", Io::OpenMode::truncate, result);
    ASSERT_NE(fd2, Io::kBadFile);
    EXPECT_FALSE(io.write(fd2, "x"));
    (void)io.close(fd2);
}

TEST_F(IoTest, StickyFsyncFailureNeverRecovers) {
    faults::StorageFaultPlan plan;
    plan.fail_fsync_at = 2;
    faults::FaultIo io{Io::real(), plan};
    const auto path = dir_ / "sync.txt";
    IoResult result;
    const int fd = io.open_write(path, Io::OpenMode::truncate, result);
    ASSERT_NE(fd, Io::kBadFile);
    ASSERT_TRUE(io.write(fd, "abc"));
    EXPECT_TRUE(io.fsync(fd));   // fsync 1: fine
    EXPECT_FALSE(io.fsync(fd));  // fsync 2: EIO
    EXPECT_FALSE(io.fsync(fd));  // and forever after
    (void)io.close(fd);
}

TEST_F(IoTest, PowerLossDropsEverythingAfterTheLastFsync) {
    faults::StorageFaultPlan plan;
    plan.power_loss_at_write = 3;
    faults::FaultIo io{Io::real(), plan};
    const auto path = dir_ / "wal.txt";
    IoResult result;
    const int fd = io.open_write(path, Io::OpenMode::truncate, result);
    ASSERT_NE(fd, Io::kBadFile);
    ASSERT_TRUE(io.write(fd, "durable|"));
    ASSERT_TRUE(io.fsync(fd));
    ASSERT_TRUE(io.write(fd, "cached|"));
    ASSERT_TRUE(io.write(fd, "gone"));  // 3rd write: succeeds, then the cut
    EXPECT_TRUE(io.power_lost());
    EXPECT_FALSE(io.write(fd, "post-mortem"));
    EXPECT_TRUE(io.close(fd)) << "close stays quiet so RAII cleanup works";
    // Only the fsync-covered prefix survived the "reboot".
    EXPECT_EQ(read_back(path), "durable|");
}

TEST_F(IoTest, BitFlipAtRenameIsSilentPostHocCorruption) {
    faults::StorageFaultPlan plan;
    plan.flip_bit_at_rename = 1;
    plan.seed = 42;
    faults::FaultIo io{Io::real(), plan};
    const std::string content(256, 'A');
    const auto path = dir_ / "victim.bin";
    // write_file_atomic's publish rename triggers the flip — and reports
    // success, because the media lied AFTER the syscall returned.
    ASSERT_TRUE(write_file_atomic(io, path, content));
    const std::string stored = read_back(path);
    ASSERT_EQ(stored.size(), content.size());
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < stored.size(); ++i) {
        if (stored[i] != content[i]) ++diffs;
    }
    EXPECT_EQ(diffs, 1u) << "exactly one flipped bit";
    EXPECT_EQ(io.renames_done(), 1u);

    // Replayable: the same seed flips the same bit.
    faults::FaultIo replay{Io::real(), plan};
    const auto path2 = dir_ / "victim2.bin";
    ASSERT_TRUE(write_file_atomic(replay, path2, content));
    EXPECT_EQ(read_back(path2), stored);
}

}  // namespace
}  // namespace spinscope::util
