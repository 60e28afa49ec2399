// spinscope/util/io.hpp
//
// Injectable storage seam (DESIGN.md §16): every write-side filesystem
// operation the campaign pipeline performs — journal record publishes,
// lease claims, lock files — goes through an Io instance instead of
// calling the OS directly. Production code uses Io::real(); tests inject
// faults::FaultIo to make the disk lie deterministically (ENOSPC, EIO on
// fsync, short writes, power loss) and assert that every write path reacts
// correctly instead of trusting the hardware.
//
// Operations return errno-carrying IoResults, so callers can distinguish
// ENOSPC (degrade gracefully) from EEXIST (lost a claim race) from EIO (the
// data on media is now suspect) instead of collapsing every failure into one
// bool.

#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

namespace spinscope::util {

/// Outcome of one storage operation: errno on failure, 0 on success.
struct IoResult {
    int err = 0;

    [[nodiscard]] static IoResult success() noexcept { return {}; }
    /// A failure result; a zero errno (some libc calls fail without setting
    /// one) is reported as EIO so a failure never masquerades as success.
    [[nodiscard]] static IoResult failure(int captured_errno) noexcept;

    [[nodiscard]] bool ok() const noexcept { return err == 0; }
    explicit operator bool() const noexcept { return ok(); }

    /// Human-readable cause, e.g. "No space left on device (errno 28)".
    [[nodiscard]] std::string message() const;
};

/// Reaction taxonomy for storage errors (DESIGN.md §16). The class decides
/// the write path's response, not the severity of the message:
///
///   transient   momentary resource pressure (EINTR, EAGAIN, ENOMEM, EBUSY,
///               fd exhaustion) — retry through faults::RetryPolicy.
///   fatal       the operation cannot succeed by retrying (ENOSPC, EROFS,
///               EACCES, ENOENT, ...) but what was already written is sound —
///               seal what is durable and degrade gracefully.
///   corrupting  the device itself misbehaved (EIO, notably on fsync): the
///               state of previously written bytes on media is unknown, so
///               nothing may be published as durable past this point.
enum class IoErrorClass { transient, fatal, corrupting };

[[nodiscard]] IoErrorClass classify_io_error(int err) noexcept;
[[nodiscard]] const char* to_cstring(IoErrorClass cls) noexcept;

/// Abstract write-side filesystem. Handles are plain ints (the real
/// implementation hands out OS file descriptors); kBadFile marks failure.
/// Implementations must be safe to share across threads performing
/// independent operations (the fault decorator serializes internally).
class Io {
public:
    static constexpr int kBadFile = -1;

    enum class OpenMode {
        truncate,   ///< create or truncate, write from the start
        append,     ///< create if absent, write at the end
        exclusive,  ///< O_EXCL claim: fail with EEXIST when the file exists
    };

    virtual ~Io() = default;

    /// Opens `path` for writing; returns a handle or kBadFile with `result`
    /// carrying the errno.
    [[nodiscard]] virtual int open_write(const std::filesystem::path& path, OpenMode mode,
                                         IoResult& result) = 0;
    /// Writes all of `bytes` (restarting on EINTR); a short write reports the
    /// underlying errno and may have persisted a prefix.
    [[nodiscard]] virtual IoResult write(int file, std::string_view bytes) = 0;
    [[nodiscard]] virtual IoResult fsync(int file) = 0;
    /// Truncates the open file to `size` bytes (append-mode writers use this
    /// to roll back a partially persisted record before retrying).
    [[nodiscard]] virtual IoResult truncate(int file, std::uint64_t size) = 0;
    virtual IoResult close(int file) = 0;
    [[nodiscard]] virtual IoResult rename(const std::filesystem::path& from,
                                          const std::filesystem::path& to) = 0;
    /// Removes `path`; removing an absent file succeeds.
    virtual IoResult remove(const std::filesystem::path& path) = 0;
    /// Opens `path` (a file or, with `directory`, a directory) and fsyncs it.
    [[nodiscard]] virtual IoResult fsync_path(const std::filesystem::path& path,
                                              bool directory) = 0;

    /// The real filesystem. One shared stateless instance; never deleted.
    [[nodiscard]] static Io& real() noexcept;
};

/// The campaign convention for optional seams: nullptr means the real disk.
[[nodiscard]] inline Io& resolve_io(Io* io) noexcept {
    return io != nullptr ? *io : Io::real();
}

}  // namespace spinscope::util
