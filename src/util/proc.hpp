// spinscope/util/proc.hpp
//
// Process and channel helpers for multi-process campaign execution: liveness
// probes, CLOEXEC socket pairs, nonblocking channel reads and writes, and
// a pid lock file with stale-owner detection.
//
// Everything here is POSIX-first (the procpool supervisor is a fork-based
// design, DESIGN.md §11); on platforms without fork/sockets the helpers
// degrade explicitly — Pipe construction throws and process_alive reports
// true (never falsely declare a process dead, which would break a lock).

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace spinscope::util {

/// This process's pid (0 when the platform has no notion of one).
[[nodiscard]] long current_pid() noexcept;

/// True when a process with `pid` currently exists (kill(pid, 0) probe).
/// Conservative: on probe failure other than ESRCH — or on platforms without
/// the probe — reports true, so callers never treat a live owner as dead.
[[nodiscard]] bool process_alive(long pid) noexcept;

/// Bidirectional byte channel: a close-on-exec stream socketpair. The
/// supervisor keeps the parent end, a forked worker keeps the child end;
/// each side closes the other's end after the fork. Closing one end makes
/// the other read EOF.
class Pipe {
public:
    /// Throws std::runtime_error when the pipe cannot be created.
    Pipe();
    ~Pipe();

    Pipe(Pipe&& other) noexcept;
    Pipe(const Pipe&) = delete;
    Pipe& operator=(const Pipe&) = delete;

    [[nodiscard]] int parent_fd() const noexcept { return parent_fd_; }
    [[nodiscard]] int child_fd() const noexcept { return child_fd_; }
    void close_parent() noexcept;
    void close_child() noexcept;

private:
    int parent_fd_ = -1;
    int child_fd_ = -1;
};

/// Sends `bytes` on the socket `fd`, retrying on EINTR and waiting out a
/// full buffer. Returns false on any other error. A vanished peer is EPIPE,
/// never SIGPIPE (MSG_NOSIGNAL), so neither end can be killed by the other's
/// death.
bool write_all(int fd, std::string_view bytes) noexcept;

/// Makes `fd` nonblocking; returns false on failure.
bool set_nonblocking(int fd) noexcept;

/// For poll loops over a nonblocking fd: appends every byte available now
/// to `buffer`. Returns false once the peer closed the channel (EOF).
bool read_available(int fd, std::string& buffer);

/// A pid lock file (`journal.lock` and friends): atomically created with
/// O_EXCL, containing the owner's pid. A lock whose owner pid no longer
/// exists is stale and is silently broken and re-acquired — crash-safe
/// without manual cleanup. A lock held by a LIVE process refuses loudly.
class PidLockFile {
public:
    PidLockFile() = default;
    ~PidLockFile() { release(); }

    PidLockFile(const PidLockFile&) = delete;
    PidLockFile& operator=(const PidLockFile&) = delete;

    /// Acquires `path` for this process. Throws std::runtime_error naming
    /// the owning pid when the lock is held by a live process, or when the
    /// lock file cannot be created.
    void acquire(const std::filesystem::path& path);

    /// Removes the lock file (only if still ours); idempotent.
    void release() noexcept;

    [[nodiscard]] bool held() const noexcept { return held_; }

    /// The pid recorded in a lock file; nullopt when absent or garbled.
    [[nodiscard]] static std::optional<long> owner(const std::filesystem::path& path);

private:
    std::filesystem::path path_;
    bool held_ = false;
};

}  // namespace spinscope::util
