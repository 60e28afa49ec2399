// spinscope/util/proc.hpp
//
// Process and pipe helpers for multi-process campaign execution: liveness
// probes, CLOEXEC pipe pairs, line-oriented nonblocking channel reads, and a
// pid lock file with stale-owner detection.
//
// Everything here is POSIX-first (the procpool supervisor is a fork-based
// design, DESIGN.md §11); on platforms without fork/pipes the helpers
// degrade explicitly — Pipe construction throws and process_alive reports
// true (never falsely declare a process dead, which would break a lease).

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spinscope::util {

/// This process's pid (0 when the platform has no notion of one).
[[nodiscard]] long current_pid() noexcept;

/// True when a process with `pid` currently exists (kill(pid, 0) probe).
/// Conservative: on probe failure other than ESRCH — or on platforms without
/// the probe — reports true, so callers never treat a live owner as dead.
[[nodiscard]] bool process_alive(long pid) noexcept;

/// Unidirectional byte pipe (close-on-exec on both ends). The supervisor
/// keeps the read end, a forked worker keeps the write end; either side
/// closes its unused end after the fork.
class Pipe {
public:
    /// Throws std::runtime_error when the pipe cannot be created.
    Pipe();
    ~Pipe();

    Pipe(Pipe&& other) noexcept;
    Pipe& operator=(Pipe&& other) noexcept;
    Pipe(const Pipe&) = delete;
    Pipe& operator=(const Pipe&) = delete;

    [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
    [[nodiscard]] int write_fd() const noexcept { return write_fd_; }
    void close_read() noexcept;
    void close_write() noexcept;

private:
    int read_fd_ = -1;
    int write_fd_ = -1;
};

/// Writes `line` plus a trailing '\n' to `fd`, retrying on EINTR. Returns
/// false on any write error (including EPIPE — callers in a dying worker
/// must not crash on a vanished supervisor).
bool write_line(int fd, std::string_view line) noexcept;

/// Buffered line splitter over a nonblocking fd, for poll loops: drain()
/// reads whatever is available and appends every complete '\n'-terminated
/// line (without the '\n') to `out`.
class LineReader {
public:
    explicit LineReader(int fd) noexcept : fd_{fd} {}

    /// Returns false once the peer closed the pipe (EOF); a partial final
    /// line is delivered at EOF too. true = the channel is still open.
    bool drain(std::vector<std::string>& out);

private:
    int fd_;
    std::string buffer_;
    bool eof_ = false;
};

/// Makes `fd` nonblocking; returns false on failure.
bool set_nonblocking(int fd) noexcept;

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
