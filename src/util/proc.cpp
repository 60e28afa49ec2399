#include "util/proc.hpp"

#include "util/atomic_file.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace spinscope::util {

long current_pid() noexcept {
#ifndef _WIN32
    return static_cast<long>(::getpid());
#else
    return 0;
#endif
}

bool process_alive(long pid) noexcept {
#ifndef _WIN32
    if (pid <= 0) return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
    return errno != ESRCH;
#else
    (void)pid;
    return true;  // no probe: never declare a possibly-live owner dead
#endif
}

// ---------------------------------------------------------------------------
// Pipe

Pipe::Pipe() {
#ifndef _WIN32
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error{std::string{"util: socketpair() failed: "} +
                                 std::strerror(errno)};
    }
    parent_fd_ = fds[0];
    child_fd_ = fds[1];
    ::fcntl(parent_fd_, F_SETFD, FD_CLOEXEC);
    ::fcntl(child_fd_, F_SETFD, FD_CLOEXEC);
#else
    throw std::runtime_error{"util: socket pairs are not supported on this platform"};
#endif
}

Pipe::~Pipe() {
    close_parent();
    close_child();
}

Pipe::Pipe(Pipe&& other) noexcept
    : parent_fd_{other.parent_fd_}, child_fd_{other.child_fd_} {
    other.parent_fd_ = -1;
    other.child_fd_ = -1;
}

void Pipe::close_parent() noexcept {
#ifndef _WIN32
    if (parent_fd_ >= 0) ::close(parent_fd_);
#endif
    parent_fd_ = -1;
}

void Pipe::close_child() noexcept {
#ifndef _WIN32
    if (child_fd_ >= 0) ::close(child_fd_);
#endif
    child_fd_ = -1;
}

bool write_all(int fd, std::string_view bytes) noexcept {
#ifndef _WIN32
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // A nonblocking end with a full buffer: wait for room.
                struct pollfd out{fd, POLLOUT, 0};
                (void)::poll(&out, 1, -1);
                continue;
            }
            return false;  // EPIPE and friends: the peer is gone
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
#else
    (void)fd;
    (void)bytes;
    return false;
#endif
}

bool set_nonblocking(int fd) noexcept {
#ifndef _WIN32
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
#else
    (void)fd;
    return false;
#endif
}

bool read_available(int fd, std::string& buffer) {
#ifndef _WIN32
    char chunk[16384];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n > 0) {
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) return false;
        if (errno == EINTR) continue;
        return true;  // EAGAIN/EWOULDBLOCK: drained everything available for now
    }
#else
    (void)fd;
    (void)buffer;
    return false;
#endif
}

// ---------------------------------------------------------------------------
// PidLockFile

std::optional<long> PidLockFile::owner(const std::filesystem::path& path) {
    std::FILE* f = std::fopen(path.string().c_str(), "rb");
    if (f == nullptr) return std::nullopt;
    char buf[64] = {};
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    if (n == 0) return std::nullopt;
    char* end = nullptr;
    const long pid = std::strtol(buf, &end, 10);
    if (end == buf || pid <= 0) return std::nullopt;
    return pid;
}

void PidLockFile::acquire(const std::filesystem::path& path) {
    release();
    const std::string content = std::to_string(current_pid()) + "\n";
    IoResult last = IoResult::success();
    for (int attempt = 0; attempt < 2; ++attempt) {
        last = create_file_exclusive(Io::real(), path, content);
        if (last) {
            path_ = path;
            held_ = true;
            return;
        }
        const auto pid = owner(path);
        if (pid && process_alive(*pid) && *pid != current_pid()) {
            throw std::runtime_error{
                "util: " + path.string() + " is locked by a running process (pid " +
                std::to_string(*pid) + ") — refusing to share it"};
        }
        // Stale (owner dead, garbled, or a leftover of our own crashed run):
        // break the lock and retry the exclusive create exactly once.
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    throw std::runtime_error{"util: cannot create lock file " + path.string() +
                             ": " + last.message()};
}

void PidLockFile::release() noexcept {
    if (!held_) return;
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    held_ = false;
}

}  // namespace spinscope::util
