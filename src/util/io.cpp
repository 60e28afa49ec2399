#include "util/io.hpp"

#include <cerrno>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

namespace spinscope::util {

IoResult IoResult::failure(int captured_errno) noexcept {
    return IoResult{captured_errno != 0 ? captured_errno : EIO};
}

std::string IoResult::message() const {
    if (err == 0) return "ok";
    return std::error_code(err, std::generic_category()).message() + " (errno " +
           std::to_string(err) + ")";
}

IoErrorClass classify_io_error(int err) noexcept {
    switch (err) {
        case EINTR:
        case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
        case EWOULDBLOCK:
#endif
        case EBUSY:
        case ENOMEM:
        case EMFILE:
        case ENFILE:
            return IoErrorClass::transient;
        case EIO:
            return IoErrorClass::corrupting;
        default:
            return IoErrorClass::fatal;
    }
}

namespace {

#ifndef _WIN32

class RealIo final : public Io {
public:
    int open_write(const std::filesystem::path& path, OpenMode mode,
                   IoResult& result) override {
        int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
        switch (mode) {
            case OpenMode::truncate: flags |= O_TRUNC; break;
            case OpenMode::exclusive: flags |= O_EXCL; break;
        }
        int fd = -1;
        do {
            fd = ::open(path.c_str(), flags, 0644);
        } while (fd < 0 && errno == EINTR);
        if (fd < 0) {
            result = IoResult::failure(errno);
            return kBadFile;
        }
        result = IoResult::success();
        return fd;
    }

    IoResult write(int file, std::string_view bytes) override {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ::ssize_t n = ::write(file, bytes.data() + off, bytes.size() - off);
            if (n < 0) {
                if (errno == EINTR) continue;
                return IoResult::failure(errno);
            }
            off += static_cast<std::size_t>(n);
        }
        return IoResult::success();
    }

    IoResult fsync(int file) override {
        return ::fsync(file) == 0 ? IoResult::success() : IoResult::failure(errno);
    }

    IoResult close(int file) override {
        // No EINTR retry: POSIX leaves the fd state unspecified after an
        // interrupted close, and retrying can close a reused descriptor.
        return ::close(file) == 0 ? IoResult::success() : IoResult::failure(errno);
    }

    IoResult rename(const std::filesystem::path& from,
                    const std::filesystem::path& to) override {
        std::error_code ec;
        std::filesystem::rename(from, to, ec);
        return ec ? IoResult::failure(ec.value()) : IoResult::success();
    }

    IoResult remove(const std::filesystem::path& path) override {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return ec ? IoResult::failure(ec.value()) : IoResult::success();
    }

    IoResult fsync_path(const std::filesystem::path& path, bool directory) override {
        const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
        const int fd = ::open(path.c_str(), flags);
        if (fd < 0) return IoResult::failure(errno);
        const IoResult synced = fsync(fd);
        ::close(fd);
        return synced;
    }
};

#else  // _WIN32

/// Degraded stdio-backed fallback: handles are indices into a FILE* table,
/// fsync is a flush (power-cut durability is weakened, same caveat the
/// pre-seam atomic_file carried on this platform).
class RealIo final : public Io {
public:
    int open_write(const std::filesystem::path& path, OpenMode mode,
                   IoResult& result) override {
        const char* flags = mode == OpenMode::truncate ? "wb" : "wbx";
        std::FILE* f = std::fopen(path.string().c_str(), flags);
        if (f == nullptr) {
            result = IoResult::failure(errno);
            return kBadFile;
        }
        for (int i = 0; i < kMaxFiles; ++i) {
            if (files_[i] == nullptr) {
                files_[i] = f;
                result = IoResult::success();
                return i;
            }
        }
        std::fclose(f);
        result = IoResult::failure(EMFILE);
        return kBadFile;
    }

    IoResult write(int file, std::string_view bytes) override {
        std::FILE* f = lookup(file);
        if (f == nullptr) return IoResult::failure(EBADF);
        if (!bytes.empty() &&
            std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
            return IoResult::failure(errno);
        }
        return IoResult::success();
    }

    IoResult fsync(int file) override {
        std::FILE* f = lookup(file);
        if (f == nullptr) return IoResult::failure(EBADF);
        return std::fflush(f) == 0 ? IoResult::success() : IoResult::failure(errno);
    }

    IoResult close(int file) override {
        std::FILE* f = lookup(file);
        if (f == nullptr) return IoResult::failure(EBADF);
        files_[file] = nullptr;
        return std::fclose(f) == 0 ? IoResult::success() : IoResult::failure(errno);
    }

    IoResult rename(const std::filesystem::path& from,
                    const std::filesystem::path& to) override {
        std::error_code ec;
        std::filesystem::rename(from, to, ec);
        return ec ? IoResult::failure(ec.value()) : IoResult::success();
    }

    IoResult remove(const std::filesystem::path& path) override {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return ec ? IoResult::failure(ec.value()) : IoResult::success();
    }

    IoResult fsync_path(const std::filesystem::path&, bool) override {
        return IoResult::success();
    }

private:
    static constexpr int kMaxFiles = 256;

    std::FILE* lookup(int file) const {
        return file >= 0 && file < kMaxFiles ? files_[file] : nullptr;
    }

    std::FILE* files_[kMaxFiles] = {};
};

#endif

}  // namespace

Io& Io::real() noexcept {
    static RealIo io;
    return io;
}

}  // namespace spinscope::util
