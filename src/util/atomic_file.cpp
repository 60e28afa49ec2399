#include "util/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <string>
#include <system_error>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace spinscope::util {

namespace {

/// Temp-file name next to `path`; the PID suffix keeps concurrent writers of
/// different processes from clobbering each other's temp files, and the
/// process-wide serial keeps concurrent threads of ONE process (sharded
/// chunk workers publishing into one journal dir) from clobbering each
/// other's temp files too.
std::filesystem::path temp_sibling(const std::filesystem::path& path) {
#ifndef _WIN32
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    static std::atomic<unsigned long> serial{0};
    const unsigned long n = serial.fetch_add(1, std::memory_order_relaxed);
    std::filesystem::path temp = path;
    temp += ".tmp." + std::to_string(pid) + "." + std::to_string(n);
    return temp;
}

/// Write + fsync + close an already-opened handle; on any failure the file at
/// `path` is removed best-effort and the first error is returned.
IoResult finish_new_file(Io& io, int fd, const std::filesystem::path& path,
                         std::span<const std::string_view> pieces) {
    IoResult result;
    for (std::size_t i = 0; i < pieces.size() && result; ++i) result = io.write(fd, pieces[i]);
    if (result) result = io.fsync(fd);
    if (result) {
        result = io.close(fd);
    } else {
        (void)io.close(fd);
    }
    if (!result) (void)io.remove(path);
    return result;
}

}  // namespace

IoResult write_file_atomic(Io& io, const std::filesystem::path& path,
                           std::string_view content) {
    return write_file_atomic(io, path, std::span{&content, 1});
}

IoResult write_file_atomic(Io& io, const std::filesystem::path& path,
                           std::span<const std::string_view> pieces) {
    const std::filesystem::path temp = temp_sibling(path);
    IoResult result;
    const int fd = io.open_write(temp, Io::OpenMode::truncate, result);
    if (fd == Io::kBadFile) return result;
    result = finish_new_file(io, fd, temp, pieces);
    if (!result) return result;
    result = rename_durable(io, temp, path);
    if (!result) (void)io.remove(temp);
    return result;
}

IoResult rename_durable(Io& io, const std::filesystem::path& from,
                        const std::filesystem::path& to) {
    const IoResult renamed = io.rename(from, to);
    if (!renamed) return renamed;
    // Persist the directory entries. The rename already happened, so sync
    // failure here must NOT be reported as rename failure — callers would
    // react by deleting or rewriting a file that is correctly published.
    const std::filesystem::path to_dir =
        to.has_parent_path() ? to.parent_path() : std::filesystem::path{"."};
    (void)io.fsync_path(to_dir, /*directory=*/true);
    const std::filesystem::path from_dir =
        from.has_parent_path() ? from.parent_path() : std::filesystem::path{"."};
    std::error_code ec;
    if (!std::filesystem::equivalent(to_dir, from_dir, ec) && !ec) {
        // Cross-directory rename: also persist the removal of the old entry,
        // or a power cut can resurrect the source name next to the new one.
        (void)io.fsync_path(from_dir, /*directory=*/true);
    }
    return IoResult::success();
}

IoResult fsync_dir(Io& io, const std::filesystem::path& dir) {
    return io.fsync_path(dir.empty() ? std::filesystem::path{"."} : dir,
                         /*directory=*/true);
}

IoResult create_file_exclusive(Io& io, const std::filesystem::path& path,
                               std::string_view content) {
    IoResult result;
    const int fd = io.open_write(path, Io::OpenMode::exclusive, result);
    if (fd == Io::kBadFile) return result;
    return finish_new_file(io, fd, path, std::span{&content, 1});
}

}  // namespace spinscope::util
