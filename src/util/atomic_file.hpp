// spinscope/util/atomic_file.hpp
//
// Crash-safe file publication: write-to-temp + fsync + rename.
//
// The campaign pipeline persists state a crash must never tear — telemetry
// sidecars, journal record files. POSIX rename() within one filesystem is
// atomic, so a reader (or a resumed campaign) only ever observes the old
// file or the complete new file, never a partial write.
// fsync-before-rename closes the remaining window where the rename survives
// a power cut but the data it points at does not.
//
// Every primitive runs through an Io (util::Io::real() for the real disk)
// and returns an errno-carrying IoResult, so callers can tell ENOSPC from
// EEXIST from EIO and tests can inject storage faults.

#pragma once

#include <filesystem>
#include <span>
#include <string_view>

#include "util/io.hpp"

namespace spinscope::util {

/// Writes `content` to `path` atomically: the bytes land in a temp file next
/// to `path` (same directory, so the rename never crosses filesystems), are
/// flushed and fsynced, and the temp file is renamed over `path`. On failure
/// the temp file is removed best-effort and `path` is left untouched (either
/// its previous content or absent); the result carries the first errno hit.
[[nodiscard]] IoResult write_file_atomic(Io& io, const std::filesystem::path& path,
                                         std::string_view content);
/// The same with the content given as pieces written back to back, so a
/// caller holding them apart need not copy them into one buffer first.
[[nodiscard]] IoResult write_file_atomic(Io& io, const std::filesystem::path& path,
                                         std::span<const std::string_view> pieces);

/// Durably renames `from` onto `to`: fsyncing `from`'s data is the caller's
/// job (write_file_atomic does it); this performs the atomic rename and then
/// fsyncs the containing directory (both directories, when the rename
/// crosses them) so the moved directory entry itself survives a crash —
/// without the source-side sync a power cut can resurrect the old name next
/// to the new one. Fails only when the rename itself fails, leaving `from` in
/// place; a failed directory sync after a successful rename still reports
/// success (the file IS published — reporting failure would make callers
/// delete or rewrite it).
[[nodiscard]] IoResult rename_durable(Io& io, const std::filesystem::path& from,
                                      const std::filesystem::path& to);

/// Best-effort fsync of a directory by path, persisting its entries (used
/// after creating a journal directory so the directory itself survives a
/// power cut). Fails when the directory cannot be opened or synced.
[[nodiscard]] IoResult fsync_dir(Io& io, const std::filesystem::path& dir);

/// Atomically creates `path` with `content` iff it does not already exist
/// (O_EXCL). This is the claim primitive behind lock files: of N
/// concurrent creators exactly one succeeds. A lost race reports EEXIST —
/// the one storage "failure" that is business as usual — while real I/O
/// errors carry their own errno; a partially-written file is removed
/// best-effort so a loser never observes a torn winner.
[[nodiscard]] IoResult create_file_exclusive(Io& io, const std::filesystem::path& path,
                                             std::string_view content);

}  // namespace spinscope::util
