// spinscope/faults/storage.hpp
//
// Deterministic storage-fault injection (DESIGN.md §16): FaultIo wraps a real
// util::Io and makes the disk lie on cue. A StorageFaultPlan is a small
// grammar of "when does it lie, and how" — fail the Nth write, run out of
// space after K bytes, refuse every fsync from the Nth on, cut power after
// the Nth write, flip a bit in the Nth renamed file. Every plan is seeded and
// replayable, so the diskchaos sweep can enumerate fault × injection-point
// combinations and assert the same campaign-level outcome every run: either
// byte-identical output, or a loud attributed refusal that scrub + resume
// recovers from. No wall clock, no real entropy.

#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>

#include "util/io.hpp"

namespace spinscope::faults {

/// Declarative fault plan. Counters are 1-based ordinals over the operations
/// FaultIo observes; 0 disables that fault. Plans compose — a sweep usually
/// enables exactly one knob per run so failures stay attributable.
struct StorageFaultPlan {
    /// Fail the Nth write() outright with `write_error`; no bytes persist.
    std::uint64_t fail_write_at = 0;
    /// On the Nth write(), persist only the first half of the buffer, then
    /// report `write_error` — the classic torn/short write.
    std::uint64_t short_write_at = 0;
    /// errno reported by fail_write_at / short_write_at. ENOSPC models a full
    /// disk; EIO models a dying one.
    int write_error = EIO;
    /// After this many bytes have been persisted (across all files), every
    /// further write persists only what still "fits" and reports ENOSPC —
    /// a disk that fills mid-campaign and stays full.
    std::uint64_t enospc_after_bytes = 0;
    /// The Nth and every subsequent fsync()/fsync_path() fails with EIO.
    /// Sticky on purpose: a device that cannot flush does not recover because
    /// the caller asked twice.
    std::uint64_t fail_fsync_at = 0;
    /// Immediately after the Nth successful write, simulate a power cut:
    /// every file loses all bytes written since its last successful fsync,
    /// and all subsequent operations fail with EIO (the machine is "off").
    /// close() still succeeds so RAII cleanup stays quiet.
    std::uint64_t power_loss_at_write = 0;
    /// After the Nth rename(), flip one seeded-random bit in the renamed
    /// file. The rename reports success — this is post-hoc media corruption
    /// (the lie scrub exists to catch), not an I/O error.
    std::uint64_t flip_bit_at_rename = 0;
    /// Seed for the bit-flip position stream.
    std::uint64_t seed = 0x5eed;

    /// Throws std::invalid_argument on a contradictory plan.
    void validate() const;
};

/// Io decorator applying a StorageFaultPlan on top of a base Io. Thread-safe:
/// one internal mutex serializes operation accounting, so an N-thread
/// campaign sees one global operation ordering (which ordinal fires may vary
/// across runs with threads > 1; the diskchaos sweep's invariant — identical
/// output or attributed refusal — holds regardless of which write loses).
///
/// Power-loss bookkeeping tracks, per file, the durable length (bytes covered
/// by the last successful fsync). At the cut, open files and files
/// written-then-closed without an fsync are both cut back to their durable
/// length on their tracked path — modelling page-cache loss.
class FaultIo final : public util::Io {
public:
    FaultIo(util::Io& base, StorageFaultPlan plan);

    [[nodiscard]] int open_write(const std::filesystem::path& path, OpenMode mode,
                                 util::IoResult& result) override;
    [[nodiscard]] util::IoResult write(int file, std::string_view bytes) override;
    [[nodiscard]] util::IoResult fsync(int file) override;
    util::IoResult close(int file) override;
    [[nodiscard]] util::IoResult rename(const std::filesystem::path& from,
                                        const std::filesystem::path& to) override;
    util::IoResult remove(const std::filesystem::path& path) override;
    [[nodiscard]] util::IoResult fsync_path(const std::filesystem::path& path,
                                            bool directory) override;

    /// Introspection for sweep assertions.
    [[nodiscard]] std::uint64_t writes_attempted() const;
    [[nodiscard]] std::uint64_t fsyncs_attempted() const;
    [[nodiscard]] std::uint64_t renames_done() const;
    [[nodiscard]] std::uint64_t faults_injected() const;
    [[nodiscard]] bool power_lost() const;

private:
    struct OpenFile {
        std::filesystem::path path;
        std::uint64_t size = 0;     ///< bytes written through this handle's view
        std::uint64_t durable = 0;  ///< bytes covered by the last good fsync
    };

    util::IoResult write_locked(int file, std::string_view bytes);
    void cut_power_locked();
    void flip_bit_in(const std::filesystem::path& path);

    util::Io& base_;
    const StorageFaultPlan plan_;
    mutable std::mutex mutex_;
    std::uint64_t writes_ = 0;
    std::uint64_t fsyncs_ = 0;
    std::uint64_t renames_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t flip_rng_state_;
    bool power_lost_ = false;
    std::map<int, OpenFile> open_;
    /// Closed-but-never-fsynced files: path → durable length, truncated to
    /// that length if power is cut before an fsync_path covers them.
    std::map<std::string, std::uint64_t> unsynced_;
};

}  // namespace spinscope::faults
