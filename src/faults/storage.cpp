#include "faults/storage.hpp"

#include <cerrno>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace spinscope::faults {

namespace {

/// splitmix64 step: the one-line generator used for seed derivation
/// elsewhere; good enough for picking a bit to flip.
std::uint64_t next_u64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t file_size_or_zero(const std::filesystem::path& path) noexcept {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

void StorageFaultPlan::validate() const {
    if (fail_write_at != 0 && short_write_at != 0) {
        throw std::invalid_argument{
            "faults: fail_write_at and short_write_at target the same write path; "
            "enable one per plan"};
    }
    if (write_error == 0) {
        throw std::invalid_argument{"faults: write_error must be a nonzero errno"};
    }
}

FaultIo::FaultIo(util::Io& base, StorageFaultPlan plan)
    : base_{base}, plan_{plan}, flip_rng_state_{plan.seed} {
    plan_.validate();
}

int FaultIo::open_write(const std::filesystem::path& path, OpenMode mode,
                        util::IoResult& result) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (power_lost_) {
        result = util::IoResult::failure(EIO);
        return kBadFile;
    }
    const int fd = base_.open_write(path, mode, result);
    if (fd == kBadFile) return kBadFile;
    OpenFile state;
    state.path = path;
    open_[fd] = std::move(state);
    return fd;
}

util::IoResult FaultIo::write(int file, std::string_view bytes) {
    std::lock_guard<std::mutex> lock{mutex_};
    return write_locked(file, bytes);
}

util::IoResult FaultIo::write_locked(int file, std::string_view bytes) {
    if (power_lost_) return util::IoResult::failure(EIO);
    ++writes_;
    auto* state = open_.count(file) != 0 ? &open_[file] : nullptr;

    if (plan_.fail_write_at != 0 && writes_ == plan_.fail_write_at) {
        ++faults_;
        return util::IoResult::failure(plan_.write_error);
    }
    if (plan_.short_write_at != 0 && writes_ == plan_.short_write_at) {
        ++faults_;
        const std::string_view half = bytes.substr(0, bytes.size() / 2);
        if (!half.empty() && base_.write(file, half)) {
            if (state != nullptr) state->size += half.size();
            bytes_written_ += half.size();
        }
        return util::IoResult::failure(plan_.write_error);
    }
    if (plan_.enospc_after_bytes != 0 &&
        bytes_written_ + bytes.size() > plan_.enospc_after_bytes) {
        ++faults_;
        const std::uint64_t room = plan_.enospc_after_bytes > bytes_written_
                                       ? plan_.enospc_after_bytes - bytes_written_
                                       : 0;
        const std::string_view fits = bytes.substr(0, static_cast<std::size_t>(room));
        if (!fits.empty() && base_.write(file, fits)) {
            if (state != nullptr) state->size += fits.size();
            bytes_written_ += fits.size();
        }
        return util::IoResult::failure(ENOSPC);
    }

    const util::IoResult result = base_.write(file, bytes);
    if (result) {
        if (state != nullptr) state->size += bytes.size();
        bytes_written_ += bytes.size();
        if (plan_.power_loss_at_write != 0 && writes_ == plan_.power_loss_at_write) {
            ++faults_;
            cut_power_locked();
        }
    }
    return result;
}

util::IoResult FaultIo::fsync(int file) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (power_lost_) return util::IoResult::failure(EIO);
    ++fsyncs_;
    if (plan_.fail_fsync_at != 0 && fsyncs_ >= plan_.fail_fsync_at) {
        ++faults_;
        return util::IoResult::failure(EIO);
    }
    const util::IoResult result = base_.fsync(file);
    if (result) {
        const auto it = open_.find(file);
        if (it != open_.end()) it->second.durable = it->second.size;
    }
    return result;
}

util::IoResult FaultIo::close(int file) {
    std::lock_guard<std::mutex> lock{mutex_};
    // Always allowed, even "after the power cut": callers' RAII cleanup must
    // be able to release the real descriptor.
    const auto it = open_.find(file);
    if (it != open_.end()) {
        if (it->second.durable < it->second.size) {
            unsynced_[it->second.path.string()] = it->second.durable;
        } else {
            unsynced_.erase(it->second.path.string());
        }
        open_.erase(it);
    }
    return base_.close(file);
}

util::IoResult FaultIo::rename(const std::filesystem::path& from,
                               const std::filesystem::path& to) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (power_lost_) return util::IoResult::failure(EIO);
    const util::IoResult result = base_.rename(from, to);
    if (!result) return result;
    ++renames_;
    const auto it = unsynced_.find(from.string());
    if (it != unsynced_.end()) {
        unsynced_[to.string()] = it->second;
        unsynced_.erase(it);
    }
    if (plan_.flip_bit_at_rename != 0 && renames_ == plan_.flip_bit_at_rename) {
        ++faults_;
        // Post-hoc media corruption: the rename still reports success — the
        // caller has no way to know, which is exactly what scrub is for.
        flip_bit_in(to);
    }
    return result;
}

util::IoResult FaultIo::remove(const std::filesystem::path& path) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (power_lost_) return util::IoResult::failure(EIO);
    unsynced_.erase(path.string());
    return base_.remove(path);
}

util::IoResult FaultIo::fsync_path(const std::filesystem::path& path, bool directory) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (power_lost_) return util::IoResult::failure(EIO);
    ++fsyncs_;
    if (plan_.fail_fsync_at != 0 && fsyncs_ >= plan_.fail_fsync_at) {
        ++faults_;
        return util::IoResult::failure(EIO);
    }
    const util::IoResult result = base_.fsync_path(path, directory);
    if (result && !directory) unsynced_.erase(path.string());
    return result;
}

void FaultIo::cut_power_locked() {
    power_lost_ = true;
    for (auto& [fd, state] : open_) {
        std::error_code ec;
        std::filesystem::resize_file(state.path, state.durable, ec);
        state.size = state.durable;
    }
    for (const auto& [path, durable] : unsynced_) {
        std::error_code ec;
        if (file_size_or_zero(path) > durable) {
            std::filesystem::resize_file(path, durable, ec);
        }
    }
    unsynced_.clear();
}

void FaultIo::flip_bit_in(const std::filesystem::path& path) {
    const std::uint64_t size = file_size_or_zero(path);
    if (size == 0) return;
    const std::uint64_t offset = next_u64(flip_rng_state_) % size;
    const int bit = static_cast<int>(next_u64(flip_rng_state_) % 8);
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    if (!f) return;
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    if (!f.get(byte)) return;
    byte = static_cast<char>(byte ^ (1 << bit));
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(byte);
}

std::uint64_t FaultIo::writes_attempted() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return writes_;
}

std::uint64_t FaultIo::fsyncs_attempted() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return fsyncs_;
}

std::uint64_t FaultIo::renames_done() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return renames_;
}

std::uint64_t FaultIo::faults_injected() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return faults_;
}

bool FaultIo::power_lost() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return power_lost_;
}

}  // namespace spinscope::faults
