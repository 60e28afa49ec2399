#include "scanner/shard.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace spinscope::scanner {

unsigned ShardConfig::resolved_threads() const noexcept {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::size_t ShardConfig::window_chunks() const noexcept {
    return std::max<std::size_t>(std::size_t{4} * resolved_threads(), 32);
}

std::string describe_chunk(const ShardPlan& plan, std::size_t chunk) {
    return "chunk " + std::to_string(chunk) + " (domains [" +
           std::to_string(plan.chunk_begin(chunk)) + ", " +
           std::to_string(plan.chunk_end(chunk)) + "))";
}

// The executor bounds the scanned-but-unmerged backlog with a merge window
// of W chunks: per-chunk completion state lives in rings of size W indexed
// `chunk % W`, and a worker that claims chunk c waits until c < merged + W
// before scanning. The cursor hands out chunks in ascending order, so the
// chunk the merge thread is waiting on (c == merged) was claimed before any
// blocked chunk and its own admission test is trivially true — the window
// never deadlocks. Slot `c % W` is reused by chunk c + W only after merge(c)
// advanced the frontier, so ring slots never alias live state.

void run_sharded(const ShardConfig& config, const ShardPlan& plan,
                 const std::function<void(std::size_t chunk)>& scan,
                 const std::function<void(std::size_t chunk)>& merge) {
    const std::size_t chunks = plan.chunk_count();
    if (chunks == 0) return;

    // More workers than chunks would only park threads on an empty cursor.
    const std::size_t workers =
        std::min<std::size_t>(config.resolved_threads(), chunks);
    const std::size_t window =
        std::min<std::size_t>(config.window_chunks(), chunks);

    std::mutex mu;
    std::condition_variable progress;    // chunk done OR merge frontier moved
    std::vector<char> done(window, 0);   // ring, slot c % window; guarded by mu
    std::size_t merged = 0;              // merge frontier; guarded by mu
    std::exception_ptr failure;          // guarded by mu; first failure wins
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> cancelled{false};

    const auto fail_with_current_exception = [&] {
        cancelled.store(true, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock{mu};
            if (!failure) failure = std::current_exception();
        }
        progress.notify_all();
    };

    const auto worker_main = [&] {
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= chunks) return;
            {
                // Backpressure: stay within `window` chunks of the merge
                // frontier so unmerged results cannot pile up.
                std::unique_lock<std::mutex> lock{mu};
                progress.wait(lock, [&] {
                    return chunk < merged + window || failure != nullptr ||
                           cancelled.load(std::memory_order_relaxed);
                });
                if (failure != nullptr || cancelled.load(std::memory_order_relaxed)) {
                    return;
                }
            }
            try {
                scan(chunk);
            } catch (...) {
                fail_with_current_exception();
                return;
            }
            {
                std::lock_guard<std::mutex> lock{mu};
                done[chunk % window] = 1;
            }
            progress.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker_main);
    const auto join_all = [&pool] {
        for (auto& worker : pool) {
            if (worker.joinable()) worker.join();
        }
    };

    // Ordered streaming merge on the calling thread: wait for the next chunk
    // in sequence, merge it, repeat. Scans of later chunks overlap with the
    // merge of earlier ones.
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        {
            std::unique_lock<std::mutex> lock{mu};
            progress.wait(lock,
                          [&] { return done[chunk % window] != 0 || failure != nullptr; });
            if (failure != nullptr) break;
            done[chunk % window] = 0;  // slot freed for chunk + window
        }
        try {
            merge(chunk);
        } catch (...) {
            fail_with_current_exception();
            break;
        }
        {
            std::lock_guard<std::mutex> lock{mu};
            merged = chunk + 1;
        }
        progress.notify_all();
    }

    join_all();
    if (failure != nullptr) std::rethrow_exception(failure);
}

}  // namespace spinscope::scanner
