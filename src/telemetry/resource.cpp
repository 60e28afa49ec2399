#include "telemetry/resource.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include <pthread.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace spinscope::telemetry {

namespace alloc {

namespace {

/// One thread's allocation counters. Only the owning thread writes them
/// (a relaxed load and store, no locked read-modify-write); readers sum
/// every block with relaxed loads. A block outlives its thread: on exit the
/// thread hands it back with its counts intact, and the next thread to
/// claim it keeps counting on top, so the totals never lose an allocation.
struct alignas(64) Block {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<bool> owned{false};
};

/// Static storage, so claiming a block never allocates. A process with more
/// live allocating threads than blocks counts the surplus threads into
/// g_shared with locked adds.
constexpr std::size_t kBlocks = 256;
Block g_blocks[kBlocks];
Block g_shared;
/// One past the highest block ever claimed: readers sum only this prefix.
std::atomic<std::size_t> g_claimed{0};
std::atomic<bool> g_active{false};

thread_local Block* t_block = nullptr;

/// Thread-exit hook (a pthread key destructor): hands the block back. An
/// allocation made later in the thread's teardown counts into g_shared.
void release(void* block) noexcept {
    static_cast<Block*>(block)->owned.store(false, std::memory_order_release);
    t_block = &g_shared;
}

Block* claim() noexcept {
    // pthread_key_create and pthread_setspecific on one of the first keys
    // do not allocate, so neither does claiming a block.
    static pthread_key_t exit_key{};
    static const bool have_key = pthread_key_create(&exit_key, release) == 0;
    for (std::size_t i = 0; have_key && i < kBlocks; ++i) {
        bool expected = false;
        if (!g_blocks[i].owned.compare_exchange_strong(expected, true,
                                                       std::memory_order_acquire)) {
            continue;
        }
        std::size_t claimed = g_claimed.load(std::memory_order_relaxed);
        while (claimed < i + 1 &&
               !g_claimed.compare_exchange_weak(claimed, i + 1, std::memory_order_relaxed)) {
        }
        if (pthread_setspecific(exit_key, &g_blocks[i]) != 0) {
            g_blocks[i].owned.store(false, std::memory_order_release);
            break;
        }
        t_block = &g_blocks[i];
        return t_block;
    }
    t_block = &g_shared;
    return t_block;
}

template <typename Field>
std::uint64_t total(Field field) noexcept {
    std::uint64_t sum = (g_shared.*field).load(std::memory_order_relaxed);
    const std::size_t claimed = g_claimed.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < claimed; ++i) {
        sum += (g_blocks[i].*field).load(std::memory_order_relaxed);
    }
    return sum;
}

}  // namespace

void record(std::size_t bytes) noexcept {
    Block* block = t_block != nullptr ? t_block : claim();
    if (block == &g_shared) {
        block->count.fetch_add(1, std::memory_order_relaxed);
        block->bytes.fetch_add(bytes, std::memory_order_relaxed);
        return;
    }
    block->count.store(block->count.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    block->bytes.store(block->bytes.load(std::memory_order_relaxed) + bytes,
                       std::memory_order_relaxed);
}

void mark_active() noexcept { g_active.store(true, std::memory_order_relaxed); }

bool active() noexcept { return g_active.load(std::memory_order_relaxed); }

std::uint64_t count() noexcept { return total(&Block::count); }

std::uint64_t bytes() noexcept { return total(&Block::bytes); }

std::size_t blocks_claimed() noexcept { return g_claimed.load(std::memory_order_relaxed); }

}  // namespace alloc

AllocSnapshot::AllocSnapshot() : count{alloc::count()}, bytes{alloc::bytes()} {}

std::uint64_t AllocSnapshot::count_since() const noexcept {
    return alloc::count() - count;
}

std::uint64_t AllocSnapshot::bytes_since() const noexcept {
    return alloc::bytes() - bytes;
}

namespace {

/// Reads one "<key>:  <n> kB" line from /proc/self/status; 0 when the file
/// or key is unavailable (non-Linux hosts).
std::uint64_t proc_status_kb(const char* key) {
    std::FILE* f = std::fopen("/proc/self/status", "re");
    if (f == nullptr) return 0;
    char line[256];
    const std::size_t key_len = std::strlen(key);
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') continue;
        unsigned long long value = 0;
        if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) kb = value;
        break;
    }
    std::fclose(f);
    return kb;
}

}  // namespace

std::uint64_t peak_rss_bytes() {
    if (const std::uint64_t kb = proc_status_kb("VmHWM"); kb > 0) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
#endif
    }
#endif
    return 0;
}

std::uint64_t current_rss_bytes() { return proc_status_kb("VmRSS") * 1024; }

ResourceProbe::ResourceProbe() : wall_start_{std::chrono::steady_clock::now()} {}

ResourceProbe::Report ResourceProbe::sample() const {
    Report report;
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
            .count();
    report.alloc_active = alloc::active();
    if (report.alloc_active) {
        report.allocs = start_.count_since();
        report.alloc_bytes = start_.bytes_since();
    }
    report.peak_rss = peak_rss_bytes();
    return report;
}

void ResourceProbe::publish(MetricsRegistry& registry) const {
    const Report report = sample();
    registry.gauge(GaugeId::obs_resource_campaign_wall_seconds).set(report.wall_seconds);
    registry.gauge(GaugeId::obs_resource_campaign_peak_rss_bytes)
        .set_max(static_cast<double>(report.peak_rss));
    if (report.alloc_active) {
        registry.gauge(GaugeId::obs_resource_campaign_allocs)
            .set(static_cast<double>(report.allocs));
        registry.gauge(GaugeId::obs_resource_campaign_alloc_bytes)
            .set(static_cast<double>(report.alloc_bytes));
    }
}

}  // namespace spinscope::telemetry
