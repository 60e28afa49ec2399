#include "telemetry/resource.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace spinscope::telemetry {

namespace alloc {

namespace {
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<bool> g_active{false};
}  // namespace

void record(std::size_t bytes) noexcept {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void mark_active() noexcept { g_active.store(true, std::memory_order_relaxed); }

bool active() noexcept { return g_active.load(std::memory_order_relaxed); }

std::uint64_t count() noexcept { return g_count.load(std::memory_order_relaxed); }

std::uint64_t bytes() noexcept { return g_bytes.load(std::memory_order_relaxed); }

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

ResourceProbe::ResourceProbe(std::string phase)
    : phase_{std::move(phase)}, wall_start_{std::chrono::steady_clock::now()} {}

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
    const auto gauge = [&](std::string_view suffix) -> Gauge& {
        return registry.gauge(MetricName{"obs.resource.", phase_, ".", suffix});
    };
    gauge("wall_seconds").set(report.wall_seconds);
    gauge("peak_rss_bytes").set_max(static_cast<double>(report.peak_rss));
    if (report.alloc_active) {
        gauge("allocs").set(static_cast<double>(report.allocs));
        gauge("alloc_bytes").set(static_cast<double>(report.alloc_bytes));
    }
}

}  // namespace spinscope::telemetry
