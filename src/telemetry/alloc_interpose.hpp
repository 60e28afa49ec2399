// spinscope/telemetry/alloc_interpose.hpp
//
// Global operator new/delete interposition feeding telemetry::alloc — the
// allocation probe benches use to report allocs_per_domain-style counters
// (promoted out of bench_packet_path, which defined this privately before
// the flight-recorder PR).
//
// Include this header in EXACTLY ONE translation unit of a BINARY that wants
// heap accounting (a bench or test main). Never include it from a library:
// the replacement operators apply to the whole program, and only the final
// binary may make that choice. Binaries that skip it keep the toolchain's
// allocator untouched and telemetry::alloc::active() stays false.
//
// The replacement set is deliberately minimal — sized/aligned variants fall
// back to these via the standard's forwarding rules, matching the original
// bench interposition byte for byte in its reported counters. The nothrow
// new is replaced as well: a sanitizer runtime supplies its own, which the
// plain delete below (std::free) would then release mismatched, as
// std::stable_sort's temporary buffer does.

#pragma once

#include <cstdlib>
#include <new>

#include "telemetry/resource.hpp"

namespace spinscope::telemetry::detail {
/// Flips alloc::active() exactly once per binary at static-init time.
inline const bool alloc_interpose_registered = [] {
    alloc::mark_active();
    return true;
}();
}  // namespace spinscope::telemetry::detail

// GCC pairs the replaceable operator new with operator delete only; it
// cannot see that this new is malloc-based when it inlines the deletes below
// into calling code, and flags the free() as mismatched. The pairing here is
// malloc/free on both sides by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
    spinscope::telemetry::alloc::record(size);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    spinscope::telemetry::alloc::record(size);
    return std::malloc(size);
}

void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
