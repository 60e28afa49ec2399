// spinscope/util/function.hpp
//
// MoveFunction: a move-only std::function replacement with small-buffer
// optimization. The simulator's event queue holds callbacks that capture
// pooled byte buffers (move-only), which std::function cannot store — it
// requires copyability. std::move_only_function is C++23; this is the
// minimal C++20 equivalent the event path needs.

#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace spinscope::util {

template <typename Signature>
class MoveFunction;

/// Move-only callable wrapper. Callables up to kInlineSize bytes with a
/// noexcept move constructor live inline (no heap allocation — important
/// because every simulator event holds one); larger or throwing-move
/// callables fall back to a single heap allocation.
///
/// Invoking an empty MoveFunction is undefined (the event queue never
/// stores empty callbacks); check with operator bool where emptiness is
/// possible.
template <typename R, typename... Args>
class MoveFunction<R(Args...)> {
public:
    MoveFunction() noexcept = default;
    MoveFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, MoveFunction> &&
                                          std::is_invocable_r_v<R, D&, Args...>>>
    MoveFunction(F&& f) {  // NOLINT(google-explicit-constructor)
        if constexpr (fits_inline<D>()) {
            ::new (storage()) D(std::forward<F>(f));
            ops_ = &inline_ops<D>;
        } else {
            ::new (storage()) D*(new D(std::forward<F>(f)));
            ops_ = &heap_ops<D>;
        }
    }

    MoveFunction(MoveFunction&& other) noexcept : ops_{other.ops_} {
        if (ops_ != nullptr) {
            ops_->relocate(other.storage(), storage());
            other.ops_ = nullptr;
        }
    }

    MoveFunction& operator=(MoveFunction&& other) noexcept {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_ != nullptr) {
                ops_->relocate(other.storage(), storage());
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    MoveFunction(const MoveFunction&) = delete;
    MoveFunction& operator=(const MoveFunction&) = delete;

    ~MoveFunction() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// True when a callable of type F is stored inline, without a heap
    /// allocation. Hot callback sites static_assert it, so a capture list
    /// that outgrows the buffer fails the build instead of allocating.
    template <typename F>
    [[nodiscard]] static constexpr bool stores_inline() noexcept {
        return fits_inline<std::decay_t<F>>();
    }

    R operator()(Args... args) { return ops_->invoke(storage(), std::forward<Args>(args)...); }

private:
    // Sized for the simulator's per-event callbacks, which capture a few
    // words: a link delivery (the link and a pooled buffer) and a
    // connection flush check stores_inline() where they are built. A
    // Timer's callback is stored once per timer, not once per arm.
    static constexpr std::size_t kInlineSize = 96;

    struct Ops {
        R (*invoke)(void*, Args&&...);
        void (*relocate)(void*, void*) noexcept;  // move-construct dst from src, destroy src
        void (*destroy)(void*) noexcept;
    };

    template <typename D>
    static constexpr bool fits_inline() noexcept {
        return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops inline_ops{
        [](void* s, Args&&... args) -> R {
            return (*static_cast<D*>(s))(std::forward<Args>(args)...);
        },
        [](void* src, void* dst) noexcept {
            ::new (dst) D(std::move(*static_cast<D*>(src)));
            static_cast<D*>(src)->~D();
        },
        [](void* s) noexcept { static_cast<D*>(s)->~D(); },
    };

    template <typename D>
    static constexpr Ops heap_ops{
        [](void* s, Args&&... args) -> R {
            return (**static_cast<D**>(s))(std::forward<Args>(args)...);
        },
        [](void* src, void* dst) noexcept {
            ::new (dst) D*(*static_cast<D**>(src));
            *static_cast<D**>(src) = nullptr;
        },
        [](void* s) noexcept { delete *static_cast<D**>(s); },
    };

    void reset() noexcept {
        if (ops_ != nullptr) {
            ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

    void* storage() noexcept { return static_cast<void*>(buffer_); }

    alignas(std::max_align_t) std::byte buffer_[kInlineSize];
    const Ops* ops_ = nullptr;
};

}  // namespace spinscope::util
