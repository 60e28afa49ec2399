// spinscope/util/text_cursor.hpp
//
// Strict forward reader for spinscope's own text encodings: qlog JSON
// lines and the journal's `#rec <len> <crc>` frame heads. A decoder built
// on it walks its writer's output field by field, in the order the writer
// emits it, and reads every byte once. Each read consumes exactly the
// canonical form the writers print (snprintf/std::to_string integers, %08x
// checksums) or fails without moving, so a decoder accepts what its writer
// emits and returns nullopt on anything else. No read looks past the end of
// the view.

#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>

namespace spinscope::util {

class TextCursor {
public:
    explicit constexpr TextCursor(std::string_view text) noexcept : text_{text} {}

    [[nodiscard]] constexpr bool done() const noexcept { return pos_ == text_.size(); }
    /// The unread input.
    [[nodiscard]] constexpr std::string_view rest() const noexcept {
        return text_.substr(pos_);
    }
    /// Moves past `n` bytes of rest(); `n` must not exceed rest().size().
    constexpr void skip(std::size_t n) noexcept { pos_ += n; }

    /// Consumes `s` when the input continues with it.
    [[nodiscard]] constexpr bool literal(std::string_view s) noexcept {
        if (!rest().starts_with(s)) return false;
        pos_ += s.size();
        return true;
    }
    [[nodiscard]] constexpr bool literal(char c) noexcept {
        if (done() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }

    /// Canonical decimal integer in the range of T: no leading zeros, no
    /// '+', and a '-' only for signed T before a non-zero magnitude.
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    [[nodiscard]] constexpr bool integer(T& out) noexcept {
        constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
        std::size_t i = pos_;
        bool negative = false;
        if constexpr (std::is_signed_v<T>) {
            if (i < text_.size() && text_[i] == '-') {
                negative = true;
                ++i;
            }
        }
        const std::size_t first = i;
        std::uint64_t magnitude = 0;
        for (; i < text_.size() && text_[i] >= '0' && text_[i] <= '9'; ++i) {
            const auto digit = static_cast<std::uint64_t>(text_[i] - '0');
            if (magnitude > (kMax - digit) / 10) return false;
            magnitude = magnitude * 10 + digit;
        }
        const std::size_t digits = i - first;
        if (digits == 0 || (digits > 1 && text_[first] == '0')) return false;
        if constexpr (std::is_signed_v<T>) {
            constexpr auto kPositiveMax =
                static_cast<std::uint64_t>(std::numeric_limits<T>::max());
            if (negative) {
                if (magnitude == 0 || magnitude > kPositiveMax + 1) return false;
                out = static_cast<T>(-static_cast<T>(magnitude - 1) - 1);
            } else {
                if (magnitude > kPositiveMax) return false;
                out = static_cast<T>(magnitude);
            }
        } else {
            if (magnitude > std::numeric_limits<T>::max()) return false;
            out = static_cast<T>(magnitude);
        }
        pos_ = i;
        return true;
    }

    /// A 0/1 flag.
    [[nodiscard]] constexpr bool flag(bool& out) noexcept {
        if (done() || (text_[pos_] != '0' && text_[pos_] != '1')) return false;
        out = text_[pos_++] == '1';
        return true;
    }

    /// Exactly eight lowercase hex digits (printf "%08x").
    [[nodiscard]] constexpr bool hex32(std::uint32_t& out) noexcept {
        if (text_.size() - pos_ < 8) return false;
        std::uint32_t value = 0;
        for (std::size_t i = pos_; i < pos_ + 8; ++i) {
            const char c = text_[i];
            std::uint32_t nibble = 0;
            if (c >= '0' && c <= '9') {
                nibble = static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                nibble = static_cast<std::uint32_t>(c - 'a' + 10);
            } else {
                return false;
            }
            value = (value << 4) | nibble;
        }
        out = value;
        pos_ += 8;
        return true;
    }

    /// A floating-point number in `format` (std::from_chars rules).
    [[nodiscard]] bool number(double& out, std::chars_format format) noexcept {
        const char* begin = text_.data() + pos_;
        const auto [ptr, ec] = std::from_chars(begin, text_.data() + text_.size(), out, format);
        if (ec != std::errc{}) return false;
        pos_ += static_cast<std::size_t>(ptr - begin);
        return true;
    }

    /// The bytes up to (not including) the next `delim`, or to the end of
    /// the input; consumes them but not `delim`.
    [[nodiscard]] constexpr std::string_view until(char delim) noexcept {
        const std::string_view r = rest();
        const std::string_view out = r.substr(0, r.find(delim));
        pos_ += out.size();
        return out;
    }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace spinscope::util
