// spinscope/util/format.hpp
//
// Plain-text rendering helpers for the bench harnesses that regenerate the
// paper's tables and figures: thousands-grouped integers, percentages,
// scaled counts ("802.59 k"), aligned text tables, and ASCII bar charts.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spinscope::util {

/// Zero-copy text view of raw bytes (the mini application protocols are
/// plain ASCII on the wire). The view borrows `bytes`' lifetime.
[[nodiscard]] inline std::string_view as_text(std::span<const std::uint8_t> bytes) noexcept {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Byte copy of `text` (building wire payloads).
[[nodiscard]] inline std::vector<std::uint8_t> as_bytes(std::string_view text) {
    return {text.begin(), text.end()};
}

/// 2732702 -> "2 732 702" (the paper uses thin-space grouping).
[[nodiscard]] std::string group_digits(std::uint64_t value);

/// 0.10168 -> "10.2 %" (one decimal, like the paper's tables).
[[nodiscard]] std::string percent(double fraction, int decimals = 1);

/// Fixed-decimal double.
[[nodiscard]] std::string fixed(double value, int decimals);

/// Column-aligned monospaced table. The first row may be used as a header;
/// render() separates it with a rule when with_header is true.
class TextTable {
public:
    /// Appends one row. Rows may have differing lengths; shorter rows are
    /// padded with empty cells.
    void add_row(std::vector<std::string> cells);

    /// Renders with single-space-padded columns; column 0 left-aligned,
    /// all further columns right-aligned (matching the paper's numeric
    /// tables).
    [[nodiscard]] std::string render(bool with_header = true) const;

    [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

private:
    std::vector<std::vector<std::string>> rows_;
};

/// One line of a text bar chart: label, value in [0,1] rendered as a bar of
/// '#' characters plus the numeric share.
[[nodiscard]] std::string bar_line(const std::string& label, double share, int width = 50);

}  // namespace spinscope::util
