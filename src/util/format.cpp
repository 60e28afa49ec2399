#include "util/format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/time.hpp"

namespace spinscope::util {

std::string group_digits(std::uint64_t value) {
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) out.push_back(' ');
        out.push_back(digits[i]);
    }
    return out;
}

std::string fixed(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

std::string percent(double fraction, int decimals) {
    return fixed(fraction * 100.0, decimals) + " %";
}

void TextTable::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TextTable::render(bool with_header) const {
    std::size_t columns = 0;
    for (const auto& row : rows_) columns = std::max(columns, row.size());
    std::vector<std::size_t> widths(columns, 0);
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream out;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const auto& row = rows_[r];
        for (std::size_t c = 0; c < columns; ++c) {
            const std::string cell = c < row.size() ? row[c] : std::string{};
            if (c == 0) {
                out << cell << std::string(widths[c] - cell.size(), ' ');
            } else {
                out << "  " << std::string(widths[c] - cell.size(), ' ') << cell;
            }
        }
        out << '\n';
        if (with_header && r == 0) {
            std::size_t rule = 0;
            for (std::size_t c = 0; c < columns; ++c) rule += widths[c] + (c == 0 ? 0 : 2);
            out << std::string(rule, '-') << '\n';
        }
    }
    return out.str();
}

std::string bar_line(const std::string& label, double share, int width) {
    const double clamped = std::clamp(share, 0.0, 1.0);
    const int filled = static_cast<int>(std::lround(clamped * width));
    std::string bar(static_cast<std::size_t>(filled), '#');
    bar.resize(static_cast<std::size_t>(width), ' ');
    return label + " |" + bar + "| " + percent(share);
}

std::string to_string(Duration d) {
    const std::int64_t ns = d.count_nanos();
    const std::int64_t mag = ns < 0 ? -ns : ns;
    if (mag >= 1'000'000'000) return fixed(d.as_seconds(), 3) + " s";
    if (mag >= 1'000'000) return fixed(d.as_ms(), 3) + " ms";
    if (mag >= 1'000) return fixed(static_cast<double>(ns) / 1e3, 2) + " us";
    return std::to_string(ns) + " ns";
}

}  // namespace spinscope::util
