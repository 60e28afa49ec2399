#include "scanner/http3_mini.hpp"

#include <array>
#include <charconv>
#include <stdexcept>

#include "util/format.hpp"

namespace spinscope::scanner {

namespace {

constexpr std::string_view kRequestPrefix = "GET https://";
constexpr std::string_view kRequestSuffix = "/ H3-MINI\nvia: spinscope-research-scan\n";
constexpr std::string_view kStatusPrefix = "H3-MINI ";
constexpr std::string_view kLocationPrefix = "location: ";
constexpr std::string_view kServerPrefix = "server: ";
constexpr std::string_view kHeaderEnd = "\n\n";

using util::as_bytes;
using util::as_text;

}  // namespace

std::vector<std::uint8_t> build_request(const std::string& host) {
    std::string out;
    out += kRequestPrefix;
    out += host;
    out += kRequestSuffix;
    return as_bytes(out);
}

std::optional<std::string> parse_request(std::span<const std::uint8_t> request) {
    const std::string_view text = as_text(request);
    if (text.rfind(kRequestPrefix, 0) != 0) return std::nullopt;
    const auto host_begin = kRequestPrefix.size();
    const auto host_end = text.find('/', host_begin);
    if (host_end == std::string_view::npos) return std::nullopt;
    return std::string{text.substr(host_begin, host_end - host_begin)};
}

std::vector<std::uint8_t> build_response_headers(int status, const std::string& location,
                                                 const std::string& server_name) {
    std::string out;
    out += kStatusPrefix;
    out += std::to_string(status);
    out += "\n";
    out += kServerPrefix;
    out += server_name;
    out += "\n";
    if (!location.empty()) {
        out += kLocationPrefix;
        out += location;
        out += "\n";
    }
    out += "\n";  // blank line ends headers
    return as_bytes(out);
}

std::span<const std::uint8_t> build_body(std::size_t size) {
    if (size > kMaxBodyBytes) {
        throw std::length_error("http3_mini: a body of " + std::to_string(size) +
                                " bytes exceeds kMaxBodyBytes (" +
                                std::to_string(kMaxBodyBytes) + ")");
    }
    struct Filler {
        std::array<std::uint8_t, kMaxBodyBytes> bytes;
        Filler() {
            static constexpr std::string_view kFiller = "<p>spinscope synthetic page content</p>";
            for (std::size_t i = 0; i < bytes.size(); ++i) {
                bytes[i] = static_cast<std::uint8_t>(kFiller[i % kFiller.size()]);
            }
        }
    };
    static const Filler filler;
    return std::span<const std::uint8_t>{filler.bytes}.first(size);
}

std::optional<ResponseInfo> parse_response(std::span<const std::uint8_t> response) {
    const std::string_view text = as_text(response);
    if (text.rfind(kStatusPrefix, 0) != 0) return std::nullopt;
    ResponseInfo info;
    const std::string_view status_text = text.substr(kStatusPrefix.size());
    std::from_chars(status_text.data(), status_text.data() + status_text.size(), info.status);

    const auto headers_end = text.find(kHeaderEnd);
    if (headers_end == std::string_view::npos) return std::nullopt;
    const std::string_view headers = text.substr(0, headers_end + 1);
    info.body_bytes = text.size() - headers_end - kHeaderEnd.size();

    const auto find_header = [&headers](std::string_view prefix) -> std::string {
        const auto pos = headers.find(prefix);
        if (pos == std::string_view::npos) return {};
        const auto value_begin = pos + prefix.size();
        const auto value_end = headers.find('\n', value_begin);
        return std::string{headers.substr(value_begin, value_end - value_begin)};
    };
    info.location = find_header(kLocationPrefix);
    info.server_name = find_header(kServerPrefix);
    return info;
}

std::vector<std::uint8_t> build_settings(bool server) {
    std::string out = server ? "SETTINGS qpack=0 max_field_section=16384 srv=1\n"
                             : "SETTINGS qpack=0 max_field_section=16384 cli=1\n";
    return as_bytes(out);
}

}  // namespace spinscope::scanner
