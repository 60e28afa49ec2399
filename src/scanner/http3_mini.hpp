// spinscope/scanner/http3_mini.hpp
//
// A deliberately small HTTP/3-flavoured application layer for the scanner:
// a text request/response format carried over QUIC streams, with control-
// stream chatter (SETTINGS) like a real HTTP/3 endpoint produces.
//
// The chatter matters: the early server control packets give the client
// something to acknowledge right after the handshake, which starts the spin
// wave before the response is ready — the interleaving the paper's accuracy
// findings hinge on.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace spinscope::scanner {

/// Stream IDs used by the mini protocol (client-bidi 0/4/8..., like HTTP/3
/// request streams; 2/3 are the client/server control streams).
inline constexpr std::uint64_t kRequestStream = 0;
inline constexpr std::uint64_t kClientControlStream = 2;
inline constexpr std::uint64_t kServerControlStream = 3;

/// Builds a request for the landing page of `host` ("GET https://host/").
[[nodiscard]] std::vector<std::uint8_t> build_request(const std::string& host);

/// Parses the host out of a request; nullopt if malformed. Takes a view —
/// nothing is copied beyond the returned host string.
[[nodiscard]] std::optional<std::string> parse_request(std::span<const std::uint8_t> request);

/// Response header block. `status` 200 or 301; 301 carries a Location.
[[nodiscard]] std::vector<std::uint8_t> build_response_headers(int status,
                                                               const std::string& location,
                                                               const std::string& server_name);

/// Largest response body the campaign serves: its body-size clamp.
inline constexpr std::size_t kMaxBodyBytes = 300'000;

/// Pseudo page body of `size` bytes: byte i is
/// "<p>spinscope synthetic page content</p>"[i % 39]. A view of one static
/// filler, so building a body copies nothing; throws std::length_error when
/// `size` exceeds kMaxBodyBytes.
[[nodiscard]] std::span<const std::uint8_t> build_body(std::size_t size);

/// Parsed response metadata.
struct ResponseInfo {
    int status = 0;
    std::string location;     ///< redirect target host ("" if none)
    std::string server_name;  ///< Server: header (webserver identification §4.2)
    std::size_t body_bytes = 0;
};

/// Parses the header block at the front of a received response stream.
/// Takes a view — only the extracted header values are copied out.
[[nodiscard]] std::optional<ResponseInfo> parse_response(std::span<const std::uint8_t> response);

/// SETTINGS-like control-stream blob (~tens of bytes).
[[nodiscard]] std::vector<std::uint8_t> build_settings(bool server);

}  // namespace spinscope::scanner
