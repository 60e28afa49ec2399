#include "quic/frame.hpp"

#include <algorithm>
#include <cassert>

namespace spinscope::quic {

namespace {

constexpr std::uint64_t kTypePadding = 0x00;
constexpr std::uint64_t kTypePing = 0x01;
constexpr std::uint64_t kTypeAck = 0x02;
constexpr std::uint64_t kTypeCrypto = 0x06;
constexpr std::uint64_t kTypeStreamBase = 0x08;  // ..0x0f with OFF/LEN/FIN bits
constexpr std::uint64_t kTypeMaxData = 0x10;
constexpr std::uint64_t kTypeCloseTransport = 0x1c;
constexpr std::uint64_t kTypeCloseApplication = 0x1d;
constexpr std::uint64_t kTypeHandshakeDone = 0x1e;

constexpr std::uint8_t kStreamFin = 0x01;
constexpr std::uint8_t kStreamLen = 0x02;
constexpr std::uint8_t kStreamOff = 0x04;

/// Ack-delay ceiling (~52 days in µs). Wire values are clamped here so that
/// `units << exponent` and the µs→ns conversion can never overflow int64 —
/// a hostile peer cannot poison RTT adjustment with a wrap-around delay.
constexpr std::uint64_t kMaxAckDelayMicros = 1ULL << 42;

/// Decodes an ACK frame's ranges onto the end of `ranges`; the caller points
/// the frame at them once the packet is decoded. False on malformed input.
[[nodiscard]] bool decode_ack(Reader& r, std::uint8_t exponent, AckFrame& ack,
                              std::vector<AckRange>& ranges) {
    const auto largest = r.varint();
    const auto delay_units = r.varint();
    const auto range_count = r.varint();
    const auto first_range = r.varint();
    if (!largest || !delay_units || !range_count || !first_range) return false;
    if (*first_range > *largest) return false;

    const std::uint64_t delay_micros =
        std::min(*delay_units, kMaxAckDelayMicros >> exponent) << exponent;
    ack.ack_delay = Duration::micros(static_cast<std::int64_t>(delay_micros));
    PacketNumber smallest = *largest - *first_range;
    ranges.push_back(AckRange{smallest, *largest});

    for (std::uint64_t i = 0; i < *range_count; ++i) {
        const auto gap = r.varint();
        const auto length = r.varint();
        if (!gap || !length) return false;
        // RFC 9000 §19.3.1: next largest = previous smallest - gap - 2.
        if (smallest < *gap + 2) return false;
        const PacketNumber next_largest = smallest - *gap - 2;
        if (*length > next_largest) return false;
        smallest = next_largest - *length;
        ranges.push_back(AckRange{smallest, next_largest});
    }
    return true;
}

/// True when `range` may follow `previous` in one ACK frame.
[[nodiscard]] bool follows(const AckRange& previous, const AckRange& range) noexcept {
    return range.largest + 2 <= previous.smallest;
}

void encode_ack(Writer& w, const AckFrame& ack, std::uint8_t exponent) {
    assert(!ack.ranges.empty());
    // Ranges must be descending with a gap of >= 2 between them (RFC 9000
    // §19.3.1 cannot express adjacency). Skip violators rather than emit an
    // unparseable frame — one pass counts the kept ranges, one writes them;
    // the tracker merges, so this never fires in practice.
    std::size_t kept = 1;
    for (std::size_t i = 1, last = 0; i < ack.ranges.size(); ++i) {
        assert(follows(ack.ranges[last], ack.ranges[i]));
        if (follows(ack.ranges[last], ack.ranges[i])) {
            ++kept;
            last = i;
        }
    }

    w.varint(kTypeAck);
    const AckRange& first = ack.ranges.front();
    w.varint(first.largest);
    const auto micros = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, ack.ack_delay.count_micros()));
    w.varint(micros >> exponent);
    w.varint(kept - 1);
    w.varint(first.largest - first.smallest);
    for (std::size_t i = 1, last = 0; i < ack.ranges.size(); ++i) {
        const AckRange& range = ack.ranges[i];
        if (!follows(ack.ranges[last], range)) continue;
        w.varint(ack.ranges[last].smallest - range.largest - 2);
        w.varint(range.largest - range.smallest);
        last = i;
    }
}

}  // namespace

bool AckFrame::acknowledges(PacketNumber pn) const noexcept {
    return std::any_of(ranges.begin(), ranges.end(), [pn](const AckRange& r) {
        return r.smallest <= pn && pn <= r.largest;
    });
}

bool is_ack_eliciting(const Frame& frame) noexcept {
    return !std::holds_alternative<AckFrame>(frame) &&
           !std::holds_alternative<PaddingFrame>(frame) &&
           !std::holds_alternative<ConnectionCloseFrame>(frame);
}

bool any_ack_eliciting(std::span<const Frame> frames) noexcept {
    return std::any_of(frames.begin(), frames.end(),
                       [](const Frame& f) { return is_ack_eliciting(f); });
}

void encode_frame(Writer& w, const Frame& frame, std::uint8_t ack_delay_exponent) {
    std::visit(
        [&](const auto& f) {
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, PaddingFrame>) {
                w.fill(f.length, static_cast<std::uint8_t>(kTypePadding));
            } else if constexpr (std::is_same_v<T, PingFrame>) {
                w.varint(kTypePing);
            } else if constexpr (std::is_same_v<T, AckFrame>) {
                encode_ack(w, f, ack_delay_exponent);
            } else if constexpr (std::is_same_v<T, CryptoFrame>) {
                w.varint(kTypeCrypto);
                w.varint(f.offset);
                w.varint(f.data.size());
                w.bytes(f.data);
            } else if constexpr (std::is_same_v<T, StreamFrame>) {
                std::uint64_t type = kTypeStreamBase | kStreamLen;
                if (f.offset != 0) type |= kStreamOff;
                if (f.fin) type |= kStreamFin;
                w.varint(type);
                w.varint(f.stream_id);
                if (f.offset != 0) w.varint(f.offset);
                w.varint(f.data.size());
                w.bytes(f.data);
            } else if constexpr (std::is_same_v<T, MaxDataFrame>) {
                w.varint(kTypeMaxData);
                w.varint(f.maximum);
            } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
                w.varint(f.application ? kTypeCloseApplication : kTypeCloseTransport);
                w.varint(f.error_code);
                if (!f.application) w.varint(0);  // offending frame type
                w.varint(f.reason.size());
                w.bytes({reinterpret_cast<const std::uint8_t*>(f.reason.data()),
                         f.reason.size()});
            } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
                w.varint(kTypeHandshakeDone);
            }
        },
        frame);
}

void encode_frames(Writer& w, std::span<const Frame> frames,
                   std::uint8_t ack_delay_exponent) {
    for (const auto& f : frames) encode_frame(w, f, ack_delay_exponent);
}

bool decode_frames(std::span<const std::uint8_t> payload, std::uint8_t ack_delay_exponent,
                   DecodedFrames& out) {
    out.frames.clear();
    out.ack_ranges.clear();
    Reader r{payload};
    while (!r.done()) {
        // Frame types must use the minimal varint encoding (RFC 9000 §12.4);
        // an overlong type is a FRAME_ENCODING_ERROR, not an alias.
        const auto type = r.varint_minimal();
        if (!type) return false;
        switch (*type) {
            case kTypePadding: {
                PaddingFrame pad;
                while (!r.done() && r.peek_rest().front() == 0) {
                    (void)r.u8();
                    ++pad.length;
                }
                out.frames.emplace_back(pad);
                break;
            }
            case kTypePing:
                out.frames.emplace_back(PingFrame{});
                break;
            case kTypeAck: {
                const std::size_t first = out.ack_ranges.size();
                AckFrame ack;
                if (!decode_ack(r, ack_delay_exponent, ack, out.ack_ranges)) return false;
                // Sized now, pointed at the ranges once they stop moving.
                ack.ranges = std::span<const AckRange>{out.ack_ranges}.subspan(first);
                out.frames.emplace_back(ack);
                break;
            }
            case kTypeCrypto: {
                const auto offset = r.varint();
                const auto length = r.varint();
                if (!offset || !length) return false;
                // RFC 9000 §19.6: offset + length must stay a valid varint.
                if (*offset > kVarintMax - *length) return false;
                const auto data = r.bytes(*length);
                if (!data) return false;
                out.frames.emplace_back(CryptoFrame{*offset, *data});
                break;
            }
            case kTypeCloseTransport:
            case kTypeCloseApplication: {
                ConnectionCloseFrame close;
                close.application = *type == kTypeCloseApplication;
                const auto code = r.varint();
                if (!code) return false;
                close.error_code = *code;
                if (!close.application && !r.varint()) return false;
                const auto reason_length = r.varint();
                if (!reason_length) return false;
                const auto reason = r.bytes(*reason_length);
                if (!reason) return false;
                close.reason = {reinterpret_cast<const char*>(reason->data()), reason->size()};
                out.frames.emplace_back(close);
                break;
            }
            case kTypeMaxData: {
                const auto maximum = r.varint();
                if (!maximum) return false;
                out.frames.emplace_back(MaxDataFrame{*maximum});
                break;
            }
            case kTypeHandshakeDone:
                out.frames.emplace_back(HandshakeDoneFrame{});
                break;
            default: {
                if (*type >= kTypeStreamBase && *type <= (kTypeStreamBase | 0x07)) {
                    StreamFrame stream;
                    const auto bits = static_cast<std::uint8_t>(*type & 0x07);
                    stream.fin = (bits & kStreamFin) != 0;
                    const auto id = r.varint();
                    if (!id) return false;
                    stream.stream_id = *id;
                    if ((bits & kStreamOff) != 0) {
                        const auto offset = r.varint();
                        if (!offset) return false;
                        stream.offset = *offset;
                    }
                    std::uint64_t length = r.remaining();
                    if ((bits & kStreamLen) != 0) {
                        const auto explicit_length = r.varint();
                        if (!explicit_length) return false;
                        length = *explicit_length;
                    }
                    // RFC 9000 §19.8: the final byte offset must stay a
                    // valid varint — rejects hostile offsets near 2^62.
                    if (stream.offset > kVarintMax - length) return false;
                    const auto data = r.bytes(static_cast<std::size_t>(length));
                    if (!data) return false;
                    stream.data = *data;
                    out.frames.emplace_back(stream);
                    break;
                }
                return false;  // unknown frame type
            }
        }
    }
    // A later ACK frame may have moved the range storage: re-point each ACK
    // at its ranges, which sit back to back in frame order.
    std::size_t next = 0;
    for (Frame& frame : out.frames) {
        if (auto* ack = std::get_if<AckFrame>(&frame)) {
            ack->ranges =
                std::span<const AckRange>{out.ack_ranges}.subspan(next, ack->ranges.size());
            next += ack->ranges.size();
        }
    }
    return true;
}

}  // namespace spinscope::quic
