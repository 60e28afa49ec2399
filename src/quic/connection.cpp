#include "quic/connection.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace spinscope::quic {

namespace {

// Simulated-TLS handshake tokens carried in CRYPTO frames. Their content is
// opaque to the transport; only the sequencing matters for this study.
constexpr std::string_view kClientHello = "CHLO";
constexpr std::string_view kServerHello = "SHLO";
constexpr std::string_view kServerFinished = "SFIN";
constexpr std::string_view kClientFinished = "CFIN";

/// A token's bytes; the tokens are literals, so the view never dangles.
[[nodiscard]] std::span<const std::uint8_t> token_bytes(std::string_view token) {
    return {reinterpret_cast<const std::uint8_t*>(token.data()), token.size()};
}

[[nodiscard]] bool crypto_is(const CryptoFrame& frame, std::string_view token) {
    return frame.offset == 0 && frame.data.size() == token.size() &&
           std::memcmp(frame.data.data(), token.data(), token.size()) == 0;
}

[[nodiscard]] PacketType packet_type_for(PnSpace pn_space) noexcept {
    switch (pn_space) {
        case PnSpace::initial: return PacketType::initial;
        case PnSpace::handshake: return PacketType::handshake;
        case PnSpace::application: return PacketType::one_rtt;
    }
    return PacketType::one_rtt;
}

/// Conservative per-packet byte budget for frames (header + pn margin).
constexpr std::size_t kHeaderMargin = 40;
/// Conservative STREAM frame overhead (type + ids + offsets + length).
constexpr std::size_t kStreamFrameMargin = 20;

// RFC 9000 §20.1 transport error codes spinscope raises.
constexpr std::uint64_t kFlowControlError = 0x03;
constexpr std::uint64_t kFrameEncodingError = 0x07;

/// Hard bound on reassembly state per stream. A hostile peer can encode
/// offsets up to 2^62-1; without this cap a single frame could make the
/// ReassemblyBuffer allocate petabytes. Far above any simulated response
/// body, so honest transfers never hit it.
constexpr std::uint64_t kMaxStreamBytes = 1ull << 24;

}  // namespace

Connection::Connection(netsim::Simulator& sim, ConnectionConfig config, util::Rng rng,
                       SendFn send_fn, qlog::Trace* trace)
    : sim_{&sim},
      config_{config},
      rng_{rng},
      send_fn_{std::move(send_fn)},
      trace_{trace},
      spin_{config.role, config.spin, rng_},
      rtt_{config.initial_rtt},
      pto_timer_{sim, [this] { on_pto(); }},
      ack_timer_{sim, [this] { if (!closed_ && !failed_) send_ack_only(PnSpace::application); }},
      handshake_timer_{sim, [this] { if (!handshake_complete_) fail(); }},
      idle_timer_{sim, [this] { if (!closed_ && !failed_) fail(); }} {
    const AckTracker::Config immediate{1, Duration::zero()};
    const AckTracker::Config app{config_.ack_eliciting_threshold, config_.params.max_ack_delay};
    spaces_[0] = std::make_unique<Space>(immediate);
    spaces_[1] = std::make_unique<Space>(immediate);
    spaces_[2] = std::make_unique<Space>(app);
    local_cid_ = ConnectionId::from_u64(rng_.next());
    remote_cid_ = ConnectionId::from_u64(rng_.next());
    cwnd_ = config_.initial_cwnd_packets * config_.mtu;
}

void Connection::connect() {
    assert(config_.role == Role::client);
    handshake_timer_.set_after(config_.handshake_timeout);
    arm_idle_timer();
    send_packet(PnSpace::initial, {CryptoFrame{0, token_bytes(kClientHello)}},
                /*pad_to_mtu=*/true);
}

void Connection::send_stream(std::uint64_t id, bytes::ConstByteSpan data, bool fin) {
    if (closed_ || failed_) return;
    send_streams_[id].append(data, fin);
    if (handshake_complete_) pump();
}

void Connection::close(std::uint64_t error_code, const std::string& reason, bool application) {
    if (closed_ || failed_) return;
    ConnectionCloseFrame frame;
    frame.error_code = error_code;
    frame.application = application;
    frame.reason = reason;
    const PnSpace pn_space =
        handshake_complete_ ? PnSpace::application : PnSpace::initial;
    send_packet(pn_space, {frame});
    closed_ = true;
    teardown();
    if (on_closed) on_closed();
}

std::size_t Connection::cwnd_available() const noexcept {
    return bytes_in_flight_ >= cwnd_ ? 0 : cwnd_ - bytes_in_flight_;
}

void Connection::send_packet(PnSpace pn_space, const SendFrames& send_frames, bool pad_to_mtu) {
    Space& sp = space(pn_space);
    if (!sp.open) return;

    PacketHeader header;
    header.type = packet_type_for(pn_space);
    header.version = config_.version;
    header.dcid = remote_cid_;
    header.scid = local_cid_;
    header.packet_number = sp.next_pn++;
    if (header.type == PacketType::one_rtt) {
        const auto bits = spin_.outgoing(rng_);
        header.spin = bits.spin;
        header.vec = bits.vec;
    }

    const std::span<const Frame> frames = send_frames.span();
    const bool eliciting = any_ack_eliciting(frames);
    netsim::Datagram datagram = bytes::Recycler::local().acquire(config_.mtu);
    Writer w{datagram};
    if (header.type == PacketType::one_rtt) {
        // 1-RTT payloads extend to the end of the datagram, so frames are
        // encoded in place right behind the short header — the pooled
        // datagram is the only buffer the packet ever lives in.
        encode_short_header(w, header, sp.largest_acked);
        const std::size_t header_size = datagram.size();
        encode_frames(w, frames, config_.params.ack_delay_exponent);
        if (pad_to_mtu && (datagram.size() - header_size) + kHeaderMargin < config_.mtu) {
            datagram.resize(header_size + config_.mtu - kHeaderMargin, 0 /* PADDING */);
        }
    } else {
        // Long headers carry an explicit Length field ahead of the payload,
        // so the frame bytes are staged in a pooled scratch buffer first.
        netsim::Datagram scratch = bytes::Recycler::local().acquire(config_.mtu);
        Writer pw{scratch};
        encode_frames(pw, frames, config_.params.ack_delay_exponent);
        if (pad_to_mtu && scratch.size() + kHeaderMargin < config_.mtu) {
            scratch.resize(config_.mtu - kHeaderMargin, 0 /* PADDING frames */);
        }
        encode_packet(w, header, scratch.span(), sp.largest_acked);
    }

    if (eliciting) {
        SentPacket record;
        record.pn = header.packet_number;
        record.sent_at = sim_->now();
        record.bytes = datagram.size();
        for (const Frame& frame : frames) {
            if (const auto* crypto = std::get_if<CryptoFrame>(&frame)) {
                record.resend = *crypto;
            } else if (const auto* stream = std::get_if<StreamFrame>(&frame)) {
                record.resend = StreamRange{stream->stream_id, stream->offset,
                                            stream->data.size(), stream->fin};
            }
        }
        bytes_in_flight_ += record.bytes;
        sp.in_flight.push_back(std::move(record));
        arm_pto();
    }

    ++counters_.packets_sent;
    counters_.bytes_sent += datagram.size();
    if (trace_ != nullptr) {
        trace_->record_sent({sim_->now(), header.type, header.packet_number, header.spin,
                             static_cast<std::uint32_t>(datagram.size()), eliciting,
                             header.vec});
    }
    send_fn_(std::move(datagram));
}

void Connection::send_raw_payload(std::vector<std::uint8_t> payload) {
    if (closed_ || failed_) return;
    Space& sp = space(PnSpace::application);
    if (!sp.open) return;

    PacketHeader header;
    header.type = PacketType::one_rtt;
    header.version = config_.version;
    header.dcid = remote_cid_;
    header.scid = local_cid_;
    header.packet_number = sp.next_pn++;
    const auto bits = spin_.outgoing(rng_);
    header.spin = bits.spin;
    header.vec = bits.vec;

    netsim::Datagram datagram = bytes::Recycler::local().acquire(config_.mtu);
    encode_packet(datagram, header, payload, sp.largest_acked);
    ++counters_.packets_sent;
    counters_.bytes_sent += datagram.size();
    if (trace_ != nullptr) {
        trace_->record_sent({sim_->now(), header.type, header.packet_number, header.spin,
                             static_cast<std::uint32_t>(datagram.size()), false, header.vec});
    }
    send_fn_(std::move(datagram));
}

void Connection::on_protocol_error(std::uint64_t error_code, const std::string& reason) {
    if (closed_ || failed_) return;
    protocol_error_ = true;
    close(error_code, reason, /*application=*/false);
}

void Connection::send_ack_only(PnSpace pn_space) {
    Space& sp = space(pn_space);
    if (!sp.open) return;
    auto ack = sp.tracker.build_ack(sim_->now());
    if (!ack) return;
    send_packet(pn_space, {*ack});
}

void Connection::pump() {
    if (closed_ || failed_ || !handshake_complete_) return;
    Space& app = space(PnSpace::application);
    if (!app.open) return;

    bool ack_included = false;
    while (true) {
        SendFrames frames;
        std::size_t budget = config_.mtu - kHeaderMargin;

        if (!ack_included && app.tracker.ack_due_immediately()) {
            auto ack = app.tracker.build_ack(sim_->now());
            if (ack) {
                // Rough ACK wire footprint: a handful of varints per range.
                budget -= std::min<std::size_t>(budget, 8 + ack->ranges.size() * 4);
                frames.push(*ack);
                ack_included = true;
            }
        }
        if (flow_update_pending_) {
            // Grant double the received bytes, like a window that slides as
            // data is consumed.
            frames.push(MaxDataFrame{flow_credit_granted_ * 2 + 65536});
            flow_update_pending_ = false;
            budget -= std::min<std::size_t>(budget, 10);
        }

        const std::size_t cwnd_room = cwnd_available();
        if (cwnd_room > kStreamFrameMargin && budget > kStreamFrameMargin) {
            const std::size_t chunk_cap =
                std::min(budget, cwnd_room) - kStreamFrameMargin;
            for (auto& [stream_id, queue] : send_streams_) {
                if (!queue.has_pending()) continue;
                const auto chunk = queue.next_chunk(chunk_cap);
                if (!chunk) continue;
                frames.push(StreamFrame{stream_id, chunk->offset, chunk->fin, chunk->data});
                break;  // one STREAM frame per packet keeps sizing simple
            }
        }

        if (frames.empty()) break;
        send_packet(PnSpace::application, frames);
    }
    arm_ack_timer();
}

void Connection::on_datagram(bytes::ConstByteSpan datagram) {
    if (closed_ || failed_) return;
    arm_idle_timer();

    PacketNumber largest = kInvalidPacketNumber;
    if (!datagram.empty() && (datagram[0] & 0x80) == 0) {
        largest = space(PnSpace::application).largest_received;
    }
    const auto decoded = decode_packet(datagram, local_cid_.size(), largest);
    if (!decoded) return;
    handle_packet(*decoded);
}

void Connection::handle_packet(const DecodedPacket& packet) {
    if (packet.header.type == PacketType::version_negotiation ||
        packet.header.type == PacketType::retry) {
        return;  // not produced by spinscope endpoints
    }
    // Hostile-endpoint faults (see faults::ServerFaultMode): a stalled
    // handshake ignores everything before 1-RTT; a deaf endpoint drops every
    // short-header packet before ack tracking, so nothing post-handshake is
    // ever acknowledged.
    if (config_.fault_stall_handshake && packet.header.type != PacketType::one_rtt) return;
    if (config_.fault_never_ack && packet.header.type == PacketType::one_rtt) return;
    const PnSpace pn_space = pn_space_of(packet.header.type);
    Space& sp = space(pn_space);
    if (!sp.open) return;

    if (!decode_frames(packet.payload, config_.params.ack_delay_exponent, rx_frames_)) {
        // A frame-decode failure on a short-header packet that carries our
        // connection ID models post-decryption garbage from the peer: a
        // protocol violation (RFC 9000 §12.4), torn down with
        // FRAME_ENCODING_ERROR. Anything else — off-path junk never matches
        // the DCID — stays silently dropped.
        if (packet.header.type == PacketType::one_rtt && packet.header.dcid == local_cid_) {
            on_protocol_error(kFrameEncodingError, "undecodable frame payload");
        }
        return;
    }

    const bool eliciting = any_ack_eliciting(rx_frames_.frames);
    if (!sp.tracker.on_packet_received(packet.header.packet_number, eliciting, sim_->now())) {
        return;  // duplicate
    }
    if (sp.largest_received == kInvalidPacketNumber ||
        packet.header.packet_number > sp.largest_received) {
        sp.largest_received = packet.header.packet_number;
    }

    // Long-header packets carry the peer's source connection ID; adopt it
    // (the server's chosen CID replaces the client's random initial DCID).
    if (packet.header.type != PacketType::one_rtt && !packet.header.scid.empty()) {
        remote_cid_ = packet.header.scid;
    }
    if (config_.role == Role::server && local_cid_.size() != packet.header.dcid.size() &&
        !packet.header.dcid.empty()) {
        local_cid_ = packet.header.dcid;
    }

    if (packet.header.type == PacketType::one_rtt) {
        ++counters_.one_rtt_received;
        spin_.on_packet_received(packet.header.packet_number, packet.header.spin,
                                 packet.header.vec);
    }

    ++counters_.packets_received;
    counters_.bytes_received += packet.total_size;
    if (trace_ != nullptr) {
        trace_->record_received({sim_->now(), packet.header.type, packet.header.packet_number,
                                 packet.header.spin,
                                 static_cast<std::uint32_t>(packet.total_size), eliciting,
                                 packet.header.vec});
    }

    handle_frames(pn_space, rx_frames_.frames);
    if (closed_ || failed_) return;

    // Reactive sends (ACKs, flow updates, newly unblocked data) leave after
    // the host emission latency, not at the instant of reception.
    schedule_flush();
}

void Connection::schedule_flush() {
    if (flush_scheduled_ || closed_ || failed_) return;
    flush_scheduled_ = true;
    const std::int64_t lo = config_.emission_latency_min.count_nanos();
    const std::int64_t hi = std::max(lo, config_.emission_latency_max.count_nanos());
    const Duration latency = Duration::nanos(rng_.uniform_i64(lo, hi));
    auto flush = [this] {
        flush_scheduled_ = false;
        flush_now();
    };
    static_assert(netsim::Simulator::Callback::stores_inline<decltype(flush)>(),
                  "a connection flush must not heap-allocate its event");
    sim_->schedule_after(latency, flush, netsim::EventCategory::conn_flush);
}

void Connection::flush_now() {
    if (closed_ || failed_) return;
    // Handshake spaces acknowledge instantly; the application space
    // acknowledges via pump() (which can piggyback data).
    for (const PnSpace s : {PnSpace::initial, PnSpace::handshake}) {
        if (space(s).open && space(s).tracker.ack_due_immediately()) send_ack_only(s);
    }
    pump();
    arm_ack_timer();
}

void Connection::handle_frames(PnSpace pn_space, std::span<const Frame> frames) {
    for (const auto& frame : frames) {
        if (closed_ || failed_) return;
        if (const auto* ack = std::get_if<AckFrame>(&frame)) {
            handle_ack(pn_space, *ack);
        } else if (const auto* crypto = std::get_if<CryptoFrame>(&frame)) {
            handle_crypto(pn_space, *crypto);
        } else if (const auto* stream = std::get_if<StreamFrame>(&frame)) {
            handle_stream(*stream);
        } else if (std::get_if<ConnectionCloseFrame>(&frame) != nullptr) {
            closed_ = true;
            teardown();
            if (on_closed) on_closed();
        } else if (std::get_if<HandshakeDoneFrame>(&frame) != nullptr) {
            if (config_.role == Role::client && !handshake_confirmed_) {
                handshake_confirmed_ = true;
                discard_space(PnSpace::handshake);
            }
        }
        // PING and PADDING need no handling beyond ack-eliciting accounting.
    }
}

void Connection::handle_ack(PnSpace pn_space, const AckFrame& ack) {
    Space& sp = space(pn_space);
    const PacketNumber largest_acked = ack.largest_acked();
    if (largest_acked == kInvalidPacketNumber || largest_acked >= sp.next_pn) return;

    if (sp.largest_acked == kInvalidPacketNumber || largest_acked > sp.largest_acked) {
        sp.largest_acked = largest_acked;
    }

    bool any_newly_acked = false;
    std::size_t acked_bytes = 0;
    bool largest_newly_acked = false;
    TimePoint largest_sent_at;

    auto it = sp.in_flight.begin();
    while (it != sp.in_flight.end()) {
        if (ack.acknowledges(it->pn)) {
            any_newly_acked = true;
            acked_bytes += it->bytes;
            bytes_in_flight_ -= std::min(bytes_in_flight_, it->bytes);
            if (it->pn == largest_acked) {
                largest_newly_acked = true;
                largest_sent_at = it->sent_at;
            }
            it = sp.in_flight.erase(it);
        } else {
            ++it;
        }
    }

    if (largest_newly_acked) {
        rtt_.add_sample(sim_->now() - largest_sent_at, ack.ack_delay,
                        config_.peer_max_ack_delay, handshake_confirmed_);
    }
    if (any_newly_acked) {
        counters_.pto_count = 0;  // backoff resets on forward progress
        if (cwnd_ < ssthresh_) {
            cwnd_ += acked_bytes;  // slow start
        } else {
            cwnd_ += config_.mtu * acked_bytes / std::max<std::size_t>(cwnd_, 1);
        }
        detect_losses(pn_space, sim_->now());
        arm_pto();
        pump();  // the freed window may allow more data out
    }
}

void Connection::detect_losses(PnSpace pn_space, TimePoint now) {
    Space& sp = space(pn_space);
    if (sp.largest_acked == kInvalidPacketNumber) return;

    // RFC 9002 §6.1: packet threshold 3, time threshold 9/8 * max(srtt, latest).
    const Duration time_threshold =
        std::max(rtt_.smoothed_rtt(), rtt_.latest_rtt()) * std::int64_t{9} / 8;
    std::vector<SentPacket> lost;
    auto it = sp.in_flight.begin();
    while (it != sp.in_flight.end()) {
        const bool by_count = it->pn + 3 <= sp.largest_acked;
        const bool by_time =
            it->pn < sp.largest_acked && rtt_.has_samples() && now - it->sent_at > time_threshold;
        if (by_count || by_time) {
            lost.push_back(std::move(*it));
            it = sp.in_flight.erase(it);
        } else {
            ++it;
        }
    }
    if (lost.empty()) return;

    counters_.packets_lost += lost.size();
    for (const auto& packet : lost) {
        bytes_in_flight_ -= std::min(bytes_in_flight_, packet.bytes);
        if (const auto* range = std::get_if<StreamRange>(&packet.resend)) {
            send_streams_[range->stream_id].requeue(range->offset, range->length, range->fin);
        } else if (const auto* crypto = std::get_if<CryptoFrame>(&packet.resend)) {
            send_packet(pn_space, {*crypto});
        }
    }
    // Multiplicative decrease once per loss event.
    ssthresh_ = std::max(cwnd_ / 2, config_.mtu * 2);
    cwnd_ = ssthresh_;
    pump();
}

void Connection::handle_crypto(PnSpace pn_space, const CryptoFrame& crypto) {
    if (config_.role == Role::server) {
        if (pn_space == PnSpace::initial && crypto_is(crypto, kClientHello)) {
            if (server_saw_chlo_) return;  // PTO retransmission of CHLO
            server_saw_chlo_ = true;
            arm_idle_timer();
            const auto ack = space(PnSpace::initial).tracker.build_ack(sim_->now());
            SendFrames initial_frames;
            if (ack) initial_frames.push(*ack);
            initial_frames.push(CryptoFrame{0, token_bytes(kServerHello)});
            send_packet(PnSpace::initial, initial_frames);
            send_packet(PnSpace::handshake, {CryptoFrame{0, token_bytes(kServerFinished)}});
        } else if (pn_space == PnSpace::handshake && crypto_is(crypto, kClientFinished)) {
            if (handshake_confirmed_) return;
            handshake_complete_ = true;
            handshake_confirmed_ = true;
            send_ack_only(PnSpace::handshake);
            discard_space(PnSpace::initial);
            send_packet(PnSpace::application, {HandshakeDoneFrame{}});
            if (on_handshake_complete) on_handshake_complete();
            pump();
        }
        return;
    }

    // Client side.
    if (pn_space == PnSpace::handshake && crypto_is(crypto, kServerFinished)) {
        if (handshake_complete_) return;
        const auto ack = space(PnSpace::handshake).tracker.build_ack(sim_->now());
        SendFrames frames;
        if (ack) frames.push(*ack);
        frames.push(CryptoFrame{0, token_bytes(kClientFinished)});
        send_packet(PnSpace::handshake, frames);
        handshake_complete_ = true;
        handshake_timer_.cancel();
        discard_space(PnSpace::initial);
        if (on_handshake_complete) on_handshake_complete();
        pump();
    }
    // SHLO carries no client action beyond the immediate Initial ACK.
}

void Connection::handle_stream(const StreamFrame& stream) {
    if (stream.offset > kMaxStreamBytes ||
        stream.data.size() > kMaxStreamBytes - stream.offset) {
        on_protocol_error(kFlowControlError, "stream data beyond receive bound");
        return;
    }
    stream_bytes_received_ += stream.data.size();
    if (config_.flow_update_interval > 0 &&
        stream_bytes_received_ >= flow_credit_granted_ + config_.flow_update_interval) {
        flow_credit_granted_ = stream_bytes_received_;
        flow_update_pending_ = true;
    }
    auto& buffer = recv_streams_[stream.stream_id];
    if (buffer.has_final_size() && buffer.complete()) return;  // already delivered
    buffer.insert(stream.offset, stream.data);
    if (stream.fin) buffer.set_final_size(stream.offset + stream.data.size());
    if (buffer.complete() && on_stream_complete) {
        on_stream_complete(stream.stream_id, buffer.contents());
        buffer.release();
        buffer.set_final_size(0);  // mark delivered; later duplicates ignored
    }
}

void Connection::arm_pto() {
    // RFC 9002 §6.2.1: the PTO timer runs from the time the *most recent*
    // ack-eliciting packet was sent. (Running it from the oldest unacked
    // packet would keep firing from an ancient base after a lost ACK.)
    TimePoint latest = TimePoint::never();
    bool any = false;
    for (const auto& sp : spaces_) {
        if (!sp->open || sp->in_flight.empty()) continue;
        for (const auto& packet : sp->in_flight) {
            if (!any || packet.sent_at > latest) latest = packet.sent_at;
            any = true;
        }
    }
    if (!any) {
        pto_timer_.cancel();
        return;
    }
    const Duration interval = rtt_.pto(config_.peer_max_ack_delay);
    const std::int64_t backoff = 1LL << std::min<std::uint64_t>(counters_.pto_count, 10);
    TimePoint expiry = latest + interval * backoff;
    if (expiry < sim_->now()) expiry = sim_->now() + Duration::millis(1);
    pto_timer_.set_at(expiry);
}

void Connection::on_pto() {
    if (closed_ || failed_) return;
    ++counters_.pto_count;
    ++counters_.pto_fired_total;
    if (counters_.pto_count > config_.max_pto_count) {
        fail();
        return;
    }
    // Probe: retransmit the oldest unacked retransmittable data, or PING.
    for (const auto pn_space :
         {PnSpace::initial, PnSpace::handshake, PnSpace::application}) {
        Space& sp = space(pn_space);
        if (!sp.open || sp.in_flight.empty()) continue;
        const auto oldest = std::min_element(
            sp.in_flight.begin(), sp.in_flight.end(),
            [](const SentPacket& a, const SentPacket& b) { return a.sent_at < b.sent_at; });
        Frame probe = PingFrame{};
        if (const auto* crypto = std::get_if<CryptoFrame>(&oldest->resend)) {
            probe = *crypto;
        } else if (const auto* range = std::get_if<StreamRange>(&oldest->resend)) {
            probe = StreamFrame{range->stream_id, range->offset, range->fin,
                                send_streams_[range->stream_id].sent_bytes(range->offset,
                                                                           range->length)};
        }
        const bool pad = pn_space == PnSpace::initial && config_.role == Role::client;
        send_packet(pn_space, {probe}, pad);
        arm_pto();
        return;
    }
    pto_timer_.cancel();
}

void Connection::arm_ack_timer() {
    Space& app = space(PnSpace::application);
    if (!app.open || !app.tracker.ack_pending()) {
        ack_timer_.cancel();
        return;
    }
    ack_timer_.set_at(app.tracker.ack_deadline());
}

void Connection::arm_idle_timer() {
    idle_timer_.set_after(config_.idle_timeout);
}

void Connection::fail() {
    if (failed_ || closed_) return;
    failed_ = true;
    teardown();
    if (on_failed) on_failed();
}

void Connection::teardown() {
    pto_timer_.cancel();
    ack_timer_.cancel();
    handshake_timer_.cancel();
    idle_timer_.cancel();
}

void Connection::discard_space(PnSpace pn_space) {
    Space& sp = space(pn_space);
    for (const auto& packet : sp.in_flight) {
        bytes_in_flight_ -= std::min(bytes_in_flight_, packet.bytes);
    }
    sp.in_flight.clear();
    sp.open = false;
    arm_pto();
}

void Connection::finalize_trace() {
    if (trace_ == nullptr) return;
    trace_->metrics.rtt_samples_ms = rtt_.adjusted_samples_ms();
    trace_->metrics.min_rtt_ms = rtt_.has_samples() ? rtt_.min_rtt().as_ms() : 0.0;
    trace_->metrics.smoothed_rtt_ms = rtt_.has_samples() ? rtt_.smoothed_rtt().as_ms() : 0.0;
    trace_->metrics.packets_lost = counters_.packets_lost;
    trace_->metrics.packets_sent = counters_.packets_sent;
    trace_->metrics.packets_received = counters_.packets_received;
    if (protocol_error_) {
        trace_->outcome = qlog::ConnectionOutcome::protocol_error;
    } else if (failed_) {
        trace_->outcome = handshake_complete_ ? qlog::ConnectionOutcome::aborted
                                              : qlog::ConnectionOutcome::handshake_timeout;
    }
}

void Connection::publish_metrics(telemetry::MetricsRegistry& registry) const {
    using telemetry::CounterId;
    registry.counter(CounterId::quic_conn_attempts).add(1);
    if (handshake_complete_) registry.counter(CounterId::quic_conn_handshake_completed).add(1);
    if (failed_) {
        registry
            .counter(handshake_complete_ ? CounterId::quic_conn_failed_after_handshake
                                         : CounterId::quic_conn_handshake_failed)
            .add(1);
    }
    registry.counter(CounterId::quic_conn_packets_sent).add(counters_.packets_sent);
    registry.counter(CounterId::quic_conn_packets_received).add(counters_.packets_received);
    registry.counter(CounterId::quic_conn_packets_lost).add(counters_.packets_lost);
    registry.counter(CounterId::quic_conn_bytes_sent).add(counters_.bytes_sent);
    registry.counter(CounterId::quic_conn_bytes_received).add(counters_.bytes_received);
    registry.counter(CounterId::quic_conn_pto_fired).add(counters_.pto_fired_total);
    if (protocol_error_) registry.counter(CounterId::quic_conn_protocol_error).add(1);

    const std::uint64_t edges = spin_.edges_observed();
    registry.counter(CounterId::quic_conn_spin_edges_observed).add(edges);
    // A participating peer flips about once per RTT; per-packet greasing
    // flips on ~half of all packets. Edges on more than a third of a
    // non-trivial 1-RTT packet sample cannot be a plausible spin wave.
    if (counters_.one_rtt_received >= 8 && edges * 3 >= counters_.one_rtt_received) {
        registry.counter(CounterId::quic_conn_grease_suspected).add(1);
    }

    if (rtt_.has_samples()) {
        registry.histogram(telemetry::HistogramId::quic_conn_min_rtt_ms)
            .record(rtt_.min_rtt().as_ms());
        registry.histogram(telemetry::HistogramId::quic_conn_smoothed_rtt_ms)
            .record(rtt_.smoothed_rtt().as_ms());
    }
}

}  // namespace spinscope::quic
