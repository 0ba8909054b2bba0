#include "net/tcp.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "cc/registry.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::net {
namespace {

constexpr double kMssBytes = static_cast<double>(kMss);

}  // namespace

// --- SendBuffer ---------------------------------------------------------------

void SendBuffer::push(Payload data) {
  if (data.empty()) {
    return;
  }
  staging_.reset();  // seal: sequence space after the tail is taken
  const std::uint64_t start = end_;
  end_ += data.size();
  chunks_.push_back(Chunk{start, std::move(data)});
}

void SendBuffer::push_bytes(std::string data) {
  if (data.empty()) {
    return;
  }
  if (data.size() >= kMss) {
    push(Payload{std::move(data)});  // big write: its own zero-copy chunk
    return;
  }
  // Small write: coalesce into the staging tail (a fixed-capacity array
  // filled in place — outstanding views stay valid by construction).
  if (staging_ != nullptr && staging_size_ + data.size() > staging_capacity_) {
    // Consecutive small writes keep overflowing: give the next staging
    // chunk more headroom (fewer boundaries, fewer materialized slices).
    staging_reserve_ = std::min(staging_reserve_ * 4, kMaxStagingBytes);
    staging_.reset();
  }
  if (staging_ == nullptr) {
    staging_capacity_ = std::max(staging_reserve_, data.size());
    staging_ = std::make_shared_for_overwrite<char[]>(staging_capacity_);
    staging_size_ = 0;
    chunks_.push_back(Chunk{end_, Payload{}});
  }
  std::memcpy(staging_.get() + staging_size_, data.data(), data.size());
  staging_size_ += data.size();
  end_ += data.size();
  // Refresh the tail chunk's view to cover the written prefix (aliasing
  // owner handle: the array outlives every view).
  chunks_.back().bytes = Payload::from_storage(
      std::shared_ptr<const void>{staging_, staging_.get()}, staging_.get(),
      staging_size_);
}

void SendBuffer::ack_to(std::uint64_t seq) {
  if (seq <= base_) {
    return;
  }
  MAHI_ASSERT_MSG(seq <= end_, "ack beyond buffered data");
  base_ = seq;
  while (!chunks_.empty()) {
    const Chunk& front = chunks_.front();
    if (front.start + front.bytes.size() > base_) {
      break;  // partially acked; keep until its last byte is acked
    }
    chunks_.pop_front();
  }
  if (chunks_.empty()) {
    staging_.reset();  // the staging chunk was fully acked and released
  }
}

Payload SendBuffer::slice(std::uint64_t seq, std::size_t length) const {
  MAHI_ASSERT_MSG(seq >= base_ && seq + length <= end_,
                  "slice outside buffered data");
  if (length == 0) {
    return {};
  }
  // Chunks are sorted by start; find the first whose end covers `seq`.
  const auto it = std::partition_point(
      chunks_.begin(), chunks_.end(), [seq](const Chunk& chunk) {
        return chunk.start + chunk.bytes.size() <= seq;
      });
  const std::size_t offset = static_cast<std::size_t>(seq - it->start);
  if (offset + length <= it->bytes.size()) {
    return it->bytes.slice(offset, length);  // common case: aliasing view
  }
  // Rare: the segment spans a chunk boundary; materialize one buffer.
  std::string joined;
  joined.reserve(length);
  std::uint64_t pos = seq;
  for (auto chunk = it; joined.size() < length; ++chunk) {
    const auto chunk_offset = static_cast<std::size_t>(pos - chunk->start);
    const std::string_view piece =
        chunk->bytes.view().substr(chunk_offset, length - joined.size());
    joined.append(piece);
    pos += piece.size();
  }
  copied_bytes_ += length;
  return Payload{std::move(joined)};
}

// --- TcpConnection ------------------------------------------------------------

TcpConnection::TcpConnection(Fabric& fabric, Side side, Address local,
                             Address remote, Callbacks callbacks, Config config)
    : fabric_{fabric},
      loop_{fabric.loop()},
      side_{side},
      local_{local},
      remote_{remote},
      callbacks_{std::move(callbacks)},
      config_{std::move(config)} {
  cc::Params params;
  params.mss_bytes = kMssBytes;
  params.initial_cwnd_bytes = config_.initial_window_segments * kMssBytes;
  cc_ = cc::make_controller(config_.congestion_control, params);
  if (config_.tracer != nullptr) {
    // Flow ids are allocated in construction order, which is simulation
    // order — deterministic per the event-loop contract.
    flow_id_ = config_.tracer->allocate_flow_id();
  }
}

void TcpConnection::trace(obs::EventKind kind, std::uint64_t value,
                          double metric, std::string label) {
  if (config_.tracer == nullptr) {
    return;
  }
  config_.tracer->event(loop_.now(), obs::Layer::kTcp, kind,
                        config_.trace_session, flow_id_, value, metric,
                        std::move(label));
}

void TcpConnection::start() { send_syn(); }

void TcpConnection::accept_syn(const TcpSegment& syn) {
  MAHI_ASSERT(syn.syn && !syn.has_ack);
  state_ = State::kSynReceived;
  trace(obs::EventKind::kTcpConnect, 0, 0, remote_.to_string());
  snd_una_ = 0;
  snd_nxt_ = 1;  // our SYN-ACK's SYN consumes sequence 0
  rcv_nxt_ = syn.seq + 1;
  syn_sent_at_ = loop_.now();
  TcpSegment syn_ack;
  syn_ack.seq = 0;
  syn_ack.syn = true;
  syn_ack.ack = rcv_nxt_;
  syn_ack.has_ack = true;
  emit_segment(std::move(syn_ack));
  arm_retransmit_timer();
}

TcpConnection::~TcpConnection() {
  disarm_retransmit_timer();
  disarm_pacing_timer();
}

Microseconds TcpConnection::rto() const {
  if (backoff_rto_ != 0) {
    return backoff_rto_;
  }
  if (srtt_ == 0) {
    return config_.initial_rto;
  }
  const Microseconds computed = srtt_ + std::max<Microseconds>(4 * rttvar_, 1'000);
  return std::clamp(computed, config_.min_rto, config_.max_rto);
}

void TcpConnection::emit_segment(TcpSegment segment) {
  Packet packet;
  packet.src = local_;
  packet.dst = remote_;
  packet.protocol = Protocol::kTcp;
  packet.tcp = std::move(segment);
  ++segments_sent_;
  fabric_.send(side_, std::move(packet));
}

void TcpConnection::send_syn() {
  state_ = State::kSynSent;
  trace(obs::EventKind::kTcpConnect, 0, 0, remote_.to_string());
  snd_una_ = 0;
  snd_nxt_ = 1;  // SYN consumes sequence 0
  syn_sent_at_ = loop_.now();
  TcpSegment syn;
  syn.seq = 0;
  syn.syn = true;
  emit_segment(std::move(syn));
  arm_retransmit_timer();
}

void TcpConnection::send_pure_ack() {
  TcpSegment ack;
  ack.seq = snd_nxt_;
  ack.ack = rcv_nxt_;
  ack.has_ack = true;
  emit_segment(std::move(ack));
}

void TcpConnection::send(std::string data) {
  MAHI_ASSERT_MSG(!fin_queued_, "send() after close()");
  if (data.empty() || state_ == State::kClosed) {
    return;
  }
  bytes_sent_app_ += data.size();
  send_buffer_.push_bytes(std::move(data));  // sub-MSS writes coalesce
  if (established()) {
    try_send_data();
  }
}

void TcpConnection::send(Payload data) {
  MAHI_ASSERT_MSG(!fin_queued_, "send() after close()");
  if (data.empty() || state_ == State::kClosed) {
    return;
  }
  bytes_sent_app_ += data.size();
  send_buffer_.push(std::move(data));
  if (established()) {
    try_send_data();
  }
}

void TcpConnection::close() {
  if (fin_queued_ || state_ == State::kClosed) {
    return;
  }
  fin_queued_ = true;
  if (established()) {
    try_send_data();
  }
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) {
    return;
  }
  close_reason_ = CloseReason::kLocalAbort;
  TcpSegment rst;
  rst.seq = snd_nxt_;
  rst.rst = true;
  emit_segment(std::move(rst));
  become_closed();
}

void TcpConnection::try_send_data() {
  if (!established() && state_ != State::kFinSent) {
    return;
  }
  const std::uint64_t data_end = send_buffer_.end();
  while (snd_nxt_ < data_end) {
    const std::size_t available = static_cast<std::size_t>(data_end - snd_nxt_);
    const std::size_t length = std::min<std::size_t>(kMss, available);
    if (static_cast<double>(flight_size() + length) > cc_->cwnd_bytes()) {
      break;  // congestion window full
    }
    if (!pacing_admits(length)) {
      break;  // pacing timer armed; try_send_data resumes on release
    }
    send_data_segment(snd_nxt_, length, /*retransmit=*/false);
    snd_nxt_ += length;
  }
  // FIN goes out once all data is sent (it consumes one sequence number).
  if (fin_queued_ && !fin_sent_ && snd_nxt_ == data_end) {
    fin_seq_ = snd_nxt_;
    TcpSegment fin;
    fin.seq = fin_seq_;
    fin.fin = true;
    fin.ack = rcv_nxt_;
    fin.has_ack = true;
    emit_segment(std::move(fin));
    snd_nxt_ += 1;
    fin_sent_ = true;
    if (state_ == State::kEstablished || state_ == State::kCloseWait) {
      state_ = State::kFinSent;
    }
  }
  if (flight_size() > 0) {
    arm_retransmit_timer();
  }
}

bool TcpConnection::pacing_admits(std::size_t length) {
  const double rate = cc_->pacing_rate();  // payload bytes per second
  if (rate <= 0) {
    return true;  // window-limited controller: burst freely
  }
  const Microseconds now = loop_.now();
  if (pace_release_ > now) {
    if (pace_event_ == 0) {
      pace_event_ = loop_.schedule_at(pace_release_, [this] {
        pace_event_ = 0;
        try_send_data();
      });
    }
    return false;
  }
  const auto gap = static_cast<Microseconds>(
      static_cast<double>(length) * 1e6 / rate);
  pace_release_ = std::max(pace_release_, now) + std::max<Microseconds>(gap, 1);
  return true;
}

void TcpConnection::disarm_pacing_timer() {
  if (pace_event_ != 0) {
    loop_.cancel(pace_event_);
    pace_event_ = 0;
  }
}

void TcpConnection::send_data_segment(std::uint64_t seq, std::size_t length,
                                      bool retransmit) {
  TcpSegment seg;
  seg.seq = seq;
  seg.ack = rcv_nxt_;
  seg.has_ack = true;
  // Zero-copy: the segment aliases the buffered chunk (transmission and
  // retransmission alike); SendBuffer::slice asserts the range is buffered.
  seg.payload = send_buffer_.slice(seq, length);
  emit_segment(std::move(seg));
  if (retransmit) {
    ++retransmissions_;
    trace(obs::EventKind::kTcpRetransmit, seq, 0, {});
    // Karn's algorithm: samples spanning a retransmission are invalid.
    rtt_sample_pending_ = false;
  } else if (!rtt_sample_pending_) {
    rtt_sample_pending_ = true;
    rtt_sample_end_seq_ = seq + length;
    rtt_sample_sent_at_ = loop_.now();
  }
}

void TcpConnection::handle_packet(Packet&& packet) {
  if (state_ == State::kClosed) {
    // A closed endpoint answers anything but RST with RST, so a peer
    // stuck retransmitting learns quickly instead of backing off forever.
    if (!packet.tcp.rst) {
      TcpSegment rst;
      rst.seq = snd_nxt_;
      rst.rst = true;
      emit_segment(std::move(rst));
    }
    return;
  }
  const TcpSegment& seg = packet.tcp;

  if (seg.rst) {
    close_reason_ = CloseReason::kPeerReset;
    if (callbacks_.on_reset) {
      callbacks_.on_reset();
    }
    become_closed();
    return;
  }

  // --- handshake states ---
  if (state_ == State::kSynSent) {
    if (seg.syn && seg.has_ack && seg.ack == 1) {
      snd_una_ = 1;
      rcv_nxt_ = seg.seq + 1;
      state_ = State::kEstablished;
      trace(obs::EventKind::kTcpEstablished, 0, 0, {});
      backoff_rto_ = 0;
      if (syn_retries_ == 0) {  // Karn: no sample across a retransmitted SYN
        rtt_sample(loop_.now() - syn_sent_at_);
      }
      syn_retries_ = 0;
      disarm_retransmit_timer();
      send_pure_ack();
      if (callbacks_.on_connected) {
        callbacks_.on_connected();
      }
      try_send_data();
    }
    return;
  }

  if (state_ == State::kSynReceived) {
    if (seg.syn && !seg.has_ack) {
      // Duplicate SYN (our SYN-ACK was lost): resend it.
      TcpSegment syn_ack;
      syn_ack.seq = 0;
      syn_ack.syn = true;
      syn_ack.ack = rcv_nxt_;
      syn_ack.has_ack = true;
      emit_segment(std::move(syn_ack));
      return;
    }
    if (seg.has_ack && seg.ack >= 1) {
      snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
      state_ = State::kEstablished;
      trace(obs::EventKind::kTcpEstablished, 0, 0, {});
      backoff_rto_ = 0;
      if (syn_retries_ == 0) {
        rtt_sample(loop_.now() - syn_sent_at_);
      }
      syn_retries_ = 0;
      disarm_retransmit_timer();
      if (callbacks_.on_connected) {
        callbacks_.on_connected();
      }
      // Fall through: the ACK may carry data (or more ack info).
    } else {
      return;
    }
  }

  // A retransmitted SYN-ACK after we are established: our handshake ACK
  // was lost; re-acknowledge.
  if (seg.syn) {
    send_pure_ack();
    return;
  }

  if (seg.has_ack) {
    handle_ack(seg);
    if (state_ == State::kClosed) {
      return;  // handle_ack may complete a close
    }
  }
  if (!seg.payload.empty() || seg.fin) {
    handle_payload(packet);
  }
}

void TcpConnection::handle_ack(const TcpSegment& seg) {
  if (seg.ack > snd_nxt_) {
    return;  // acks data we never sent; ignore
  }
  if (seg.ack > snd_una_) {
    const std::uint64_t newly_acked = seg.ack - snd_una_;
    snd_una_ = seg.ack;
    dup_acks_ = 0;
    backoff_rto_ = 0;
    consecutive_rtos_ = 0;

    // Release acknowledged bytes from the send buffer (data seq space
    // only). Whole chunks are dropped in O(1) — no byte shuffling.
    const std::uint64_t data_end = send_buffer_.end();
    send_buffer_.ack_to(std::min(snd_una_, data_end));

    if (rtt_sample_pending_ && seg.ack >= rtt_sample_end_seq_) {
      rtt_sample_pending_ = false;
      rtt_sample(loop_.now() - rtt_sample_sent_at_);
    }

    // Recovery mechanics stay in the transport; the window response is
    // the controller's (Reno deflates/exits, CUBIC re-anchors its curve).
    cc::AckEvent ack_event;
    ack_event.newly_acked_bytes = newly_acked;
    ack_event.now = loop_.now();
    if (in_recovery_) {
      if (seg.ack >= recovery_point_) {
        in_recovery_ = false;
        ack_event.exiting_recovery = true;
      } else {
        ack_event.in_recovery = true;
        // NewReno partial ack: retransmit the next hole immediately.
        const std::uint64_t hole_len =
            std::min<std::uint64_t>(kMss, data_end - snd_una_);
        if (hole_len > 0 && snd_una_ >= send_buffer_.base()) {
          send_data_segment(snd_una_, static_cast<std::size_t>(hole_len), true);
        }
      }
    }
    ack_event.bytes_in_flight = flight_size();
    cc_->on_ack(ack_event);

    if (fin_sent_ && seg.ack > fin_seq_) {
      our_fin_acked_ = true;
    }

    if (flight_size() > 0) {
      arm_retransmit_timer();
    } else {
      disarm_retransmit_timer();
    }
    maybe_finish_close();
    if (state_ != State::kClosed) {
      try_send_data();
      if (callbacks_.on_send_progress) {
        callbacks_.on_send_progress();
      }
    }
    return;
  }

  // Duplicate ACK (no window update modelling, so any same-ack counts
  // when data is in flight and the segment carries no payload/fin).
  if (seg.ack == snd_una_ && flight_size() > 0 && seg.payload.empty() &&
      !seg.fin) {
    ++dup_acks_;
    if (!in_recovery_ && dup_acks_ == 3) {
      enter_recovery();
    } else {
      cc::AckEvent dup;
      dup.is_duplicate = true;
      dup.bytes_in_flight = flight_size();
      dup.in_recovery = in_recovery_;
      dup.now = loop_.now();
      cc_->on_ack(dup);  // Reno inflates during recovery; others observe
      if (in_recovery_) {
        try_send_data();
      }
    }
  }
}

void TcpConnection::enter_recovery() {
  cc::LossEvent loss;
  loss.bytes_in_flight = flight_size();
  loss.now = loop_.now();
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  cc_->on_loss_event(loss);
  const std::uint64_t data_end = send_buffer_.end();
  if (snd_una_ < data_end) {
    const std::uint64_t len = std::min<std::uint64_t>(kMss, data_end - snd_una_);
    send_data_segment(snd_una_, static_cast<std::size_t>(len), true);
  } else if (fin_sent_ && snd_una_ == fin_seq_) {
    TcpSegment fin;
    fin.seq = fin_seq_;
    fin.fin = true;
    fin.ack = rcv_nxt_;
    fin.has_ack = true;
    ++retransmissions_;
    emit_segment(std::move(fin));
  }
  arm_retransmit_timer();
}

void TcpConnection::handle_payload(const Packet& packet) {
  const TcpSegment& seg = packet.tcp;
  if (!seg.payload.empty()) {
    const std::uint64_t seg_end = seg.seq + seg.payload.size();
    if (seg_end > rcv_nxt_) {
      if (seg.seq <= rcv_nxt_ && out_of_order_.empty() && !delivering_) {
        // In order with nothing queued behind it: the fresh bytes go
        // straight to on_data, with no reassembly node. The packet keeps
        // them alive for the call.
        deliver_in_order(seg.payload.view().substr(
            static_cast<std::size_t>(rcv_nxt_ - seg.seq)));
      } else {
        // Keep only the part at/after rcv_nxt_ if the segment overlaps
        // already-received data. Stored as payload views — reassembly
        // holds references into the sender's buffers, never copies.
        std::uint64_t start = seg.seq;
        Payload payload = seg.payload;
        if (start < rcv_nxt_) {
          payload = payload.without_prefix(
              static_cast<std::size_t>(rcv_nxt_ - start));
          start = rcv_nxt_;
        }
        const auto [it, inserted] = out_of_order_.try_emplace(start, payload);
        if (!inserted && it->second.size() < payload.size()) {
          it->second = std::move(payload);
        }
        deliver_in_order();
      }
    }
  }
  if (seg.fin) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = seg.seq + seg.payload.size();
    deliver_in_order();
  }
  // Immediate ACK for every received segment (no delayed-ACK modelling).
  send_pure_ack();
  maybe_finish_close();
}

void TcpConnection::deliver_in_order(std::string_view head) {
  // The on_data callback may synchronously trigger more packets (zero-
  // latency chains) and re-enter this function; the guard makes the outer
  // frame the only one that drains, which is safe because the loop
  // re-reads begin() each pass.
  if (delivering_) {
    return;
  }
  delivering_ = true;
  if (!head.empty()) {
    bytes_received_app_ += head.size();
    rcv_nxt_ += head.size();
    if (callbacks_.on_data) {
      callbacks_.on_data(head);
      if (state_ == State::kClosed) {
        delivering_ = false;
        return;  // callback closed the connection
      }
    }
  }
  while (true) {
    const auto it = out_of_order_.begin();
    if (it == out_of_order_.end() || it->first > rcv_nxt_) {
      break;
    }
    const std::uint64_t start = it->first;
    const Payload chunk = std::move(it->second);  // keeps the buffer alive
    out_of_order_.erase(it);  // erase before the callback: re-entrancy
    const std::uint64_t end = start + chunk.size();
    if (end <= rcv_nxt_) {
      continue;  // stale duplicate
    }
    const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - start);
    const std::string_view fresh = chunk.view().substr(skip);
    bytes_received_app_ += fresh.size();
    rcv_nxt_ = end;
    if (callbacks_.on_data) {
      callbacks_.on_data(fresh);
      if (state_ == State::kClosed) {
        delivering_ = false;
        return;  // callback closed the connection
      }
    }
  }
  delivering_ = false;
  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;  // FIN consumes one sequence number
    if (state_ == State::kEstablished) {
      state_ = State::kCloseWait;
    }
    if (callbacks_.on_peer_close) {
      callbacks_.on_peer_close();
    }
  }
}

void TcpConnection::on_rto_expired() {
  rto_event_ = 0;
  if (state_ == State::kClosed) {
    return;
  }
  trace(obs::EventKind::kTcpRto,
        static_cast<std::uint64_t>(consecutive_rtos_ + 1), to_ms(rto()), {});
  // Back off the timer (RFC 6298 §5.5).
  backoff_rto_ = std::min<Microseconds>(rto() * 2, config_.max_rto);

  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    if (++syn_retries_ > config_.max_syn_retries) {
      close_reason_ = CloseReason::kSynTimeout;
      if (callbacks_.on_reset) {
        callbacks_.on_reset();
      }
      become_closed();
      return;
    }
    TcpSegment syn;
    syn.seq = 0;
    syn.syn = true;
    if (state_ == State::kSynReceived) {
      syn.ack = rcv_nxt_;
      syn.has_ack = true;
    }
    ++retransmissions_;
    emit_segment(std::move(syn));
    arm_retransmit_timer();
    return;
  }

  if (flight_size() == 0) {
    return;  // stale timer
  }
  if (++consecutive_rtos_ > config_.max_rto_retries) {
    // The peer is unreachable (or gone): give up like tcp_retries2.
    close_reason_ = CloseReason::kRetransmitExhausted;
    if (callbacks_.on_reset) {
      callbacks_.on_reset();
    }
    become_closed();
    return;
  }
  // Collapse to one segment; the controller decides where slow start
  // resumes from.
  cc::RtoEvent rto_event;
  rto_event.bytes_in_flight = flight_size();
  rto_event.now = loop_.now();
  cc_->on_rto(rto_event);
  in_recovery_ = false;
  dup_acks_ = 0;
  const std::uint64_t data_end = send_buffer_.end();
  if (snd_una_ < data_end) {
    const std::uint64_t len = std::min<std::uint64_t>(kMss, data_end - snd_una_);
    send_data_segment(snd_una_, static_cast<std::size_t>(len), true);
  } else if (fin_sent_ && snd_una_ == fin_seq_) {
    TcpSegment fin;
    fin.seq = fin_seq_;
    fin.fin = true;
    fin.ack = rcv_nxt_;
    fin.has_ack = true;
    ++retransmissions_;
    emit_segment(std::move(fin));
  }
  arm_retransmit_timer();
}

void TcpConnection::arm_retransmit_timer() {
  loop_.rearm(rto_event_, loop_.now() + rto(), [this] { on_rto_expired(); });
}

void TcpConnection::disarm_retransmit_timer() {
  if (rto_event_ != 0) {
    loop_.cancel(rto_event_);
    rto_event_ = 0;
  }
}

void TcpConnection::rtt_sample(Microseconds sample) {
  sample = std::max<Microseconds>(sample, 1);
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Microseconds err = std::abs(srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  cc_->on_rtt_sample(sample, loop_.now());
  if (config_.tracer != nullptr) {
    // One cwnd/srtt sample per accepted RTT measurement — bounds trace
    // volume to O(RTTs) instead of O(segments).
    const double ssthresh = cc_->ssthresh_bytes();
    trace(obs::EventKind::kTcpCwndSample,
          ssthresh >= cc::kInfiniteSsthresh
              ? 0
              : static_cast<std::uint64_t>(ssthresh),
          cc_->cwnd_bytes(), {});
    trace(obs::EventKind::kTcpRttSample, static_cast<std::uint64_t>(sample),
          to_ms(srtt_), {});
  }
}

void TcpConnection::maybe_finish_close() {
  if (state_ == State::kClosed) {
    return;
  }
  const bool peer_done = peer_fin_seen_ && rcv_nxt_ > peer_fin_seq_;
  if (our_fin_acked_ && peer_done) {
    become_closed();  // TIME_WAIT elided: structural demux makes it unnecessary
  }
}

void TcpConnection::become_closed() {
  state_ = State::kClosed;
  if (close_reason_ == CloseReason::kNone) {
    close_reason_ = CloseReason::kNormal;
  }
  trace(obs::EventKind::kTcpClose, 0, 0,
        std::string(to_string(close_reason_)));
  disarm_retransmit_timer();
  disarm_pacing_timer();
  if (on_destroyed) {
    on_destroyed();
  }
}

// --- TcpClient ---------------------------------------------------------------

TcpClient::TcpClient(Fabric& fabric, Address remote,
                     TcpConnection::Callbacks callbacks,
                     TcpConnection::Config config)
    : fabric_{fabric}, local_{fabric.allocate_client_address()} {
  connection_ = std::make_unique<TcpConnection>(fabric, Side::kClient, local_,
                                                remote, std::move(callbacks),
                                                config);
  fabric_.bind(Side::kClient, local_, [conn = connection_.get()](Packet&& p) {
    conn->handle_packet(std::move(p));
  });
  connection_->start();
}

TcpClient::~TcpClient() { fabric_.unbind(Side::kClient, local_); }

// --- TcpListener --------------------------------------------------------------

TcpListener::TcpListener(Fabric& fabric, Address local, AcceptHandler on_accept,
                         TcpConnection::Config config)
    : fabric_{fabric},
      local_{local},
      on_accept_{std::move(on_accept)},
      config_{config} {
  MAHI_ASSERT(on_accept_ != nullptr);
  fabric_.bind(Side::kServer, local_,
               [this](Packet&& p) { handle_packet(std::move(p)); });
}

TcpListener::~TcpListener() { fabric_.unbind(Side::kServer, local_); }

void TcpListener::handle_packet(Packet&& packet) {
  const Address peer = packet.src;
  const auto it = connections_.find(peer);
  if (it != connections_.end()) {
    it->second->handle_packet(std::move(packet));
    return;
  }
  if (!packet.tcp.syn || packet.tcp.has_ack) {
    // Not a new connection attempt: answer with RST like a real stack.
    if (!packet.tcp.rst) {
      Packet rst;
      rst.src = local_;
      rst.dst = peer;
      rst.protocol = Protocol::kTcp;
      rst.tcp.rst = true;
      fabric_.send(Side::kServer, std::move(rst));
    }
    return;
  }
  // New connection.
  auto connection = std::make_shared<TcpConnection>(
      fabric_, Side::kServer, local_, peer, TcpConnection::Callbacks{}, config_);
  connection->set_callbacks(on_accept_(connection));
  connection->on_destroyed = [this, peer] {
    // Defer erasure: we may be inside this connection's own call stack.
    fabric_.loop().schedule_in(0, [this, peer] { connections_.erase(peer); });
  };
  connections_.emplace(peer, connection);
  ++total_accepted_;
  connection->accept_syn(packet.tcp);
}

std::string_view to_string(TcpConnection::CloseReason reason) {
  switch (reason) {
    case TcpConnection::CloseReason::kNone:
      return "open";
    case TcpConnection::CloseReason::kNormal:
      return "closed";
    case TcpConnection::CloseReason::kPeerReset:
      return "peer reset";
    case TcpConnection::CloseReason::kSynTimeout:
      return "connect timeout (SYN retransmit limit)";
    case TcpConnection::CloseReason::kRetransmitExhausted:
      return "retransmit limit exhausted";
    case TcpConnection::CloseReason::kLocalAbort:
      return "local abort";
  }
  return "unknown";
}

}  // namespace mahimahi::net
