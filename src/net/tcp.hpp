#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cc/congestion_controller.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace mahimahi::net {

/// Zero-copy retransmission buffer: a FIFO of immutable shared chunks
/// addressed by absolute sequence number. Each send() becomes one chunk;
/// slicing a segment that lies within a single chunk returns an aliasing
/// Payload view (the common case — a bulk transfer is one chunk), so
/// transmissions and retransmissions alike copy nothing. Only a slice
/// spanning a chunk boundary materializes bytes, which copied_bytes()
/// exposes for tests and benchmarks. Acked prefixes release whole chunks
/// in O(1) — no byte shuffling on the ACK path.
class SendBuffer {
 public:
  explicit SendBuffer(std::uint64_t base) : base_{base}, end_{base} {}

  /// Append a chunk at the end of sequence space. Seals any staging chunk
  /// (an already-shared payload always stands alone).
  void push(Payload data);

  /// Append raw bytes. Writes below one MSS coalesce into an append-only
  /// staging chunk (one small copy now, like a kernel send buffer) so they
  /// do not litter sequence space with boundaries that every later
  /// segment slice would have to materialize across. Larger writes become
  /// their own zero-copy chunk.
  void push_bytes(std::string data);

  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] std::uint64_t end() const { return end_; }
  [[nodiscard]] std::uint64_t size() const { return end_ - base_; }

  /// Drop bytes below `seq` (cumulative ack). Fully-acked chunks are
  /// released; a partially-acked chunk stays until its last byte is acked.
  void ack_to(std::uint64_t seq);

  /// Payload view of [seq, seq + length) — zero-copy within one chunk.
  [[nodiscard]] Payload slice(std::uint64_t seq, std::size_t length) const;

  /// Bytes materialized by chunk-boundary-spanning slices (the only copies).
  [[nodiscard]] std::uint64_t copied_bytes() const { return copied_bytes_; }

 private:
  struct Chunk {
    std::uint64_t start;
    Payload bytes;
  };

  /// Staging chunks are fixed-capacity character arrays filled in place —
  /// appending never moves storage, so views into already-written bytes
  /// stay valid by construction (the written prefix is immutable; only
  /// the unwritten tail is touched). The capacity adapts: it starts small
  /// (an isolated 9-byte frame header should not pin a large buffer) and
  /// scales up to the max while consecutive small writes keep overflowing
  /// staging chunks.
  static constexpr std::size_t kMinStagingBytes = 512;
  static constexpr std::size_t kMaxStagingBytes = 16 * 1024;

  std::deque<Chunk> chunks_;
  std::uint64_t base_;
  std::uint64_t end_;
  /// Appendable tail chunk's storage; null when the tail is sealed.
  std::shared_ptr<char[]> staging_;
  std::size_t staging_capacity_{0};
  std::size_t staging_size_{0};
  std::size_t staging_reserve_{kMinStagingBytes};
  mutable std::uint64_t copied_bytes_{0};
};

/// Simulated TCP with the mechanisms that shape page-load time: three-way
/// handshake, pluggable congestion control (slow start, avoidance and the
/// loss response live in a cc::CongestionController — Reno/NewReno by
/// default, CUBIC/Vegas/BBR-lite by name via Config::congestion_control),
/// fast retransmit/recovery with NewReno partial-ack retransmission,
/// RFC 6298 RTO estimation with exponential backoff, cumulative ACKs,
/// out-of-order reassembly, and optional pacing (segments are spaced at
/// the controller's pacing_rate() when it advertises one, as BBR does).
/// Flow control (rwnd) is not modelled — the receiver is assumed able to
/// keep up, which holds for page loads.
///
/// Windows are byte-denominated throughout: cwnd_bytes() and the
/// controller's ssthresh count application payload bytes (headers are
/// free), with cc::kInfiniteSsthresh marking "no loss seen yet".
///
/// Segments are modelled structurally (see TcpSegment); payload bytes are
/// real, so HTTP messages cross the emulated network byte-for-byte.
class TcpConnection {
 public:
  /// Why a connection reached kClosed. Set once at the closing transition;
  /// the resilience layer upstack (HTTP/mux clients, the browser's retry
  /// policy) keys error handling off this instead of parsing strings.
  enum class CloseReason : std::uint8_t {
    kNone,                  ///< still open
    kNormal,                ///< orderly FIN/FIN-ACK exchange
    kPeerReset,             ///< RST arrived from the peer
    kSynTimeout,            ///< handshake gave up after max_syn_retries
    kRetransmitExhausted,   ///< data RTO gave up after max_rto_retries
    kLocalAbort,            ///< our side called abort()
  };

  struct Callbacks {
    std::function<void()> on_connected;            // handshake complete
    std::function<void(std::string_view)> on_data; // in-order payload bytes
    std::function<void()> on_peer_close;           // peer's FIN arrived
    std::function<void()> on_reset;                // RST or handshake failure
    /// New data was acknowledged — the hook application-level writers use
    /// to pace themselves against the send buffer (epoll-writability
    /// equivalent). Optional.
    std::function<void()> on_send_progress;
  };

  struct Config {
    std::uint32_t initial_window_segments{10};  // IW10 (RFC 6928)
    Microseconds min_rto{200'000};              // Linux's 200 ms floor
    Microseconds initial_rto{1'000'000};        // RFC 6298 §2.1
    Microseconds max_rto{60'000'000};
    int max_syn_retries{6};
    int max_rto_retries{8};  // consecutive timeouts before giving up
    /// Congestion-controller registry name ("reno", "cubic", "vegas",
    /// "bbr", ...); empty selects cc::kDefaultController. Unknown names
    /// throw std::invalid_argument at connection construction.
    std::string congestion_control{};
    /// Observability: when set, the connection records state transitions,
    /// per-RTT cwnd/ssthresh/srtt samples, retransmits and its typed
    /// close reason under `trace_session`, with a flow id allocated from
    /// the tracer at construction. Null = tracing off (the near-free
    /// default; see bench_trace_overhead).
    obs::Tracer* tracer{nullptr};
    std::int32_t trace_session{0};
  };

  /// Constructs an idle connection. The caller's wrapper binds `local` in
  /// the fabric, then calls start() (active open, client) or accept_syn()
  /// (passive open, listener). See TcpClient / TcpListener below.
  TcpConnection(Fabric& fabric, Side side, Address local, Address remote,
                Callbacks callbacks, Config config);

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Active open: send the SYN. Call after the local address is bound.
  void start();

  /// Passive open: consume the peer's SYN and answer SYN-ACK.
  void accept_syn(const TcpSegment& syn);

  /// Install callbacks after construction (listener accept path).
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  /// Queue application bytes for transmission.
  void send(std::string data);

  /// Queue an already-shared payload for transmission — the zero-copy
  /// path: the connection's segments alias the caller's buffer, which must
  /// stay immutable (see the Payload contract).
  void send(Payload data);

  /// Disambiguates string literals between the two overloads above.
  void send(const char* data) { send(std::string{data}); }

  /// Close the send side once queued data is delivered (FIN).
  void close();

  /// Abort: send RST, drop all state.
  void abort();

  /// Feed an incoming packet (called by TcpClient/TcpListener demux).
  void handle_packet(Packet&& packet);

  [[nodiscard]] bool established() const { return state_ == State::kEstablished ||
                                                  state_ == State::kCloseWait; }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  /// kNone until the connection closes; then the reason it closed. Valid
  /// to read from inside on_reset / on_peer_close callbacks.
  [[nodiscard]] CloseReason close_reason() const { return close_reason_; }
  [[nodiscard]] bool send_side_closed() const { return fin_queued_; }
  [[nodiscard]] Address local_address() const { return local_; }
  [[nodiscard]] Address remote_address() const { return remote_; }

  /// Application bytes accepted by send() but not yet acknowledged by the
  /// peer (send-buffer occupancy).
  [[nodiscard]] std::uint64_t unacked_send_bytes() const {
    return send_buffer_.size();
  }

  // --- introspection for tests and meters ---
  [[nodiscard]] std::uint64_t bytes_sent_app() const { return bytes_sent_app_; }
  [[nodiscard]] std::uint64_t bytes_received_app() const { return bytes_received_app_; }
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  /// Payload bytes the send path had to materialize (chunk-boundary
  /// slices); 0 for a single-chunk bulk transfer — the zero-copy proof.
  [[nodiscard]] std::uint64_t payload_copy_bytes() const {
    return send_buffer_.copied_bytes();
  }
  [[nodiscard]] double cwnd_bytes() const { return cc_->cwnd_bytes(); }
  [[nodiscard]] Microseconds smoothed_rtt() const { return srtt_; }
  /// The congestion-control state machine driving this connection —
  /// meters read its name(), ssthresh_bytes() and pacing_rate().
  [[nodiscard]] const cc::CongestionController& congestion() const {
    return *cc_;
  }

  /// Called when this connection fully closes; wrappers use it to unbind.
  std::function<void()> on_destroyed;

 private:
  enum class State {
    kSynSent,
    kSynReceived,
    kEstablished,
    kCloseWait,   // peer FIN received, we may still send
    kFinSent,     // our FIN sent, waiting for its ACK
    kClosed,
  };

  void emit_segment(TcpSegment segment);
  void send_syn();
  void send_pure_ack();
  void try_send_data();
  /// Pacing gate: true = this segment may go out now (and its serialization
  /// time is charged); false = the pacing timer is armed and try_send_data
  /// resumes at the next release time. Always true for unpaced controllers.
  bool pacing_admits(std::size_t length);
  void disarm_pacing_timer();
  void send_data_segment(std::uint64_t seq, std::size_t length, bool retransmit);
  void handle_ack(const TcpSegment& seg);
  void handle_payload(const Packet& packet);
  /// Deliver `head` (the bytes at rcv_nxt_, if any) and then every
  /// reassembled segment that has become contiguous.
  void deliver_in_order(std::string_view head = {});
  void enter_recovery();
  void on_rto_expired();
  void arm_retransmit_timer();
  void disarm_retransmit_timer();
  void rtt_sample(Microseconds sample);
  void maybe_finish_close();
  void become_closed();

  /// Record one obs event for this flow; no-op when tracing is off.
  void trace(obs::EventKind kind, std::uint64_t value, double metric,
             std::string label);

  [[nodiscard]] std::uint64_t flight_size() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] Microseconds rto() const;

  Fabric& fabric_;
  EventLoop& loop_;
  Side side_;
  Address local_;
  Address remote_;
  Callbacks callbacks_;
  Config config_;
  State state_{State::kClosed};
  CloseReason close_reason_{CloseReason::kNone};
  std::uint64_t flow_id_{0};  // tracer-allocated; 0 when tracing is off

  // --- send side ---
  // Sequence numbering: SYN consumes seq 0; application data starts at 1.
  SendBuffer send_buffer_{1};      // bytes [base, end) queued/unacked
  std::uint64_t snd_una_{0};
  std::uint64_t snd_nxt_{0};
  bool fin_queued_{false};
  bool fin_sent_{false};
  std::uint64_t fin_seq_{0};
  // Congestion control: all window/rate policy is delegated; the fields
  // below are reliability mechanics (what to retransmit, when), which stay
  // in the transport regardless of controller.
  std::unique_ptr<cc::CongestionController> cc_;
  int dup_acks_{0};
  bool in_recovery_{false};
  std::uint64_t recovery_point_{0};
  // Pacing (active only when cc_->pacing_rate() > 0).
  Microseconds pace_release_{0};
  EventLoop::EventId pace_event_{0};
  // RTT estimation (Karn's algorithm via a single untimed-on-retransmit sample).
  bool rtt_sample_pending_{false};
  std::uint64_t rtt_sample_end_seq_{0};
  Microseconds rtt_sample_sent_at_{0};
  Microseconds syn_sent_at_{0};  // handshake RTT sample
  Microseconds srtt_{0};
  Microseconds rttvar_{0};
  Microseconds backoff_rto_{0};  // nonzero while backing off
  /// The retransmission timer, 0 = disarmed. Every send and ACK moves it
  /// through EventLoop::rearm, which defers the one pending event in place
  /// while the deadline only moves later (no cancel, no new heap entry);
  /// an earlier deadline, as after a backoff-resetting ACK, reschedules.
  EventLoop::EventId rto_event_{0};
  int syn_retries_{0};
  int consecutive_rtos_{0};

  // --- receive side ---
  std::uint64_t rcv_nxt_{0};
  std::map<std::uint64_t, Payload> out_of_order_;  // payload views, not copies
  bool delivering_{false};  // re-entrancy guard for deliver_in_order()
  bool peer_fin_seen_{false};
  std::uint64_t peer_fin_seq_{0};
  bool our_fin_acked_{false};

  // --- counters ---
  std::uint64_t bytes_sent_app_{0};
  std::uint64_t bytes_received_app_{0};
  std::uint64_t segments_sent_{0};
  std::uint64_t retransmissions_{0};
};

/// Client-side convenience: allocates an ephemeral address, binds it in the
/// fabric, owns the connection, and unbinds on close.
class TcpClient {
 public:
  TcpClient(Fabric& fabric, Address remote, TcpConnection::Callbacks callbacks,
            TcpConnection::Config config = {});
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  [[nodiscard]] TcpConnection& connection() { return *connection_; }
  [[nodiscard]] const TcpConnection& connection() const { return *connection_; }

 private:
  Fabric& fabric_;
  Address local_;
  std::unique_ptr<TcpConnection> connection_;
};

/// Server-side listener: binds a server address, accepts SYNs, demuxes
/// packets to per-peer connections.
class TcpListener {
 public:
  /// Called for each new connection, before the SYN-ACK goes out; returns
  /// the callbacks to install — practically, the handler wires an HTTP
  /// server session around the connection. The shared_ptr lets sessions
  /// hold weak references that outlive nothing.
  using AcceptHandler = std::function<TcpConnection::Callbacks(
      const std::shared_ptr<TcpConnection>& connection)>;

  TcpListener(Fabric& fabric, Address local, AcceptHandler on_accept,
              TcpConnection::Config config = {});
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] Address local_address() const { return local_; }
  [[nodiscard]] std::size_t active_connections() const { return connections_.size(); }
  [[nodiscard]] std::uint64_t total_accepted() const { return total_accepted_; }

 private:
  void handle_packet(Packet&& packet);

  Fabric& fabric_;
  Address local_;
  AcceptHandler on_accept_;
  TcpConnection::Config config_;
  std::map<Address, std::shared_ptr<TcpConnection>> connections_;
  std::uint64_t total_accepted_{0};
};

/// Stable human-readable label ("peer reset", "retransmit limit
/// exhausted", ...) — used in page-load error strings, so the wording is
/// part of the report byte-determinism contract.
std::string_view to_string(TcpConnection::CloseReason reason);

}  // namespace mahimahi::net
