#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "http/parser.hpp"
#include "net/fault_hooks.hpp"
#include "net/fetch_hooks.hpp"
#include "net/http_session.hpp"
#include "net/tcp.hpp"

namespace mahimahi::net::mux {

/// A SPDY-like multiplexing protocol over one TCP connection per origin —
/// the kind of "new multiplexing protocol" the paper's introduction says
/// the toolkit exists to evaluate.
///
/// Wire format (little-endian): stream_id u32 | type u8 | length u32 |
/// payload. A kRequest frame carries one serialized HTTP request; the
/// server answers with kData frames carrying the serialized HTTP response
/// in chunks, interleaved round-robin across active streams and paced
/// against the TCP send buffer, then a kEnd frame. Many streams share one
/// connection: no per-request handshakes, no six-connection limit — and
/// full exposure to TCP head-of-line blocking under loss.
struct Frame {
  enum class Type : std::uint8_t { kRequest = 1, kData = 2, kEnd = 3 };
  std::uint32_t stream_id{0};
  Type type{Type::kData};
  std::string payload;

  bool operator==(const Frame&) const = default;
};

std::string encode_frame(const Frame& frame);

/// Just the 9-byte frame header — the zero-copy send path writes the
/// header and then hands the payload to TCP as an aliasing Payload slice,
/// so response bytes are never copied into a wire string.
std::string encode_frame_header(std::uint32_t stream_id, Frame::Type type,
                                std::uint32_t payload_length);

/// One decoded frame. The payload views the parser's buffer and stays
/// valid until the parser's next push().
struct FrameView {
  std::uint32_t stream_id{0};
  Frame::Type type{Frame::Type::kData};
  std::string_view payload;
};

/// Incremental frame decoder (arbitrary fragmentation). Frames are decoded
/// in place: push() records where each complete frame lies in the buffer
/// and next() hands it out as a view, so payload bytes are not copied per
/// frame. The decoded prefix is dropped lazily, on a push() with no frame
/// pending, instead of memmoving the tail after every frame.
class FrameParser {
 public:
  void push(std::string_view bytes);
  /// The next complete frame, or nullopt when none is pending.
  std::optional<FrameView> next();
  [[nodiscard]] bool failed() const { return failed_; }

  /// Frames above this payload size indicate a corrupt stream.
  static constexpr std::uint32_t kMaxPayload = 8u << 20;

 private:
  struct Decoded {
    std::uint32_t stream_id;
    Frame::Type type;
    std::size_t offset;  // payload position in buffer_
    std::uint32_t length;
  };

  std::string buffer_;
  std::size_t consumed_{0};  // decoded prefix of buffer_ awaiting compaction
  std::deque<Decoded> frames_;
  bool failed_{false};
};

/// Server side: binds an origin address and answers mux-framed HTTP
/// requests through OriginServer's per-request pipeline; only the framing
/// (data frames interleaved across streams) is its own.
class MuxServer final : public OriginServer {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 16 * 1024;

  MuxServer(Fabric& fabric, Address local, Handler handler,
            Microseconds processing_delay = 0,
            std::size_t chunk_bytes = kDefaultChunkBytes,
            TcpConnection::Config config = {});

 private:
  struct Session {
    std::weak_ptr<TcpConnection> connection;
    FrameParser parser;
    /// Per-stream unsent response bytes (aliasing views into the
    /// serialized response — draining advances the view, copying nothing),
    /// round-robin interleaved.
    std::map<std::uint32_t, Payload> pending_streams;
    std::map<std::uint32_t, Payload>::iterator next_stream;

    Session() : next_stream{pending_streams.end()} {}
  };

  TcpConnection::Callbacks make_callbacks(
      const std::shared_ptr<TcpConnection>& connection) override;
  void on_data(const std::shared_ptr<Session>& session, std::string_view bytes);
  void start_response(const std::shared_ptr<Session>& session,
                      std::uint32_t stream_id, std::string wire);
  void pump_writer(const std::shared_ptr<Session>& session);

  std::size_t chunk_bytes_;
};

/// Client side: one connection, many concurrent fetches.
class MuxClientConnection {
 public:
  using ResponseCallback = std::function<void(http::Response)>;
  using ErrorCallback = std::function<void(const std::string& reason)>;

  MuxClientConnection(Fabric& fabric, Address server,
                      ErrorCallback on_error = {},
                      TcpConnection::Config config = {});

  MuxClientConnection(const MuxClientConnection&) = delete;
  MuxClientConnection& operator=(const MuxClientConnection&) = delete;

  /// Issue a request; unlike HTTP/1.1, any number may be outstanding.
  /// `hooks` (optional) observe this stream's transport edges.
  void fetch(http::Request request, ResponseCallback callback,
             FetchHooks hooks = {});

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] std::size_t outstanding() const { return streams_.size(); }
  [[nodiscard]] const TcpConnection& connection() const {
    return client_.connection();
  }

 private:
  struct Stream {
    http::ResponseParser parser;
    ResponseCallback callback;
    FetchHooks hooks;  // on_first_byte disarmed after the first kData frame
  };

  void on_data(std::string_view bytes);
  void fail(const std::string& reason);

  FrameParser parser_;
  std::map<std::uint32_t, Stream> streams_;
  std::uint32_t next_stream_id_{1};
  bool connected_{false};
  bool alive_{true};
  std::deque<std::string> queued_frames_;  // sent once connected
  ErrorCallback on_error_;
  TcpClient client_;  // declared last: callbacks reference the above
};

}  // namespace mahimahi::net::mux
