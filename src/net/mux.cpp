#include "net/mux.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mahimahi::net::mux {
namespace {

constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4;

/// Keep at most this much unacknowledged response data in the TCP send
/// buffer; the writer tops it up on send progress (epoll-writability).
constexpr std::uint64_t kWriterHighWater = 64 * 1024;

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint32_t read_u32(const char* bytes) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

std::string encode_frame_header(std::uint32_t stream_id, Frame::Type type,
                                std::uint32_t payload_length) {
  std::string out;
  out.reserve(kFrameHeaderBytes);
  put_u32(out, stream_id);
  out += static_cast<char>(type);
  put_u32(out, payload_length);
  return out;
}

std::string encode_frame(const Frame& frame) {
  std::string out = encode_frame_header(
      frame.stream_id, frame.type,
      static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  return out;
}

void FrameParser::push(std::string_view bytes) {
  if (failed_) {
    return;
  }
  // Compact lazily, and only with no frame pending (their views point
  // into the buffer): drop the decoded prefix when it dominates, so
  // steady-state parsing does no per-frame memmove.
  if (frames_.empty()) {
    if (consumed_ == buffer_.size()) {
      buffer_.clear();
      consumed_ = 0;
    } else if (consumed_ > buffer_.size() / 2 && consumed_ > 4096) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
  }
  buffer_.append(bytes);
  while (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    const char* head = buffer_.data() + consumed_;
    const std::uint32_t stream_id = read_u32(head);
    const auto type = static_cast<Frame::Type>(head[4]);
    const std::uint32_t length = read_u32(head + 5);
    if (type != Frame::Type::kRequest && type != Frame::Type::kData &&
        type != Frame::Type::kEnd) {
      failed_ = true;
      return;
    }
    if (length > kMaxPayload) {
      failed_ = true;
      return;
    }
    if (buffer_.size() - consumed_ < kFrameHeaderBytes + length) {
      break;  // wait for the rest
    }
    frames_.push_back(
        Decoded{stream_id, type, consumed_ + kFrameHeaderBytes, length});
    consumed_ += kFrameHeaderBytes + length;
  }
}

std::optional<FrameView> FrameParser::next() {
  if (frames_.empty()) {
    return std::nullopt;
  }
  const Decoded frame = frames_.front();
  frames_.pop_front();
  return FrameView{
      frame.stream_id, frame.type,
      std::string_view{buffer_}.substr(frame.offset, frame.length)};
}

// --- MuxServer ------------------------------------------------------------------

MuxServer::MuxServer(Fabric& fabric, Address local, Handler handler,
                     Microseconds processing_delay, std::size_t chunk_bytes,
                     TcpConnection::Config config)
    : OriginServer{fabric, local, std::move(handler), processing_delay,
                   std::move(config)},
      chunk_bytes_{chunk_bytes} {
  MAHI_ASSERT(chunk_bytes_ > 0);
}

TcpConnection::Callbacks MuxServer::make_callbacks(
    const std::shared_ptr<TcpConnection>& connection) {
  auto session = std::make_shared<Session>();
  session->connection = connection;
  TcpConnection::Callbacks callbacks;
  callbacks.on_data = [this, session](std::string_view bytes) {
    on_data(session, bytes);
  };
  callbacks.on_peer_close = [session] {
    if (const auto conn = session->connection.lock()) {
      conn->close();
    }
  };
  callbacks.on_send_progress = [this, session] { pump_writer(session); };
  return callbacks;
}

void MuxServer::on_data(const std::shared_ptr<Session>& session,
                        std::string_view bytes) {
  session->parser.push(bytes);
  if (session->parser.failed()) {
    MAHI_WARN("mux-server") << "frame parse failure; aborting connection";
    if (const auto conn = session->connection.lock()) {
      conn->abort();
    }
    return;
  }
  while (const auto frame = session->parser.next()) {
    if (frame->type != Frame::Type::kRequest) {
      continue;  // clients only send requests
    }
    const std::uint32_t id = frame->stream_id;
    http::RequestParser request_parser;
    request_parser.push(frame->payload);
    if (request_parser.failed() || !request_parser.has_message()) {
      // Answered at once, outside the fault pipeline (no fault-hook
      // index), as HttpServer answers a malformed request.
      MAHI_WARN("mux-server") << "bad request in stream " << id;
      start_response(session, id, http::to_framed_bytes(bad_request()));
      continue;
    }
    const bool served = serve(
        request_parser.pop(),
        [this, session, id](std::string wire) {
          start_response(session, id, std::move(wire));
        },
        [session, id](std::string prefix) {
          // One partial data frame, then RST. Every other stream on the
          // connection dies with it — shared-fate, as real.
          if (const auto conn = session->connection.lock()) {
            conn->send(encode_frame_header(
                id, Frame::Type::kData,
                static_cast<std::uint32_t>(prefix.size())));
            conn->send(std::move(prefix));
            conn->abort();
          }
        });
    if (!served) {
      return;
    }
  }
}

void MuxServer::start_response(const std::shared_ptr<Session>& session,
                               std::uint32_t stream_id, std::string wire) {
  // One shared buffer per response; every data frame below aliases it.
  session->pending_streams[stream_id] = Payload{std::move(wire)};
  session->next_stream = session->pending_streams.begin();
  pump_writer(session);
}

void MuxServer::pump_writer(const std::shared_ptr<Session>& session) {
  const auto connection = session->connection.lock();
  if (!connection || connection->closed()) {
    return;
  }
  // Round-robin one chunk per active stream while the send buffer has
  // room — this is what interleaves large and small responses.
  while (!session->pending_streams.empty() &&
         connection->unacked_send_bytes() < kWriterHighWater) {
    if (session->next_stream == session->pending_streams.end()) {
      session->next_stream = session->pending_streams.begin();
    }
    auto it = session->next_stream;
    Payload& remaining = it->second;
    const std::size_t take = std::min(chunk_bytes_, remaining.size());
    // Zero-copy: 9 header bytes are fresh; the payload chunk is an
    // aliasing slice of the response buffer, and draining advances the
    // view instead of erasing bytes.
    connection->send(encode_frame_header(it->first, Frame::Type::kData,
                                         static_cast<std::uint32_t>(take)));
    connection->send(remaining.slice(0, take));
    remaining = remaining.without_prefix(take);
    if (remaining.empty()) {
      connection->send(encode_frame_header(it->first, Frame::Type::kEnd, 0));
      session->next_stream = session->pending_streams.erase(it);
    } else {
      ++session->next_stream;
    }
  }
}

// --- MuxClientConnection ----------------------------------------------------------

MuxClientConnection::MuxClientConnection(Fabric& fabric, Address server,
                                         ErrorCallback on_error,
                                         TcpConnection::Config config)
    : on_error_{std::move(on_error)},
      client_{fabric, server,
              TcpConnection::Callbacks{
                  .on_connected =
                      [this] {
                        connected_ = true;
                        // Streams opened pre-connect all waited on this
                        // handshake; later streams find connected_ set and
                        // never get the callback (warm connection).
                        for (auto& [id, stream] : streams_) {
                          fire_once(stream.hooks.on_connected);
                        }
                        for (auto& frame : queued_frames_) {
                          client_.connection().send(std::move(frame));
                        }
                        queued_frames_.clear();
                      },
                  .on_data = [this](std::string_view b) { on_data(b); },
                  .on_peer_close =
                      [this] {
                        if (!streams_.empty()) {
                          fail("connection closed with streams open");
                        }
                        alive_ = false;
                      },
                  .on_reset =
                      [this] {
                        fail(reset_error(client_.connection().close_reason()));
                      }},
              std::move(config)} {}

void MuxClientConnection::fetch(http::Request request,
                                ResponseCallback callback, FetchHooks hooks) {
  MAHI_ASSERT(callback != nullptr);
  if (!alive_) {
    if (on_error_) {
      on_error_("fetch on dead mux connection");
    }
    return;
  }
  const std::uint32_t id = next_stream_id_++;
  auto& stream = streams_[id];
  stream.callback = std::move(callback);
  stream.hooks = std::move(hooks);
  stream.parser.notify_request(request.method);

  Frame frame;
  frame.stream_id = id;
  frame.type = Frame::Type::kRequest;
  frame.payload = http::to_framed_bytes(request);
  std::string wire = encode_frame(frame);
  // "Sent" = handed to the transport (or its pre-connect queue), matching
  // the HTTP/1.1 client's notion of the request leaving the application.
  // Copied out first: the stream map must not be touched after send().
  const auto on_sent = stream.hooks.on_sent;
  if (connected_) {
    client_.connection().send(std::move(wire));
  } else {
    queued_frames_.push_back(std::move(wire));
  }
  if (on_sent) {
    on_sent();
  }
}

void MuxClientConnection::on_data(std::string_view bytes) {
  parser_.push(bytes);
  if (parser_.failed()) {
    fail("mux frame parse failure");
    return;
  }
  while (const auto frame = parser_.next()) {
    const auto it = streams_.find(frame->stream_id);
    if (it == streams_.end()) {
      continue;  // stale frame for a cancelled stream
    }
    Stream& stream = it->second;
    if (frame->type == Frame::Type::kData) {
      if (!frame->payload.empty()) {
        fire_once(stream.hooks.on_first_byte);
      }
      // The frame's bytes go straight from the frame buffer into the
      // stream's response body.
      stream.parser.push(frame->payload);
      if (stream.parser.failed()) {
        fail("response parse failure on stream " +
             std::to_string(frame->stream_id));
        return;
      }
    } else if (frame->type == Frame::Type::kEnd) {
      stream.parser.on_close();
      if (!stream.parser.has_message()) {
        fail("stream ended without a complete response");
        return;
      }
      ResponseCallback callback = std::move(stream.callback);
      http::Response response = stream.parser.pop();
      streams_.erase(it);
      callback(std::move(response));
    }
  }
}

void MuxClientConnection::fail(const std::string& reason) {
  if (!alive_ && streams_.empty()) {
    return;
  }
  alive_ = false;
  streams_.clear();
  if (on_error_) {
    on_error_(reason);
  }
}

}  // namespace mahimahi::net::mux
