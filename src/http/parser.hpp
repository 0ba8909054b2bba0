#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "http/message.hpp"

namespace mahimahi::http {

/// Incremental (push) HTTP/1.1 message parser core.
///
/// Bytes arrive in arbitrary fragments via push(); complete messages are
/// queued and popped by the typed subclasses. Framing follows RFC 7230
/// §3.3.3: Transfer-Encoding: chunked, else Content-Length, else (responses
/// only) read-until-close. Multiple pipelined messages in one buffer are
/// handled.
///
/// Body bytes are copied once, into the message body: bytes that arrive
/// mid-body bypass the staging buffer, and a declared Content-Length
/// reserves the body up front (capped at kMaxBodyReserve, so a hostile or
/// corrupt length cannot reserve memory for bytes that never arrive).
///
/// On malformed input the parser latches into an error state; callers
/// (proxy, origin servers) translate that into a 400 or a dropped
/// connection, mirroring what Apache does.
class MessageParser {
 public:
  virtual ~MessageParser() = default;

  MessageParser(const MessageParser&) = delete;
  MessageParser& operator=(const MessageParser&) = delete;

  /// Feed wire bytes.
  void push(std::string_view bytes);

  /// Signal connection close (completes read-until-close responses).
  void on_close();

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error_message() const { return error_; }

  /// Number of complete messages waiting to be popped.
  [[nodiscard]] std::size_t pending() const { return complete_count_; }

  /// Bytes staged but not yet parsed (body bytes never wait here).
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() - consumed_;
  }

  /// Header-section size limit; guards against unbounded buffering.
  static constexpr std::size_t kMaxHeaderBytes = 1 << 20;

  /// Largest up-front body reservation a Content-Length header can cause.
  static constexpr std::size_t kMaxBodyReserve = 1 << 20;

 protected:
  MessageParser() = default;

  // --- hooks implemented by Request/Response subclasses ---

  /// Parse the start line; return false (after calling fail()) on bad input.
  virtual bool handle_start_line(std::string_view line) = 0;

  /// Hand the subclass each parsed header field.
  virtual void handle_header(std::string name, std::string value) = 0;

  /// Body framing decision once headers are complete.
  struct Framing {
    enum class Kind { kNone, kContentLength, kChunked, kToClose } kind{Kind::kNone};
    std::uint64_t content_length{0};
  };
  virtual Framing decide_framing() = 0;

  /// The in-progress message's body, which body bytes are appended to.
  virtual std::string& body() = 0;

  /// The in-progress message is complete.
  virtual void handle_complete() = 0;

  void fail(std::string message);

  std::size_t complete_count_{0};

 private:
  enum class State {
    kStartLine,
    kHeaders,
    kBodyIdentity,
    kBodyChunkSize,
    kBodyChunkData,
    kBodyChunkCrlf,
    kBodyTrailers,
    kBodyToClose,
    kFailed,
  };

  void process();
  bool take_line(std::string_view& line);
  void begin_body();
  /// In a body state: append the bytes of `bytes` that belong to the body
  /// (advancing the state when it completes); returns how many were taken.
  std::size_t append_body(std::string_view bytes);
  void finish_message();

  [[nodiscard]] bool in_body() const {
    return state_ == State::kBodyIdentity || state_ == State::kBodyChunkData ||
           state_ == State::kBodyToClose;
  }

  State state_{State::kStartLine};
  /// Staged bytes; [0, consumed_) is parsed and dropped at the end of
  /// each push, so line parsing never memmoves the unparsed tail.
  std::string buffer_;
  std::size_t consumed_{0};
  std::size_t header_bytes_{0};
  std::uint64_t remaining_{0};  // identity body or current chunk remaining
  bool closed_{false};
  bool failed_{false};
  std::string error_;
};

/// Parses a stream of HTTP requests (server / proxy side).
class RequestParser final : public MessageParser {
 public:
  [[nodiscard]] bool has_message() const { return !complete_.empty(); }
  Request pop();

 private:
  bool handle_start_line(std::string_view line) override;
  void handle_header(std::string name, std::string value) override;
  Framing decide_framing() override;
  std::string& body() override { return current_.body; }
  void handle_complete() override;

  Request current_;
  std::deque<Request> complete_;
};

/// Parses a stream of HTTP responses (client / proxy side).
///
/// Response framing depends on the request method (HEAD responses carry no
/// body), so callers must announce each request they send with
/// notify_request(); announcements are consumed FIFO, one per response.
class ResponseParser final : public MessageParser {
 public:
  void notify_request(Method method);

  [[nodiscard]] bool has_message() const { return !complete_.empty(); }
  Response pop();

 private:
  bool handle_start_line(std::string_view line) override;
  void handle_header(std::string name, std::string value) override;
  Framing decide_framing() override;
  std::string& body() override { return current_.body; }
  void handle_complete() override;

  Response current_;
  std::deque<Response> complete_;
  std::deque<Method> request_methods_;
};

}  // namespace mahimahi::http
