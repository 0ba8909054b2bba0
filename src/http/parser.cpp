#include "http/parser.hpp"

#include <algorithm>

#include "http/status.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace mahimahi::http {

void MessageParser::push(std::string_view bytes) {
  if (failed_ || closed_) {
    return;
  }
  // process() drains staged bytes into the body, so nothing is staged in
  // a body state: body bytes go straight into the message body, with no
  // staging copy and no erase.
  while (!bytes.empty() && in_body()) {
    bytes.remove_prefix(append_body(bytes));
  }
  if (bytes.empty()) {
    return;
  }
  buffer_.append(bytes);
  process();
  // Drop the parsed prefix once per push.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
  } else {
    buffer_.erase(0, consumed_);
  }
  consumed_ = 0;
}

void MessageParser::on_close() {
  if (failed_ || closed_) {
    return;
  }
  closed_ = true;
  switch (state_) {
    case State::kBodyToClose:
      finish_message();
      break;
    case State::kStartLine:
      if (buffered_bytes() != 0) {
        fail("connection closed mid start-line");
      }
      break;
    case State::kFailed:
      break;
    default:
      fail("connection closed mid message");
      break;
  }
}

void MessageParser::fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  state_ = State::kFailed;
  buffer_.clear();
  consumed_ = 0;
}

bool MessageParser::take_line(std::string_view& line) {
  const std::string_view pending = std::string_view{buffer_}.substr(consumed_);
  const std::size_t lf = pending.find('\n');
  if (lf == std::string_view::npos) {
    if (pending.size() > kMaxHeaderBytes) {
      fail("header line exceeds limit");
    }
    return false;
  }
  // Tolerate bare LF line endings the way real servers do.
  const std::size_t line_end =
      (lf > 0 && pending[lf - 1] == '\r') ? lf - 1 : lf;
  line = pending.substr(0, line_end);
  consumed_ += lf + 1;
  return true;
}

void MessageParser::begin_body() {
  const Framing framing = decide_framing();
  if (failed_) {
    return;
  }
  switch (framing.kind) {
    case Framing::Kind::kNone:
      finish_message();
      break;
    case Framing::Kind::kContentLength:
      remaining_ = framing.content_length;
      if (remaining_ == 0) {
        finish_message();
      } else {
        body().reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining_, kMaxBodyReserve)));
        state_ = State::kBodyIdentity;
      }
      break;
    case Framing::Kind::kChunked:
      state_ = State::kBodyChunkSize;
      break;
    case Framing::Kind::kToClose:
      state_ = State::kBodyToClose;
      break;
  }
}

std::size_t MessageParser::append_body(std::string_view bytes) {
  if (state_ == State::kBodyToClose) {
    body().append(bytes);
    return bytes.size();
  }
  const std::size_t take = static_cast<std::size_t>(
      std::min<std::uint64_t>(remaining_, bytes.size()));
  body().append(bytes.substr(0, take));
  remaining_ -= take;
  if (remaining_ == 0) {
    if (state_ == State::kBodyIdentity) {
      finish_message();
    } else {
      state_ = State::kBodyChunkCrlf;
    }
  }
  return take;
}

void MessageParser::finish_message() {
  handle_complete();
  ++complete_count_;
  state_ = State::kStartLine;
  header_bytes_ = 0;
  remaining_ = 0;
}

void MessageParser::process() {
  // Loop until no further progress is possible on the buffered bytes.
  while (!failed_) {
    switch (state_) {
      case State::kStartLine: {
        std::string_view line;
        if (!take_line(line)) {
          return;
        }
        if (line.empty()) {
          continue;  // tolerate leading blank lines (RFC 7230 §3.5)
        }
        header_bytes_ = line.size();
        if (!handle_start_line(line)) {
          return;  // subclass called fail()
        }
        state_ = State::kHeaders;
        break;
      }

      case State::kHeaders: {
        std::string_view line;
        if (!take_line(line)) {
          return;
        }
        header_bytes_ += line.size() + 2;
        if (header_bytes_ > kMaxHeaderBytes) {
          fail("header section exceeds limit");
          return;
        }
        if (line.empty()) {
          begin_body();
          continue;
        }
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
          fail("malformed header field: " + std::string{line});
          return;
        }
        std::string name{line.substr(0, colon)};
        if (name.back() == ' ' || name.back() == '\t') {
          fail("whitespace before header colon: " + std::string{line});
          return;
        }
        std::string value{util::trim(line.substr(colon + 1))};
        handle_header(std::move(name), std::move(value));
        break;
      }

      case State::kBodyIdentity:
      case State::kBodyChunkData:
      case State::kBodyToClose: {
        if (consumed_ == buffer_.size()) {
          return;
        }
        consumed_ += append_body(std::string_view{buffer_}.substr(consumed_));
        break;
      }

      case State::kBodyChunkSize: {
        std::string_view line;
        if (!take_line(line)) {
          return;
        }
        // Strip chunk extensions (";ext=val").
        const auto [size_text, extensions] =
            util::split_once(util::trim(line), ';');
        (void)extensions;
        std::uint64_t size = 0;
        if (!util::parse_hex_u64(util::trim(size_text), size)) {
          fail("bad chunk size: " + std::string{line});
          return;
        }
        if (size == 0) {
          state_ = State::kBodyTrailers;
        } else {
          remaining_ = size;
          state_ = State::kBodyChunkData;
        }
        break;
      }

      case State::kBodyChunkCrlf: {
        std::string_view line;
        if (!take_line(line)) {
          return;
        }
        if (!line.empty()) {
          fail("missing CRLF after chunk data");
          return;
        }
        state_ = State::kBodyChunkSize;
        break;
      }

      case State::kBodyTrailers: {
        std::string_view line;
        if (!take_line(line)) {
          return;
        }
        if (line.empty()) {
          finish_message();
          continue;
        }
        // Trailer fields are parsed and appended as ordinary headers.
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
          fail("malformed trailer field: " + std::string{line});
          return;
        }
        handle_header(std::string{line.substr(0, colon)},
                      std::string{util::trim(line.substr(colon + 1))});
        break;
      }

      case State::kFailed:
        return;
    }
  }
}

// --- RequestParser -------------------------------------------------------

Request RequestParser::pop() {
  MAHI_ASSERT_MSG(!complete_.empty(), "pop() with no complete request");
  Request request = std::move(complete_.front());
  complete_.pop_front();
  --complete_count_;
  return request;
}

bool RequestParser::handle_start_line(std::string_view line) {
  const auto fields = util::split(line, ' ');
  if (fields.size() != 3) {
    fail("malformed request line: " + std::string{line});
    return false;
  }
  const auto method = parse_method(fields[0]);
  if (!method) {
    fail("unknown method: " + std::string{fields[0]});
    return false;
  }
  if (fields[1].empty()) {
    fail("empty request target");
    return false;
  }
  if (!util::starts_with(fields[2], "HTTP/")) {
    fail("bad HTTP version: " + std::string{fields[2]});
    return false;
  }
  current_ = Request{};
  current_.method = *method;
  current_.target = std::string{fields[1]};
  current_.version = std::string{fields[2]};
  return true;
}

void RequestParser::handle_header(std::string name, std::string value) {
  current_.headers.add(std::move(name), std::move(value));
}

MessageParser::Framing RequestParser::decide_framing() {
  Framing framing;
  const auto te = current_.headers.get("Transfer-Encoding");
  if (te && value_has_token(*te, "chunked")) {
    framing.kind = Framing::Kind::kChunked;
    return framing;
  }
  if (const auto cl = current_.headers.get("Content-Length")) {
    std::uint64_t length = 0;
    if (!util::parse_u64(util::trim(*cl), length)) {
      fail("bad Content-Length: " + std::string{*cl});
      return framing;
    }
    framing.kind = Framing::Kind::kContentLength;
    framing.content_length = length;
    return framing;
  }
  framing.kind = Framing::Kind::kNone;  // requests never read-to-close
  return framing;
}

void RequestParser::handle_complete() {
  complete_.push_back(std::move(current_));
  current_ = Request{};
}

// --- ResponseParser ------------------------------------------------------

void ResponseParser::notify_request(Method method) {
  request_methods_.push_back(method);
}

Response ResponseParser::pop() {
  MAHI_ASSERT_MSG(!complete_.empty(), "pop() with no complete response");
  Response response = std::move(complete_.front());
  complete_.pop_front();
  --complete_count_;
  return response;
}

bool ResponseParser::handle_start_line(std::string_view line) {
  // status-line = HTTP-version SP status-code SP [reason-phrase]
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || !util::starts_with(line, "HTTP/")) {
    fail("malformed status line: " + std::string{line});
    return false;
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string_view code_text =
      sp2 == std::string_view::npos ? line.substr(sp1 + 1)
                                    : line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::uint64_t code = 0;
  if (!util::parse_u64(code_text, code) || code < 100 || code > 599) {
    fail("bad status code: " + std::string{line});
    return false;
  }
  current_ = Response{};
  current_.version = std::string{line.substr(0, sp1)};
  current_.status = static_cast<int>(code);
  current_.reason =
      sp2 == std::string_view::npos ? std::string{} : std::string{line.substr(sp2 + 1)};
  return true;
}

void ResponseParser::handle_header(std::string name, std::string value) {
  current_.headers.add(std::move(name), std::move(value));
}

MessageParser::Framing ResponseParser::decide_framing() {
  Framing framing;
  Method request_method = Method::kGet;
  if (!request_methods_.empty()) {
    request_method = request_methods_.front();
    // 1xx responses are interim: the real response for this request is
    // still coming, so only consume the announcement on a final status.
    if (!is_informational(current_.status)) {
      request_methods_.pop_front();
    }
  }
  if (response_has_no_body(request_method) || status_has_no_body(current_.status)) {
    framing.kind = Framing::Kind::kNone;
    return framing;
  }
  const auto te = current_.headers.get("Transfer-Encoding");
  if (te && value_has_token(*te, "chunked")) {
    framing.kind = Framing::Kind::kChunked;
    return framing;
  }
  if (const auto cl = current_.headers.get("Content-Length")) {
    std::uint64_t length = 0;
    if (!util::parse_u64(util::trim(*cl), length)) {
      fail("bad Content-Length: " + std::string{*cl});
      return framing;
    }
    framing.kind = Framing::Kind::kContentLength;
    framing.content_length = length;
    return framing;
  }
  framing.kind = Framing::Kind::kToClose;
  return framing;
}

void ResponseParser::handle_complete() {
  complete_.push_back(std::move(current_));
  current_ = Response{};
}

}  // namespace mahimahi::http
