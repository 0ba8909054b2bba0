#include "http/message.hpp"

#include <charconv>
#include <iterator>
#include <optional>

#include "http/status.hpp"
#include "util/strings.hpp"

namespace mahimahi::http {
namespace {

bool message_keep_alive(const HeaderMap& headers, std::string_view version) {
  const auto connection = headers.get("Connection");
  if (connection && value_has_token(*connection, "close")) {
    return false;
  }
  if (version == "HTTP/1.0") {
    return connection && value_has_token(*connection, "keep-alive");
  }
  return true;  // HTTP/1.1 default
}

bool is_chunked(const HeaderMap& headers) {
  const auto te = headers.get("Transfer-Encoding");
  return te && value_has_token(*te, "chunked");
}

/// The Content-Length value `finalize_content_length` writes, or nullopt
/// when it leaves the headers as they are. Requests without a body are
/// self-framing; responses always declare a length (even zero) unless
/// chunked or the status forbids a body, because an unframed response
/// means read-until-close.
std::optional<std::size_t> framed_length(const Request& request) {
  if (request.body.empty() || is_chunked(request.headers)) {
    return std::nullopt;
  }
  return request.body.size();
}

std::optional<std::size_t> framed_length(const Response& response) {
  if (is_chunked(response.headers) || status_has_no_body(response.status)) {
    return std::nullopt;
  }
  return response.body.size();
}

template <typename Sink, typename Integer>
void emit_decimal(const Sink& sink, Integer value) {
  char digits[24];
  const char* end =
      std::to_chars(std::begin(digits), std::end(digits), value).ptr;
  sink(std::string_view{digits, static_cast<std::size_t>(end - digits)});
}

/// Header section. A `content_length` is written the way HeaderMap::set
/// would leave it: into the first Content-Length field (keeping that
/// field's spelling) with any duplicates dropped, else appended last.
template <typename Sink>
void emit_headers(const Sink& sink, const HeaderMap& headers,
                  std::optional<std::size_t> content_length) {
  bool length_written = false;
  for (const auto& field : headers) {
    if (content_length && util::iequals(field.name, "Content-Length")) {
      if (!length_written) {
        length_written = true;
        sink(field.name);
        sink(": ");
        emit_decimal(sink, *content_length);
        sink("\r\n");
      }
      continue;
    }
    sink(field.name);
    sink(": ");
    sink(field.value);
    sink("\r\n");
  }
  if (content_length && !length_written) {
    sink("Content-Length: ");
    emit_decimal(sink, *content_length);
    sink("\r\n");
  }
  sink("\r\n");
}

/// Runs `emit` twice over the same pieces: once to size the message, once
/// to append it into a buffer reserved to exactly that size.
template <typename Emit>
std::string write_exact(const Emit& emit) {
  std::size_t size = 0;
  emit([&size](std::string_view piece) { size += piece.size(); });
  std::string out;
  out.reserve(size);
  emit([&out](std::string_view piece) { out.append(piece); });
  return out;
}

std::string serialize(const Request& request,
                      std::optional<std::size_t> content_length) {
  return write_exact([&](const auto& sink) {
    sink(method_name(request.method));
    sink(" ");
    sink(request.target);
    sink(" ");
    sink(request.version);
    sink("\r\n");
    emit_headers(sink, request.headers, content_length);
    sink(request.body);
  });
}

std::string serialize(const Response& response,
                      std::optional<std::size_t> content_length) {
  return write_exact([&](const auto& sink) {
    sink(response.version);
    sink(" ");
    emit_decimal(sink, response.status);
    sink(" ");
    sink(response.reason);
    sink("\r\n");
    emit_headers(sink, response.headers, content_length);
    sink(response.body);
  });
}

}  // namespace

std::string Request::host() const {
  const auto raw = headers.get("Host");
  if (!raw) {
    return {};
  }
  const auto [host_part, port_part] = util::split_once(*raw, ':');
  (void)port_part;
  return util::to_lower(util::trim(host_part));
}

Url Request::url() const {
  if (const auto absolute = parse_url(target); absolute && !absolute->host.empty()) {
    return *absolute;
  }
  Url url;
  url.scheme = "http";
  url.host = host();
  const auto raw_host = headers.get("Host");
  if (raw_host) {
    const auto [host_part, port_part] = util::split_once(*raw_host, ':');
    (void)host_part;
    std::uint64_t port = 0;
    if (!port_part.empty() && util::parse_u64(util::trim(port_part), port) &&
        port > 0 && port <= 65535) {
      url.port = static_cast<std::uint16_t>(port);
    }
  }
  if (const auto origin = parse_url(target)) {
    url.path = origin->path;
    url.query = origin->query;
  }
  return url;
}

bool Request::keep_alive() const { return message_keep_alive(headers, version); }

bool Response::keep_alive() const { return message_keep_alive(headers, version); }

std::string to_bytes(const Request& request) {
  return serialize(request, std::nullopt);
}

std::string to_bytes(const Response& response) {
  return serialize(response, std::nullopt);
}

std::string to_framed_bytes(const Request& request) {
  return serialize(request, framed_length(request));
}

std::string to_framed_bytes(const Response& response) {
  return serialize(response, framed_length(response));
}

void finalize_content_length(Request& request) {
  if (const auto length = framed_length(request)) {
    request.headers.set("Content-Length", std::to_string(*length));
  }
}

void finalize_content_length(Response& response) {
  if (const auto length = framed_length(response)) {
    response.headers.set("Content-Length", std::to_string(*length));
  }
}

Request make_get(std::string_view url_text, const HeaderMap& extra) {
  Request request;
  request.method = Method::kGet;
  const auto url = parse_url(url_text);
  if (url && !url->host.empty()) {
    request.target = url->request_target();
    std::string host_value = url->host;
    if (url->port != 0) {
      host_value += ':';
      host_value += std::to_string(url->port);
    }
    request.headers.add("Host", host_value);
  } else {
    request.target = std::string{url_text};
  }
  for (const auto& field : extra) {
    request.headers.add(field.name, field.value);
  }
  return request;
}

Response make_ok(std::string body, std::string_view content_type) {
  Response response;
  response.status = 200;
  response.reason = std::string{reason_phrase(200)};
  response.headers.add("Content-Type", std::string{content_type});
  response.body = std::move(body);
  finalize_content_length(response);
  return response;
}

Response make_not_found(std::string_view target) {
  Response response;
  response.status = 404;
  response.reason = std::string{reason_phrase(404)};
  response.headers.add("Content-Type", "text/plain");
  response.body = "no recorded response for ";
  response.body += target;
  finalize_content_length(response);
  return response;
}

}  // namespace mahimahi::http
