#pragma once

#include <string>
#include <string_view>

#include "http/headers.hpp"
#include "http/method.hpp"
#include "http/url.hpp"

namespace mahimahi::http {

/// A complete HTTP/1.1 request, body included.
struct Request {
  Method method{Method::kGet};
  std::string target{"/"};     // as it appeared on the request line
  std::string version{"HTTP/1.1"};
  HeaderMap headers;
  std::string body;

  /// Host header (lowercased, port stripped); empty if absent.
  [[nodiscard]] std::string host() const;

  /// Best-effort URL for this request: absolute-form target if present,
  /// else scheme://Host/target.
  [[nodiscard]] Url url() const;

  /// True when the client asked to keep the connection open
  /// (HTTP/1.1 default unless "Connection: close").
  [[nodiscard]] bool keep_alive() const;

  bool operator==(const Request&) const = default;
};

/// A complete HTTP/1.1 response, body included.
struct Response {
  std::string version{"HTTP/1.1"};
  int status{200};
  std::string reason{"OK"};
  HeaderMap headers;
  std::string body;

  [[nodiscard]] bool keep_alive() const;

  bool operator==(const Response&) const = default;
};

/// Serialize to wire bytes exactly as stored (headers are not invented;
/// use `to_framed_bytes` when the message needs framing).
std::string to_bytes(const Request& request);
std::string to_bytes(const Response& response);

/// The bytes of `finalize_content_length` on a copy followed by `to_bytes`,
/// without the copy: the Content-Length framing is written on the fly into
/// one buffer reserved to the exact wire size, so every body byte is
/// copied once. This is what server handlers return (see HttpServer).
std::string to_framed_bytes(const Request& request);
std::string to_framed_bytes(const Response& response);

/// Ensure the message is self-framing. Requests: set Content-Length when a
/// body is present (bodiless requests need no framing). Responses: always
/// set Content-Length — even zero — unless chunked or the status forbids a
/// body, because an unframed response means read-until-close.
void finalize_content_length(Request& request);
void finalize_content_length(Response& response);

/// Convenience factories used throughout tests/examples.
Request make_get(std::string_view url_text, const HeaderMap& extra = {});
Response make_ok(std::string body, std::string_view content_type = "text/html");
Response make_not_found(std::string_view target);

}  // namespace mahimahi::http
