// HTTP/1.x request framing over a byte buffer — the socket-free half of the
// stats server (stats_server.hpp). The server appends whatever a connection
// has received and calls frame_request() until it asks for more input; every
// framing limit and every reject decision lives here, so it can be tested
// (and fuzzed) without a socket, split at any byte offset.
//
// Limits:
//   * a header block (request line + headers + blank line) over
//     kMaxHeaderBytes                                        -> 400;
//   * a declared Content-Length over kMaxBodyBytes           -> 413;
//   * input that ends (EOF or deadline) inside a request     -> 400;
//   * bytes past the declared body of a request that closes
//     its connection                                         -> 400.
// On a kept-alive connection the bytes after one request are the next one.
//
// The outcome does not depend on how the input is split, with one exception:
// a request that closes its connection and is followed by bytes past its
// declared body is a 400 when those bytes are already buffered, but is
// framed as a request when the input is cut right at the end of its body,
// before they exist. The server answers it and then drains what follows,
// as after a reject, so the late bytes cannot reset the connection.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace eardec::obs {

/// A parsed request handed to the pluggable route handler.
struct HttpRequest {
  std::string method;  ///< request-line method; route handlers see HEAD as "GET"
  std::string path;    ///< request path, query string stripped
  std::string query;   ///< raw query string without the '?', may be empty
  std::string body;    ///< Content-Length framed body (<= kMaxBodyBytes)
};

inline constexpr std::size_t kMaxHeaderBytes = 8192;
inline constexpr std::size_t kMaxBodyBytes = std::size_t{1} << 20;
/// The most input a reject reads and drops after its reply, so that closing
/// the socket does not reset the connection under that reply.
inline constexpr std::size_t kMaxDiscardBytes = kMaxBodyBytes + kMaxHeaderBytes;

struct HttpFrame {
  enum class Kind { kNeedMore, kRequest, kReject };
  Kind kind = Kind::kNeedMore;

  // kRequest
  HttpRequest request;
  std::size_t consumed = 0;  ///< bytes of the buffer the request took
  /// HTTP/1.1 without "Connection: close", or HTTP/1.0 with "keep-alive".
  bool keep_alive = false;

  // kReject: answer `status` with `message`, then close the connection
  // after reading and dropping at most `discard` more bytes.
  int status = 0;
  std::string_view message;
  std::size_t discard = 0;
};

/// Frames the first request in `buf`. `at_end` says no more input will come
/// (the peer closed, or its deadline passed): a partial request is then a
/// 400 instead of kNeedMore. An empty buffer is always kNeedMore.
[[nodiscard]] HttpFrame frame_request(std::string_view buf, bool at_end);

}  // namespace eardec::obs
