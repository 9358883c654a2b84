// Connection-agnostic HTTP/1.1 client for the loopback serve benchmark.
//
// Requests go out as plain HTTP/1.1 (no "Connection: close"), so a server
// that keeps connections alive gets them reused; a server that closes after
// each reply (answering "Connection: close", or just hanging up) gets a
// fresh connect for the next request. A request sent on a reused socket
// that the server has meanwhile closed is retried once on a new socket.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;
  double connect_us = 0;  ///< 0 when the socket was reused
  double ttfb_us = 0;     ///< request written -> first reply byte
  bool connected = false; ///< this request opened a new connection
};

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one raw request and reads one Content-Length framed reply.
  /// Returns false (with `error` set) on a refused connect, an I/O error,
  /// a timeout or a malformed reply.
  bool request(const std::string& raw, HttpReply& reply, std::string& error);

  [[nodiscard]] std::uint64_t connects() const { return connects_; }

 private:
  bool connect_socket(HttpReply& reply, std::string& error);
  /// One attempt on the current socket. `retryable` is set when the failure
  /// looks like the server closed a kept-alive socket before this request.
  bool exchange(const std::string& raw, HttpReply& reply, std::string& error,
                bool& retryable);
  void close_socket();

  std::uint16_t port_;
  int fd_ = -1;
  std::uint64_t connects_ = 0;
  std::string buf_;
};

}  // namespace perfbench
