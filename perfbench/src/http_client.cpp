#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <string_view>

#include "spans.hpp"

namespace perfbench {
namespace {

/// Records [t0, t1) as span `name` when tracing; returns t1.
std::uint64_t mark(const char* name, std::uint64_t t0) {
  const std::uint64_t t1 = now_ns();
  if (SpanLog::instance().enabled()) SpanLog::instance().record(name, t0, t1 - t0);
  return t1;
}

bool iequals_prefix(std::string_view line, std::string_view key) {
  if (line.size() < key.size()) return false;
  for (std::size_t i = 0; i < key.size(); ++i) {
    const char a = line[i] >= 'A' && line[i] <= 'Z' ? static_cast<char>(line[i] + 32) : line[i];
    if (a != key[i]) return false;
  }
  return true;
}

std::string_view trim(std::string_view v) {
  while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) v.remove_prefix(1);
  while (!v.empty() && (v.back() == ' ' || v.back() == '\r')) v.remove_suffix(1);
  return v;
}

struct Head {
  int status = 0;
  std::optional<std::size_t> content_length;
  bool close = false;
};

std::optional<Head> parse_head(std::string_view head) {
  Head h;
  const std::size_t eol = head.find("\r\n");
  const std::string_view status_line = head.substr(0, eol);
  if (!status_line.starts_with("HTTP/1.") || status_line.size() < 12) return std::nullopt;
  const bool http10 = status_line[7] == '0';
  h.status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
  bool keep_alive = false;
  std::size_t pos = eol == std::string_view::npos ? head.size() : eol + 2;
  while (pos < head.size()) {
    std::size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(pos, end - pos);
    if (iequals_prefix(line, "content-length:")) {
      h.content_length = std::strtoull(
          std::string(trim(line.substr(15))).c_str(), nullptr, 10);
    } else if (iequals_prefix(line, "connection:")) {
      const std::string_view v = trim(line.substr(11));
      if (iequals_prefix(v, "close")) h.close = true;
      if (iequals_prefix(v, "keep-alive")) keep_alive = true;
    }
    pos = end + 2;
  }
  if (http10 && !keep_alive) h.close = true;
  return h;
}

}  // namespace

HttpClient::HttpClient(std::uint16_t port) : port_(port) {}

HttpClient::~HttpClient() { close_socket(); }

void HttpClient::close_socket() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::connect_socket(HttpReply& reply, std::string& error) {
  const std::uint64_t t0 = now_ns();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    close_socket();
    return false;
  }
  ++connects_;
  reply.connected = true;
  reply.connect_us = static_cast<double>(mark("http.connect", t0) - t0) / 1e3;
  return true;
}

bool HttpClient::exchange(const std::string& raw, HttpReply& reply,
                          std::string& error, bool& retryable) {
  retryable = false;
  const bool reused = !reply.connected;
  const std::uint64_t t_start = now_ns();
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd_, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      error = std::string("send: ") + std::strerror(errno);
      retryable = reused;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  const std::uint64_t t_sent = mark("http.send", t_start);
  std::uint64_t t_first = 0;
  buf_.clear();
  char chunk[16384];
  std::size_t head_end = std::string::npos;
  std::optional<Head> head;
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      error = std::string("recv: ") + std::strerror(errno);
      retryable = reused && buf_.empty() && errno == ECONNRESET;
      return false;
    }
    if (buf_.empty() && n > 0) {
      t_first = mark("http.wait_first_byte", t_sent);
      reply.ttfb_us = static_cast<double>(t_first - t_sent) / 1e3;
    }
    if (n == 0) {
      // Peer closed. Before any byte on a reused socket: it was an idle
      // keep-alive connection the server dropped. Without Content-Length
      // the close frames the body.
      if (buf_.empty()) {
        error = "connection closed before reply";
        retryable = reused;
        return false;
      }
      if (head && !head->content_length) break;
      error = "connection closed mid-reply";
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
    if (!head) {
      head_end = buf_.find("\r\n\r\n");
      if (head_end == std::string::npos) continue;
      head = parse_head(std::string_view(buf_).substr(0, head_end));
      if (!head) {
        error = "malformed status line";
        return false;
      }
    }
    if (head->content_length &&
        buf_.size() >= head_end + 4 + *head->content_length) {
      break;
    }
  }
  mark("http.read_reply", t_first);
  reply.status = head->status;
  const std::size_t body_len =
      head->content_length ? *head->content_length : buf_.size() - head_end - 4;
  reply.body.assign(buf_, head_end + 4, body_len);
  if (head->close || !head->content_length) close_socket();
  return true;
}

bool HttpClient::request(const std::string& raw, HttpReply& reply,
                         std::string& error) {
  reply = HttpReply{};
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !connect_socket(reply, error)) return false;
    bool retryable = false;
    if (exchange(raw, reply, error, retryable)) return true;
    close_socket();
    if (!retryable) return false;
    reply = HttpReply{};
  }
  return false;
}

}  // namespace perfbench
