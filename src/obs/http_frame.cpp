#include "obs/http_frame.hpp"

namespace eardec::obs {

namespace {

constexpr std::string_view kBadRequest = "bad request\n";
constexpr std::string_view kBadLength = "body does not match Content-Length\n";

/// Case-insensitive equality against a lower-case ASCII literal.
bool iequals(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i] >= 'A' && s[i] <= 'Z' ? static_cast<char>(s[i] + 32) : s[i];
    if (c != lower[i]) return false;
  }
  return true;
}

std::string_view trim(std::string_view v) {
  while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) v.remove_prefix(1);
  while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) v.remove_suffix(1);
  return v;
}

/// Leading decimal digits of `v`, saturated just past kMaxBodyBytes; 0 when
/// there are none (a malformed length reads as no body).
std::size_t parse_length(std::string_view v) {
  std::size_t n = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') break;
    n = n * 10 + static_cast<std::size_t>(c - '0');
    if (n > kMaxBodyBytes) return kMaxBodyBytes + 1;
  }
  return n;
}

/// Whether the comma-separated Connection value lists `token`.
bool lists_token(std::string_view value, std::string_view token) {
  while (!value.empty()) {
    const std::size_t comma = value.find(',');
    if (iequals(trim(value.substr(0, comma)), token)) return true;
    if (comma == std::string_view::npos) break;
    value.remove_prefix(comma + 1);
  }
  return false;
}

HttpFrame reject(int status, std::string_view message, std::size_t discard) {
  HttpFrame f;
  f.kind = HttpFrame::Kind::kReject;
  f.status = status;
  f.message = message;
  f.discard = discard;
  return f;
}

}  // namespace

HttpFrame frame_request(std::string_view buf, bool at_end) {
  if (buf.empty()) return {};
  const std::size_t header_end =
      buf.substr(0, kMaxHeaderBytes).find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    // Only a header block over the cap leaves input unread; otherwise the
    // client hung up or stalled inside it.
    if (buf.size() >= kMaxHeaderBytes) {
      return reject(400, kBadRequest, kMaxDiscardBytes);
    }
    return at_end ? reject(400, kBadRequest, 0) : HttpFrame{};
  }

  const std::size_t eol = buf.find("\r\n");
  const std::size_t sp1 = buf.find(' ');
  if (sp1 == std::string_view::npos || sp1 > eol) {
    return reject(400, kBadRequest, kMaxDiscardBytes);
  }
  std::size_t sp2 = buf.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 > eol) sp2 = eol;
  const std::string_view target = buf.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version =
      sp2 < eol ? buf.substr(sp2 + 1, eol - sp2 - 1) : std::string_view{};

  std::size_t length = 0;
  bool has_length = false;
  bool says_close = false;
  bool says_keep_alive = false;
  for (std::size_t pos = eol + 2; pos < header_end + 2;) {
    const std::size_t end = buf.find("\r\n", pos);
    const std::string_view line = buf.substr(pos, end - pos);
    pos = end + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = trim(line.substr(colon + 1));
    if (!has_length && iequals(name, "content-length")) {
      has_length = true;
      length = parse_length(value);
    } else if (iequals(name, "connection")) {
      says_close = says_close || lists_token(value, "close");
      says_keep_alive = says_keep_alive || lists_token(value, "keep-alive");
    }
  }
  const bool keep_alive = version == "HTTP/1.1"   ? !says_close
                          : version == "HTTP/1.0" ? says_keep_alive && !says_close
                                                  : false;

  // Refused from the declared length alone, before any body byte is read.
  if (length > kMaxBodyBytes) {
    return reject(413, "body too large\n", kMaxDiscardBytes);
  }
  // Strict framing: a body shorter than Content-Length when the input ends,
  // or — on a request that closes its connection — followed by more bytes
  // than declared, is a malformed request, not a payload to truncate.
  const std::size_t total = header_end + 4 + length;
  if (buf.size() < total) {
    return at_end ? reject(400, kBadLength, 0) : HttpFrame{};
  }
  if (has_length && !keep_alive && buf.size() > total) {
    return reject(400, kBadLength, kMaxDiscardBytes);
  }

  HttpFrame f;
  f.kind = HttpFrame::Kind::kRequest;
  f.consumed = total;
  f.keep_alive = keep_alive;
  f.request.method = std::string(buf.substr(0, sp1));
  const std::size_t q = target.find('?');
  f.request.path = std::string(target.substr(0, q));
  if (q != std::string_view::npos) f.request.query = std::string(target.substr(q + 1));
  f.request.body = std::string(buf.substr(header_end + 4, length));
  return f;
}

}  // namespace eardec::obs
