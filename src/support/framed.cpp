#include "support/framed.hpp"

namespace viprof::support::framed {

namespace {

void append_hex8(std::string& out, std::uint32_t v) {
  char buf[8];
  for (int i = 7; i >= 0; --i, v >>= 4) buf[i] = "0123456789abcdef"[v & 0xf];
  out.append(buf, sizeof buf);
}

// Exactly 8 lower-case hex digits, as append_hex8 writes them.
bool parse_hex8(std::string_view s, std::uint32_t& v) {
  if (s.size() != 8) return false;
  v = 0;
  for (const char c : s) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) return false;
    v = (v << 4) | static_cast<std::uint32_t>(hex_value(c));
  }
  return true;
}

}  // namespace

void append_frame(std::string& out, std::string_view body) {
  out.append(body);
  out += ' ';
  append_hex8(out, fnv1a(body.data(), body.size()));
  out += '\n';
}

bool verify_line(std::string_view line, Frame& frame) {
  const std::size_t sp = line.rfind(' ');
  std::uint32_t crc = 0;
  if (sp == std::string_view::npos || !parse_hex8(line.substr(sp + 1), crc)) return false;
  std::string_view body = line.substr(0, sp);
  if (fnv1a(body.data(), body.size()) != crc || !scan_u64(body, frame.seq) ||
      !scan_lit(body, " ")) {
    return false;
  }
  frame.payload = body;
  frame.bytes = line.size() + 1;
  return true;
}

void append_trailer(std::string& out) {
  const std::uint32_t crc = fnv1a(out.data(), out.size());
  out += "crc ";
  append_hex8(out, crc);
  out += '\n';
}

bool parse_trailer(std::string_view line, std::uint32_t& crc) {
  return line.substr(0, 4) == "crc " && parse_hex8(line.substr(4), crc);
}

std::optional<std::string_view> trailer_body(std::string_view text) {
  const std::size_t at = text.rfind("crc ");
  std::uint32_t crc = 0;
  if (at == std::string_view::npos || (at != 0 && text[at - 1] != '\n') ||
      !parse_trailer(text.substr(at, 12), crc) || fnv1a(text.data(), at) != crc) {
    return std::nullopt;
  }
  return text.substr(0, at);
}

}  // namespace viprof::support::framed
