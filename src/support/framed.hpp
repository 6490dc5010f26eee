// The one framing codec for the crash-consistent text formats (DESIGN.md §7).
//
// Two framings, both checksummed with 32-bit FNV-1a:
//
//   Line frames  `<seq> <payload> <crc>\n`, the crc covering everything
//                before its separating space. Each line verifies on its own,
//                so damage costs exactly the damaged lines, and sequence
//                numbers expose lost and replayed lines. Sample logs, store
//                segments.
//   Trailer      a last line `crc <crc>\n` covering every byte before it.
//                Code and object maps salvage their longest parseable
//                prefix (salvage()); manifests and service snapshots are
//                all-or-nothing (read_records()).
//
// A <crc> is exactly 8 lower-case hex digits; no other spelling verifies.
// The walkers are header-only templates because the sample-log parser sits
// on the service's ingest path: no std::function or virtual call per line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/hash.hpp"
#include "support/str_scan.hpp"

namespace viprof::support::framed {

// ------------------------------------------------------------ line frames

/// Appends `body` framed as one line: body, a space, its crc, a newline.
void append_frame(std::string& out, std::string_view body);

inline std::string frame(std::string_view body) {
  std::string out;
  append_frame(out, body);
  return out;
}

struct Frame {
  std::uint64_t seq = 0;
  std::string_view payload;  // body after "<seq> "; may be empty
  std::size_t bytes = 0;     // the whole line, newline included
};

/// Verifies one newline-stripped line: a decimal seq, a space, the payload,
/// and a matching crc.
bool verify_line(std::string_view line, Frame& frame);

/// Loss accounting of one line-framed stream.
struct LineTally {
  std::uint64_t verified = 0;    // frames accepted in sequence
  std::uint64_t torn_lines = 0;  // lines that failed verification
  std::uint64_t torn_bytes = 0;  // their bytes, newlines included
  std::uint64_t gap = 0;         // sequence numbers never seen
  std::uint64_t dup = 0;         // frames at or below a seq already accepted
};

/// Sequence tracking for the line-framed readers. The formats count gaps
/// differently, and both rules are part of their loss ledgers: a sample
/// log's sequence starts at 0, so a first frame numbered N means N lost
/// records; a segment counts gaps only after its first verified line.
class SeqTracker {
 public:
  explicit SeqTracker(bool count_leading_gap) : seen_(count_leading_gap) {}

  void torn(std::size_t bytes) {
    ++tally_.torn_lines;
    tally_.torn_bytes += bytes;
  }

  /// Accepts `seq`, counting any gap before it; false (a counted
  /// duplicate, to be discarded) when `seq` is not past every accepted one.
  bool accept(std::uint64_t seq) {
    if (seen_) {
      if (seq < next_) {
        ++tally_.dup;
        return false;
      }
      tally_.gap += seq - next_;
    }
    seen_ = true;
    next_ = seq + 1;
    ++tally_.verified;
    return true;
  }

  const LineTally& tally() const { return tally_; }
  std::uint64_t next_expected() const { return next_; }

 private:
  LineTally tally_;
  std::uint64_t next_ = 0;
  bool seen_;
};

/// Hands every verified frame of `text` to `visit(const Frame&)`, which
/// decides when to call seq.accept(). Lines that fail verification, and an
/// unterminated final line (a torn write), are counted torn on `seq`; with
/// `skip_empty`, empty lines are passed over uncounted.
template <typename Visit>
void for_each_frame(std::string_view text, SeqTracker& seq, bool skip_empty,
                    Visit&& visit) {
  LineCursor lines(text);
  std::string_view line;
  while (lines.next(line)) {
    if (skip_empty && line.empty()) continue;
    Frame f;
    if (verify_line(line, f)) {
      visit(static_cast<const Frame&>(f));
    } else {
      seq.torn(line.size() + 1);
    }
  }
  if (!lines.tail().empty()) seq.torn(lines.tail().size());
}

// ------------------------------------------------------------ trailer

/// Appends the trailer line covering everything in `out` so far.
void append_trailer(std::string& out);

/// True for a newline-stripped trailer line, exactly "crc <crc>".
bool parse_trailer(std::string_view line, std::uint32_t& crc);

/// The bytes before the last "crc " line, provided its crc matches them.
/// Bytes after the trailer's digits are ignored, so a manifest with junk
/// appended after a valid trailer still reads.
std::optional<std::string_view> trailer_body(std::string_view text);

/// All-or-nothing read: the trailer verifies, the first non-empty line is
/// `header`, and `visit(line)` accepts every later non-empty line.
template <typename Visit>
bool read_records(std::string_view text, std::string_view header, Visit&& visit) {
  const std::optional<std::string_view> body = trailer_body(text);
  if (!body) return false;
  LineCursor lines(*body);
  std::string_view line;
  bool saw_header = false;
  while (lines.next(line)) {
    if (line.empty()) continue;
    if (!saw_header ? line != header : !visit(line)) return false;
    saw_header = true;
  }
  return saw_header;
}

struct Salvage {
  bool header_ok = false;         // the header line parsed
  bool marked_truncated = false;  // a `truncated` marker line was present
  /// Every line parsed and the trailer, last, matched. The caller still
  /// checks the counts its header declares.
  bool verified = false;
};

/// The salvage walker for trailer-framed maps: a header line, an optional
/// `truncated` marker, body lines, then the trailer. `header(line)` and
/// `body(line)` parse one newline-stripped line, false when malformed;
/// body lines before the first malformed one are kept. An unterminated
/// line is never parsed, the header included: a tear mid-line can leave a
/// prefix that still parses — a chopped symbol name, or a declared count
/// that lost its last digit.
template <typename Header, typename Body>
Salvage salvage(std::string_view contents, Header&& header, Body&& body) {
  Salvage s;
  LineCursor lines(contents);
  std::string_view line;
  if (!lines.next(line) || !header(line)) return s;
  s.header_ok = true;

  std::size_t covered = line.size() + 1;  // bytes before the current line
  while (lines.next(line)) {
    std::uint32_t crc = 0;
    if (parse_trailer(line, crc)) {
      s.verified = covered + line.size() + 1 == contents.size() &&
                   fnv1a(contents.data(), covered) == crc;
      return s;
    }
    if (line == "truncated") {
      s.marked_truncated = true;
    } else if (!body(line)) {
      return s;
    }
    covered += line.size() + 1;
  }
  return s;
}

}  // namespace viprof::support::framed
