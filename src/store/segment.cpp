#include "store/segment.hpp"

#include "support/framed.hpp"
#include "support/str_scan.hpp"

namespace viprof::store {

SegmentWriter::SegmentWriter(std::uint64_t segment_id) : segment_id_(segment_id) {}

using support::framed::frame;

std::string SegmentWriter::header() {
  return frame(std::to_string(next_seq_++) + " H viprof-segment v1 " +
               std::to_string(segment_id_));
}

std::uint64_t SegmentWriter::intern(const std::string& s, std::string& out) {
  const auto [it, inserted] = dict_.try_emplace(s, next_dict_id_);
  if (inserted) {
    ++next_dict_id_;
    out += frame(std::to_string(next_seq_++) + " D " + std::to_string(it->second) +
                 "\t" + s);
  }
  return it->second;
}

std::string SegmentWriter::encode_interval(const IntervalProfile& iv) {
  std::string out;
  // Dictionary entries must precede the rows that reference them, so a
  // truncated file never leaves a committed row pointing at nothing.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;
  ids.reserve(iv.profile.row_count());
  for (const core::ProfileRow& row : iv.profile.rows())
    ids.emplace_back(intern(row.image, out), intern(row.symbol, out));

  out += frame(std::to_string(next_seq_++) + " I " + std::to_string(iv.tick_lo) +
               " " + std::to_string(iv.tick_hi) + " " + std::to_string(iv.epoch_lo) +
               " " + std::to_string(iv.epoch_hi) + " " + std::to_string(iv.pid) +
               " " + std::to_string(iv.first_seq) + " " +
               std::to_string(iv.profile.row_count()) + "\t" + iv.session);

  std::size_t i = 0;
  for (const core::ProfileRow& row : iv.profile.rows()) {
    std::string body = std::to_string(next_seq_++) + " R " +
                       core::to_string(row.domain);
    for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
      body += " " + std::to_string(row.counts[e]);
    body += " " + std::to_string(ids[i].first) + " " + std::to_string(ids[i].second);
    out += frame(body);
    ++i;
  }
  return out;
}

std::string SegmentWriter::encode_seal(std::uint64_t interval_count) {
  return frame(std::to_string(next_seq_++) + " S " + std::to_string(interval_count));
}

namespace {

/// Decode state for the interval currently being assembled.
struct PendingInterval {
  bool open = false;
  bool broken = false;       // unresolvable dictionary id
  bool orphan = false;       // rows with no surviving interval record
  std::uint64_t declared_rows = 0;
  std::uint64_t rows_seen = 0;
  IntervalProfile iv;
};

void finalize(PendingInterval& p, SegmentSalvage& out) {
  if (!p.open) return;
  if (p.orphan) {
    // The interval record itself was lost; its observed rows are all we can
    // count (the segment- or manifest-level totals give the exact figure).
    ++out.intervals_dropped;
    out.rows_dropped += p.rows_seen;
  } else if (!p.broken && p.rows_seen == p.declared_rows) {
    ++out.intervals_salvaged;
    out.rows_salvaged += p.declared_rows;
    out.intervals.push_back(std::move(p.iv));
  } else {
    ++out.intervals_dropped;
    out.rows_dropped += p.declared_rows;
  }
  p = PendingInterval{};
}

using Dictionary = std::unordered_map<std::uint64_t, std::string>;

// Reads one "<domain> <count per event kind> <img_id> <sym_id>" row into
// the pending interval; false when malformed. A well-formed row counts as
// seen even when its interval is lost or it names an undefined id.
bool add_row(std::string_view rec, const Dictionary& dict, PendingInterval& pending) {
  std::string_view name;
  std::uint64_t counts[hw::kEventKindCount] = {};
  std::uint64_t img = 0, sym = 0;
  if (!support::scan_token(rec, name)) return false;
  for (std::uint64_t& c : counts)
    if (!support::scan_u64(rec, c)) return false;
  if (!support::scan_u64s(rec, {&img, &sym})) return false;
  ++pending.rows_seen;
  if (pending.orphan || pending.broken) return true;
  const auto domain = core::domain_from(name);
  const auto img_it = dict.find(img);
  const auto sym_it = dict.find(sym);
  if (!domain || img_it == dict.end() || sym_it == dict.end()) {
    pending.broken = true;
    return true;
  }
  core::Resolution res;
  res.image = img_it->second;
  res.symbol = sym_it->second;
  res.domain = *domain;
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e) {
    if (counts[e] != 0)
      pending.iv.profile.add(static_cast<hw::EventKind>(e), res, counts[e]);
  }
  return true;
}

// Applies one sequenced record (the payload after its seq) to the decode
// state; `after_gap` says lines were lost right before it. False when the
// payload is malformed: the line is then counted as discarded, though its
// seq stays consumed.
bool apply_record(std::string_view rec, bool after_gap, Dictionary& dict,
                  PendingInterval& pending, SegmentSalvage& out) {
  if (rec.empty()) return false;
  const char type = rec.front();
  rec.remove_prefix(1);
  if (!rec.empty() && rec.front() == ' ') rec.remove_prefix(1);

  std::uint64_t id = 0;
  switch (type) {
    case 'H':
      if (!support::scan_lit(rec, "viprof-segment v1") || !support::scan_u64(rec, id))
        return false;
      out.header_ok = true;
      out.segment_id = id;
      return true;
    case 'D':
      if (!support::scan_u64(rec, id) || !support::scan_lit(rec, "\t")) return false;
      dict[id] = std::string(rec);
      return true;
    case 'I': {
      finalize(pending, out);
      const std::size_t tab = rec.find('\t');
      std::string_view fields = rec.substr(0, tab);
      IntervalProfile& iv = pending.iv;
      if (tab == std::string_view::npos ||
          !support::scan_u64s(fields, {&iv.tick_lo, &iv.tick_hi, &iv.epoch_lo,
                                       &iv.epoch_hi, &iv.pid, &iv.first_seq,
                                       &pending.declared_rows})) {
        return false;
      }
      pending.open = true;
      iv.session = std::string(rec.substr(tab + 1));
      return true;
    }
    case 'R': {
      // Lost lines before a row, with the pending interval already holding
      // all its declared rows: they held the next interval's record. The
      // complete interval is committed; the row opens an orphan below.
      if (after_gap && pending.open && !pending.orphan && !pending.broken &&
          pending.rows_seen == pending.declared_rows) {
        finalize(pending, out);
      }
      if (!pending.open) {
        // Interval record lost but its rows survived: orphans, counted.
        pending.open = true;
        pending.orphan = true;
      }
      // A row right after lost lines cannot be placed: the lost lines may
      // have held its own interval record, so it may belong to a later
      // interval than the pending one.
      if (after_gap) pending.broken = true;
      return add_row(rec, dict, pending);
    }
    case 'S':
      finalize(pending, out);
      if (!support::scan_u64(rec, id)) return false;
      out.sealed = true;
      out.seal_declared = id;
      return true;
    default:
      return false;
  }
}

}  // namespace

SegmentSalvage read_segment(const std::string& contents) {
  SegmentSalvage out;
  std::unordered_map<std::uint64_t, std::string> dict;
  PendingInterval pending;
  support::framed::SeqTracker seq(/*count_leading_gap=*/false);
  std::uint64_t malformed = 0;  // verified and sequenced, but unparseable

  support::framed::for_each_frame(
      contents, seq, /*skip_empty=*/true, [&](const support::framed::Frame& f) {
        const std::uint64_t gap_before = seq.tally().gap;
        if (!seq.accept(f.seq)) return;
        const bool after_gap = seq.tally().gap != gap_before;
        if (!apply_record(f.payload, after_gap, dict, pending, out)) ++malformed;
      });
  finalize(pending, out);

  const support::framed::LineTally& t = seq.tally();
  out.lines_valid = t.verified - malformed;
  out.lines_discarded = t.torn_lines + malformed;
  out.duplicate_lines = t.dup;
  out.gap_lines = t.gap;
  return out;
}


}  // namespace viprof::store
