#include "service/query.hpp"

#include <algorithm>

#include "support/format.hpp"
#include "support/framed.hpp"
#include "support/str_scan.hpp"

namespace viprof::service {

namespace {

constexpr const char* kHeader = "viprof-snapshot v1";

void append_counts_and_names(std::string& out, const core::ProfileRow& row) {
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
    out += " " + std::to_string(row.counts[e]);
  out += "\t" + row.image + "\t" + row.symbol + "\n";
}

/// "<domain> c0 .. cN\t<image>\t<symbol>" (one count per event kind) → one
/// add() per event with count.
bool parse_row_into(std::string_view fields, core::Profile& profile) {
  const std::size_t tab1 = fields.find('\t');
  const std::size_t tab2 = fields.find('\t', tab1 + 1);
  if (tab1 == std::string_view::npos || tab2 == std::string_view::npos) return false;

  std::string_view head = fields.substr(0, tab1);
  std::string_view name;
  std::uint64_t counts[hw::kEventKindCount] = {};
  if (!support::scan_token(head, name)) return false;
  for (std::uint64_t& c : counts)  // fewer counts than event kinds: damage
    if (!support::scan_u64(head, c)) return false;
  const auto domain = core::domain_from(name);
  if (!domain) return false;

  core::Resolution res;
  res.image = std::string(fields.substr(tab1 + 1, tab2 - tab1 - 1));
  res.symbol = std::string(fields.substr(tab2 + 1));
  res.domain = *domain;
  bool added = false;
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e) {
    if (counts[e] == 0) continue;
    profile.add(static_cast<hw::EventKind>(e), res, counts[e]);
    added = true;
  }
  // A zero-count row cannot exist in a real profile; treat it as damage.
  return added;
}

}  // namespace

std::string ServiceSnapshot::serialize() const {
  std::string out = std::string(kHeader) + "\n";
  for (const SessionSnapshot& s : sessions) {
    out += "session " + s.id + "\n";
    for (const core::ProfileRow& row : s.profile.rows()) {
      out += "row " + std::string(core::to_string(row.domain));
      append_counts_and_names(out, row);
    }
    for (const auto& [epoch, profile] : s.epochs) {
      for (const core::ProfileRow& row : profile.rows()) {
        out += "erow " + std::to_string(epoch) + " " +
               std::string(core::to_string(row.domain));
        append_counts_and_names(out, row);
      }
    }
    out += "end\n";
  }
  support::framed::append_trailer(out);
  return out;
}

std::optional<ServiceSnapshot> ServiceSnapshot::parse(const std::string& text) {
  ServiceSnapshot snap;
  SessionSnapshot* current = nullptr;
  const auto visit = [&](std::string_view line) {
    if (support::scan_lit(line, "session ")) {
      current = &snap.sessions.emplace_back();
      current->id = std::string(line);
      return true;
    }
    if (line == "end") {
      current = nullptr;
      return true;
    }
    std::uint64_t epoch = 0;
    if (current == nullptr) return false;
    if (support::scan_lit(line, "row ")) return parse_row_into(line, current->profile);
    return support::scan_lit(line, "erow ") && support::scan_u64(line, epoch) &&
           support::scan_lit(line, " ") && parse_row_into(line, current->epochs[epoch]);
  };
  if (!support::framed::read_records(text, kHeader, visit)) return std::nullopt;
  return snap;
}

const SessionSnapshot* ServiceSnapshot::find(const std::string& id) const {
  for (const SessionSnapshot& s : sessions)
    if (s.id == id) return &s;
  return nullptr;
}

core::Profile ServiceSnapshot::merged() const {
  core::Profile out;
  for (const SessionSnapshot& s : sessions) out.merge(s.profile);
  return out;
}

core::Profile profile_since(const SessionSnapshot& s, std::uint64_t since) {
  core::Profile out;
  for (const auto& [epoch, profile] : s.epochs)
    if (epoch >= since) out.merge(profile);
  return out;
}

std::string render_sessions(const ServiceSnapshot& snap) {
  support::TextTable table({"Session", "Rows", "Time", "Dmiss"});
  for (const SessionSnapshot& s : snap.sessions) {
    table.add_row({s.id, std::to_string(s.profile.row_count()),
                   std::to_string(s.profile.total(hw::EventKind::kGlobalPowerEvents)),
                   std::to_string(s.profile.total(hw::EventKind::kBsqCacheReference))});
  }
  return table.render();
}

std::string render_diff(const ServiceSnapshot& before, const ServiceSnapshot& after,
                        const std::string& session, hw::EventKind event,
                        std::size_t top_n) {
  core::Profile a, b;
  if (session.empty()) {
    a = before.merged();
    b = after.merged();
  } else {
    if (const SessionSnapshot* s = before.find(session)) a = s->profile;
    if (const SessionSnapshot* s = after.find(session)) b = s->profile;
  }

  return core::render_diff(a, b, event, top_n);
}

}  // namespace viprof::service
