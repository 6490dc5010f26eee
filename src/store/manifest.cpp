#include "store/manifest.hpp"

#include <initializer_list>
#include <utility>
#include <vector>

#include "support/framed.hpp"
#include "support/str_scan.hpp"

namespace viprof::store {

namespace {

constexpr const char* kHeader = "viprof-store-manifest v1";
constexpr const char* kFleetHeader = "viprof-fleet-manifest v1";

// The fixed lines of each manifest, in file order: a keyword, then one
// decimal field per pointer. Templated on constness so that serialize()
// and parse() share one table.
template <typename M>
auto store_lines(M& m) {
  return std::vector<std::pair<const char*, std::vector<decltype(&m.generation)>>>{
      {"gen", {&m.generation}},
      {"next-seq", {&m.next_seq}},
      {"next-segment", {&m.next_segment}},
      {"dropped", {&m.dropped_intervals, &m.dropped_rows, &m.dropped_segments}}};
}

template <typename M>
auto fleet_lines(M& m) {
  auto& l = m.ledger;
  return std::vector<std::pair<const char*, std::vector<decltype(&m.generation)>>>{
      {"gen", {&m.generation}},
      {"acked", {&l.acked_sessions, &l.acked_records}},
      {"stored", {&l.stored_records}},
      {"lost",
       {&l.lost_wire, &l.lost_queue, &l.lost_dead_records, &l.lost_dead_sessions}},
      {"failover", {&l.failover_sessions, &l.failover_records}},
      {"refused", {&l.refused_sessions}},
      {"retried", {&l.retried_sends, &l.retried_giveups, &l.circuit_opens}},
      {"rebalances", {&l.rebalances}}};
}

// "<key> <v0> <v1> ...": the values space-separated after `key`.
void put_numbers(std::string& out, const char* key,
                 std::initializer_list<std::uint64_t> values) {
  out += key;
  for (const std::uint64_t v : values) out += " " + std::to_string(v);
}

template <typename Lines>
void put_lines(std::string& out, const Lines& lines) {
  for (const auto& [key, fields] : lines) {
    out += key;
    for (const std::uint64_t* f : fields) out += " " + std::to_string(*f);
    out += '\n';
  }
}

// Reads `line` into the table entry whose keyword it starts with.
template <typename Lines>
bool get_line(std::string_view line, const Lines& lines) {
  for (const auto& [key, fields] : lines) {
    std::string_view rest = line;
    if (!support::scan_lit(rest, key) || !support::scan_lit(rest, " ")) continue;
    for (std::uint64_t* f : fields)
      if (!support::scan_u64(rest, *f)) return false;
    return true;
  }
  return false;
}

}  // namespace

std::string Manifest::serialize() const {
  std::string out = std::string(kHeader) + "\n";
  put_lines(out, store_lines(*this));
  for (const ManifestSegment& s : segments) {
    put_numbers(out, "segment", {s.id, s.sealed ? 1u : 0u, s.intervals, s.rows, s.tick_lo,
                                 s.tick_hi, s.seq_lo, s.seq_hi});
    out += "\t" + s.name + "\n";
  }
  for (const std::string& t : tombstones) out += "tombstone " + t + "\n";
  support::framed::append_trailer(out);
  return out;
}

std::optional<Manifest> Manifest::parse(const std::string& text) {
  Manifest m;
  const auto visit = [&](std::string_view line) {
    if (support::scan_lit(line, "tombstone ")) {
      m.tombstones.emplace_back(line);
      return true;
    }
    if (!support::scan_lit(line, "segment ")) return get_line(line, store_lines(m));
    const std::size_t tab = line.find('\t');
    std::string_view fields = line.substr(0, tab);
    ManifestSegment seg;
    std::uint64_t sealed = 0;
    if (tab == std::string_view::npos ||
        !support::scan_u64s(fields, {&seg.id, &sealed, &seg.intervals, &seg.rows,
                                     &seg.tick_lo, &seg.tick_hi, &seg.seq_lo,
                                     &seg.seq_hi})) {
      return false;
    }
    seg.sealed = sealed != 0;
    seg.name = std::string(line.substr(tab + 1));
    m.segments.push_back(std::move(seg));
    return true;
  };
  if (!support::framed::read_records(text, kHeader, visit)) return std::nullopt;
  return m;
}

const ManifestSegment* Manifest::find(const std::string& name) const {
  for (const ManifestSegment& s : segments)
    if (s.name == name) return &s;
  return nullptr;
}

std::string FleetManifest::serialize() const {
  std::string out = std::string(kFleetHeader) + "\n";
  put_lines(out, fleet_lines(*this));
  for (const FleetShard& s : shards) {
    put_numbers(out, "shard", {s.alive ? 1u : 0u, s.sessions, s.records});
    out += "\t" + s.name + "\t" + s.root + "\n";
  }
  support::framed::append_trailer(out);
  return out;
}

std::optional<FleetManifest> FleetManifest::parse(const std::string& text) {
  FleetManifest m;
  const auto visit = [&](std::string_view line) {
    if (!support::scan_lit(line, "shard ")) return get_line(line, fleet_lines(m));
    const std::size_t tab1 = line.find('\t');
    const std::size_t tab2 = line.find('\t', tab1 + 1);
    std::string_view fields = line.substr(0, tab1);
    FleetShard shard;
    std::uint64_t alive = 0;
    if (tab1 == std::string_view::npos || tab2 == std::string_view::npos ||
        !support::scan_u64s(fields, {&alive, &shard.sessions, &shard.records})) {
      return false;
    }
    shard.alive = alive != 0;
    shard.name = std::string(line.substr(tab1 + 1, tab2 - tab1 - 1));
    shard.root = std::string(line.substr(tab2 + 1));
    m.shards.push_back(std::move(shard));
    return true;
  };
  if (!support::framed::read_records(text, kFleetHeader, visit)) return std::nullopt;
  return m;
}

const FleetShard* FleetManifest::find(const std::string& name) const {
  for (const FleetShard& s : shards)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace viprof::store
