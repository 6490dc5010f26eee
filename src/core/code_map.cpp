#include "core/code_map.hpp"

#include <algorithm>
#include <cstdio>

#include "support/check.hpp"
#include "support/format.hpp"
#include "support/framed.hpp"
#include "support/str_scan.hpp"

namespace viprof::core {

namespace {

// Header "epoch N entries M" with nothing after M; fills `r` only when the
// whole line parses.
bool parse_header(std::string_view line, CodeMapFile::Recovery& r) {
  std::uint64_t epoch = 0, expected = 0;
  if (!support::scan_keyed_u64(line, "epoch", epoch) ||
      !support::scan_keyed_u64(line, "entries", expected) || !support::at_end(line)) {
    return false;
  }
  r.file.epoch = epoch;
  r.entries_expected = expected;
  return true;
}

// Appends one "addr size symbol" entry line; false on any malformation
// (including a symbol longer than the 511-char on-disk limit, or trailing
// junk after the symbol).
bool parse_entry(std::string_view line, std::vector<CodeMapEntry>& entries) {
  std::uint64_t addr = 0, size = 0;
  std::string_view symbol;
  if (!support::scan_hex64(line, addr) || !support::scan_u64(line, size) ||
      !support::scan_token(line, symbol) || symbol.size() > 511 ||
      !support::at_end(line)) {
    return false;
  }
  entries.push_back({addr, size, std::string(symbol)});
  return true;
}

}  // namespace

std::string CodeMapFile::serialize() const {
  std::string out = "epoch " + std::to_string(epoch) + " entries " +
                    std::to_string(entries.size()) + "\n";
  if (truncated) out += "truncated\n";
  for (const CodeMapEntry& e : entries) {
    out += support::hex(e.address);
    out += ' ';
    out += std::to_string(e.size);
    out += ' ';
    out += e.symbol;
    out += '\n';
  }
  support::framed::append_trailer(out);
  return out;
}

std::optional<CodeMapFile> CodeMapFile::parse(const std::string& contents) {
  // A `truncated` marker written by fsck is fine: the rewritten file
  // carries its own header count and crc, so it verifies as intact.
  Recovery r = salvage(contents, 0);
  if (!r.intact) return std::nullopt;
  return std::move(r.file);
}

CodeMapFile::Recovery CodeMapFile::salvage(const std::string& contents,
                                           std::uint64_t epoch_hint) {
  Recovery r;
  r.file.epoch = epoch_hint;
  const support::framed::Salvage s = support::framed::salvage(
      contents, [&](std::string_view line) { return parse_header(line, r); },
      [&](std::string_view line) { return parse_entry(line, r.file.entries); });
  r.header_ok = s.header_ok;
  r.intact = s.verified && r.file.entries.size() == r.entries_expected;
  r.file.truncated = s.marked_truncated || !r.intact;
  return r;
}

std::string CodeMapFile::path_for(const std::string& dir, hw::Pid pid,
                                  std::uint64_t epoch) {
  char buf[64];
  // Zero-padded epoch keeps VFS listing in epoch order.
  std::snprintf(buf, sizeof buf, "/%u/map.%08llu", pid,
                static_cast<unsigned long long>(epoch));
  return dir + buf;
}

std::optional<std::uint64_t> CodeMapFile::epoch_from_path(const std::string& path) {
  const auto dot = path.rfind("map.");
  if (dot == std::string::npos) return std::nullopt;
  const std::string digits = path.substr(dot + 4);
  if (digits.empty()) return std::nullopt;
  unsigned long long epoch = 0;
  char extra = 0;
  if (std::sscanf(digits.c_str(), "%llu%c", &epoch, &extra) != 1) return std::nullopt;
  return epoch;
}

namespace {

bool by_address(const CodeMapEntry& a, const CodeMapEntry& b) {
  return a.address < b.address;
}

// Total order for merged colliding maps: the merge must not depend on
// which of the colliding files arrived first.
bool by_content(const CodeMapEntry& a, const CodeMapEntry& b) {
  if (a.address != b.address) return a.address < b.address;
  if (a.size != b.size) return a.size < b.size;
  return a.symbol < b.symbol;
}

// First map in an epoch-ascending range with epoch > `epoch`.
template <typename It>
It first_after(It begin, It end, std::uint64_t epoch) {
  return std::upper_bound(begin, end, epoch,
                          [](std::uint64_t e, const auto& m) {
                            return e < m->epoch;
                          });
}

}  // namespace

CodeMapIndex::MapPtr CodeMapIndex::sorted(CodeMapFile file) {
  auto map = std::make_shared<EpochMap>();
  map->epoch = file.epoch;
  map->truncated = file.truncated;
  map->entries = std::move(file.entries);
  std::sort(map->entries.begin(), map->entries.end(), by_address);
  return map;
}

CodeMapIndex::LoadStats CodeMapIndex::load(const os::Vfs& vfs, const std::string& dir,
                                           hw::Pid pid) {
  LoadStats stats;
  const std::string prefix = dir + "/" + std::to_string(pid) + "/map.";
  for (const std::string& path : vfs.list(prefix)) {
    const auto contents = vfs.read(path);
    VIPROF_CHECK(contents.has_value());
    // The file name carries the epoch, so even a fully corrupt file still
    // registers its epoch as truncated — the resolver must know the epoch
    // existed and is unaccounted for.
    const auto hint = CodeMapFile::epoch_from_path(path);
    CodeMapFile::Recovery r = CodeMapFile::salvage(*contents, hint.value_or(0));
    ++stats.maps_loaded;
    if (r.file.truncated) {
      ++stats.maps_truncated;
      stats.entries_salvaged += r.file.entries.size();
    } else {
      ++stats.maps_intact;
    }
    stats.entries_loaded += r.file.entries.size();
    add(std::move(r.file));
  }
  prepare();
  return stats;
}

void CodeMapIndex::add(MapPtr map) {
  total_entries_ += map->entries.size();
  if (map_count() == 0 || map->epoch > max_epoch()) {
    if (map->truncated) ++truncated_count_;
    tail_.push_back(std::move(map));
    return;
  }
  // An older or colliding epoch: every map goes back to one epoch-ordered
  // list, which the next prepare() flattens again.
  if (base_) {
    tail_.insert(tail_.begin(), base_->maps.begin(), base_->maps.end());
    base_.reset();
  }
  auto it = first_after(tail_.begin(), tail_.end(), map->epoch);
  if (it == tail_.begin() || (*(it - 1))->epoch != map->epoch) {
    if (map->truncated) ++truncated_count_;
    tail_.insert(it, std::move(map));
    return;
  }
  // Epoch collision: two files claimed this epoch (typically two damaged
  // files salvaged under the same file-name hint). Merge the entries and
  // mark the epoch truncated — which file's entries are authoritative is
  // unknowable, so absence from the union must not prove anything.
  MapPtr& slot = *(it - 1);
  auto merged = std::make_shared<EpochMap>();
  merged->epoch = map->epoch;
  merged->truncated = true;
  merged->entries = slot->entries;
  merged->entries.insert(merged->entries.end(), map->entries.begin(),
                         map->entries.end());
  std::sort(merged->entries.begin(), merged->entries.end(), by_content);
  if (!slot->truncated) ++truncated_count_;
  slot = std::move(merged);
}

const CodeMapEntry* CodeMapIndex::find_in(const EpochMap& map, hw::Address pc) {
  auto e = std::upper_bound(map.entries.begin(), map.entries.end(), pc,
                            [](hw::Address a, const CodeMapEntry& m) {
                              return a < m.address;
                            });
  if (e == map.entries.begin()) return nullptr;
  --e;
  return e->contains(pc) ? &*e : nullptr;
}

void CodeMapIndex::prepare() {
  if (tail_.empty()) return;
  std::vector<MapPtr> maps;
  if (base_) maps = base_->maps;
  maps.insert(maps.end(), std::make_move_iterator(tail_.begin()),
              std::make_move_iterator(tail_.end()));
  tail_.clear();
  base_ = Flat::build(std::move(maps));
}

std::shared_ptr<const CodeMapIndex::Flat> CodeMapIndex::Flat::build(
    std::vector<MapPtr> maps) {
  auto flat = std::make_shared<Flat>();
  flat->maps = std::move(maps);

  flat->epochs.reserve(flat->maps.size());
  for (const MapPtr& map : flat->maps) {
    flat->epochs.push_back(map->epoch);
    if (map->truncated) flat->trunc_epochs.push_back(map->epoch);
  }

  const std::vector<std::uint64_t>& epochs = flat->epochs;
  flat->gap_below.reserve(epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (i == 0) {
      flat->gap_below.push_back(epochs[0] > 0 ? epochs[0] - 1 : kNoGap);
    } else if (epochs[i - 1] + 1 == epochs[i]) {
      flat->gap_below.push_back(flat->gap_below[i - 1]);  // contiguous: inherit
    } else {
      flat->gap_below.push_back(epochs[i] - 1);
    }
  }

  // The effective coverage of one epoch map mirrors find_in() exactly: the
  // segment of sorted entry i is [addr_i, min(addr_i + size_i, addr_{i+1}))
  // — a predecessor probe never sees past the next entry's start, so an
  // overlapped prefix stays a hole (exposing older epochs), duplicates
  // yield empty segments, and address+size overflow means no coverage.
  const auto each_segment = [](const EpochMap& map, const auto& fn) {
    const auto& es = map.entries;
    for (std::size_t i = 0; i < es.size(); ++i) {
      const hw::Address lo = es[i].address;
      hw::Address hi = lo + es[i].size;
      if (hi <= lo) continue;  // zero size, or wrapped: contains() never true
      if (i + 1 < es.size() && es[i + 1].address < hi) hi = es[i + 1].address;
      if (hi <= lo) continue;
      fn(lo, hi, &es[i]);
    }
  };

  std::vector<hw::Address>& bounds = flat->bounds;
  for (const MapPtr& map : flat->maps) {
    each_segment(*map, [&bounds](hw::Address lo, hw::Address hi, const CodeMapEntry*) {
      bounds.push_back(lo);
      bounds.push_back(hi);
    });
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Two passes over the segments: count each interval's versions, then fill
  // them in epoch order straight into the CSR arrays.
  struct Span {
    std::size_t j0, j1;  // elementary intervals [j0, j1) of one segment
    const CodeMapEntry* entry;
  };
  std::vector<Span> spans;
  std::vector<std::size_t> map_end;  // per map: end of its spans
  map_end.reserve(flat->maps.size());
  for (const MapPtr& map : flat->maps) {
    // A map's segments ascend without overlap: each search starts where
    // the previous segment ended.
    auto from = bounds.begin();
    each_segment(*map, [&](hw::Address lo, hw::Address hi, const CodeMapEntry* entry) {
      const auto j0 = std::lower_bound(from, bounds.end(), lo);
      from = std::lower_bound(j0, bounds.end(), hi);
      spans.push_back({static_cast<std::size_t>(j0 - bounds.begin()),
                       static_cast<std::size_t>(from - bounds.begin()), entry});
    });
    map_end.push_back(spans.size());
  }
  const std::size_t slots = bounds.empty() ? 0 : bounds.size() - 1;
  std::vector<std::size_t>& slot_of = flat->slot_of;
  slot_of.assign(slots + 1, 0);
  for (const Span& span : spans)
    for (std::size_t j = span.j0; j < span.j1; ++j) ++slot_of[j + 1];
  for (std::size_t j = 0; j < slots; ++j) slot_of[j + 1] += slot_of[j];
  flat->versions.resize(slot_of[slots]);
  std::vector<std::size_t> fill(slot_of.begin(), slot_of.end() - 1);
  std::size_t next_span = 0;
  for (std::uint32_t ord = 0; ord < flat->maps.size(); ++ord) {
    const std::uint64_t epoch = flat->maps[ord]->epoch;
    for (; next_span < map_end[ord]; ++next_span) {
      const Span& span = spans[next_span];
      for (std::size_t j = span.j0; j < span.j1; ++j)
        flat->versions[fill[j]++] = Occupant{epoch, ord, span.entry};
    }
  }
  return flat;
}

const CodeMapIndex::Occupant* CodeMapIndex::Flat::find(hw::Address pc,
                                                       std::uint64_t epoch) const {
  if (bounds.size() < 2 || pc < bounds.front() || pc >= bounds.back()) {
    return nullptr;
  }
  const std::size_t j = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), pc) - bounds.begin() - 1);
  const auto begin = versions.begin() + static_cast<std::ptrdiff_t>(slot_of[j]);
  const auto end = versions.begin() + static_cast<std::ptrdiff_t>(slot_of[j + 1]);
  const auto it = std::upper_bound(
      begin, end, epoch,
      [](std::uint64_t q, const Occupant& v) { return q < v.epoch; });
  if (it == begin) return nullptr;  // interval unoccupied at or before `epoch`
  return &*(it - 1);
}

std::optional<CodeMapIndex::Hit> CodeMapIndex::Flat::resolve(hw::Address pc,
                                                             std::uint64_t epoch) const {
  const Occupant* v = find(pc, epoch);
  if (v == nullptr) return std::nullopt;
  // The lax walk visits every loaded map from the newest at or below
  // `epoch` down to the hit, so the reported depth is an ord distance.
  const auto top = std::upper_bound(epochs.begin(), epochs.end(), epoch);
  const auto top_ord = static_cast<std::uint32_t>(top - epochs.begin() - 1);
  return Hit{v->entry->symbol, v->epoch, top_ord - v->ord + 1, v->entry->address,
             v->entry->size};
}

CodeMapIndex::Lookup CodeMapIndex::Flat::lookup(hw::Address pc,
                                                std::uint64_t epoch) const {
  Lookup out;
  // Newest loaded epoch at or below the query epoch, if any.
  const auto top = std::upper_bound(epochs.begin(), epochs.end(), epoch);
  // Newest *missing* integer epoch <= query: the query epoch itself when it
  // has no map, else the precomputed gap below the walk's entry point.
  std::uint64_t gap = kNoGap;
  if (top == epochs.begin()) {
    gap = epoch;  // nothing loaded at or below the query epoch
  } else {
    const std::size_t top_idx = static_cast<std::size_t>(top - epochs.begin() - 1);
    gap = epochs[top_idx] == epoch ? gap_below[top_idx] : epoch;
  }
  // Newest truncated epoch <= query.
  const auto tt = std::upper_bound(trunc_epochs.begin(), trunc_epochs.end(), epoch);
  const bool has_trunc = tt != trunc_epochs.begin();
  const std::uint64_t trunc = has_trunc ? *(tt - 1) : 0;

  const Occupant* v = find(pc, epoch);
  // The walk stops at whichever poison epoch it meets first (the highest
  // one) on the way down from `epoch` — but only if that is *above* the
  // hit; a hit inside a truncated map is still a hit (verified checksum).
  const std::uint64_t floor = v != nullptr ? v->epoch : 0;
  const bool gap_aborts = gap != kNoGap && (v == nullptr || gap > floor);
  const bool trunc_aborts = has_trunc && (v == nullptr || trunc > floor);
  if (!gap_aborts && !trunc_aborts) {
    if (v != nullptr) {
      // All integer epochs in [hit, query] have maps (no gap above the
      // hit), so the walk depth is the plain epoch distance.
      out.hit = Hit{v->entry->symbol, v->epoch,
                    static_cast<std::uint32_t>(epoch - v->epoch + 1),
                    v->entry->address, v->entry->size};
    } else {
      out.miss = JitLookupMiss::kNotFound;  // reached epoch 0 intact
    }
    return out;
  }
  out.miss = (gap_aborts && (!trunc_aborts || gap > trunc))
                 ? JitLookupMiss::kMissingEpochMap
                 : JitLookupMiss::kTruncatedMap;
  return out;
}

std::optional<CodeMapIndex::Hit> CodeMapIndex::resolve(hw::Address pc,
                                                       std::uint64_t epoch) const {
  // The tail holds the newest maps: the lax walk visits them first.
  std::uint32_t searched = 0;
  for (auto it = first_after(tail_.begin(), tail_.end(), epoch); it != tail_.begin();) {
    const EpochMap& map = **--it;
    ++searched;
    if (const CodeMapEntry* e = find_in(map, pc))
      return Hit{e->symbol, map.epoch, searched, e->address, e->size};
  }
  if (!base_) return std::nullopt;
  std::optional<Hit> hit = base_->resolve(pc, epoch);
  if (hit) hit->maps_searched += searched;
  return hit;
}

CodeMapIndex::Lookup CodeMapIndex::lookup(hw::Address pc, std::uint64_t epoch) const {
  Lookup out;
  if (map_count() == 0) {
    out.miss = JitLookupMiss::kNoMaps;
    return out;
  }
  // Walk the tail exactly as lookup_walkback() does, then continue in the
  // base from the first epoch the tail did not cover.
  std::uint64_t next = epoch;
  for (auto it = first_after(tail_.begin(), tail_.end(), epoch); it != tail_.begin();) {
    const EpochMap& map = **--it;
    if (map.epoch != next) {
      out.miss = JitLookupMiss::kMissingEpochMap;
      return out;
    }
    if (const CodeMapEntry* e = find_in(map, pc)) {
      out.hit = Hit{e->symbol, map.epoch,
                    static_cast<std::uint32_t>(epoch - map.epoch + 1), e->address,
                    e->size};
      return out;
    }
    if (map.truncated) {
      out.miss = JitLookupMiss::kTruncatedMap;
      return out;
    }
    if (map.epoch == 0) {
      out.miss = JitLookupMiss::kNotFound;
      return out;
    }
    next = map.epoch - 1;
  }
  if (!base_) {
    out.miss = JitLookupMiss::kMissingEpochMap;  // epoch `next` has no map
    return out;
  }
  out = base_->lookup(pc, next);
  if (out.hit) out.hit->maps_searched += static_cast<std::uint32_t>(epoch - next);
  return out;
}

const CodeMapIndex::EpochMap* CodeMapIndex::map_at(std::uint64_t epoch) const {
  auto it = first_after(tail_.begin(), tail_.end(), epoch);
  if (it != tail_.begin() && (*(it - 1))->epoch == epoch) return (it - 1)->get();
  if (!base_) return nullptr;
  const auto& epochs = base_->epochs;
  const auto e = std::lower_bound(epochs.begin(), epochs.end(), epoch);
  if (e == epochs.end() || *e != epoch) return nullptr;
  return base_->maps[static_cast<std::size_t>(e - epochs.begin())].get();
}

bool CodeMapIndex::epoch_truncated(std::uint64_t epoch) const {
  const EpochMap* map = map_at(epoch);
  return map != nullptr && map->truncated;
}

std::optional<CodeMapIndex::Hit> CodeMapIndex::resolve_walkback(
    hw::Address pc, std::uint64_t epoch) const {
  std::uint32_t searched = 0;
  // Iterate epochs <= `epoch` from newest to oldest: tail, then base.
  const auto visit = [&](auto begin, auto end) -> std::optional<Hit> {
    for (auto it = first_after(begin, end, epoch); it != begin;) {
      const EpochMap& map = **--it;
      ++searched;
      if (const CodeMapEntry* e = find_in(map, pc))
        return Hit{e->symbol, map.epoch, searched, e->address, e->size};
    }
    return std::nullopt;
  };
  if (auto hit = visit(tail_.begin(), tail_.end())) return hit;
  if (!base_) return std::nullopt;
  return visit(base_->maps.begin(), base_->maps.end());
}

CodeMapIndex::Lookup CodeMapIndex::lookup_walkback(hw::Address pc,
                                                   std::uint64_t epoch) const {
  Lookup out;
  if (map_count() == 0) {
    out.miss = JitLookupMiss::kNoMaps;
    return out;
  }
  std::uint32_t searched = 0;
  for (std::uint64_t e = epoch;; --e) {
    const EpochMap* map = map_at(e);
    if (map == nullptr) {
      // This epoch's map was lost. Some method may have been compiled or
      // moved here; falling through to an older map could resurrect a
      // stale placement, so the sample is explicitly unresolvable.
      out.miss = JitLookupMiss::kMissingEpochMap;
      return out;
    }
    ++searched;
    if (const CodeMapEntry* entry = find_in(*map, pc)) {
      // A hit inside a truncated map's salvaged prefix is trusted. Entries
      // carry no checksum of their own (only the whole-file trailer does);
      // the prefix is trusted because a torn write leaves the written
      // bytes exact up to the tear, and salvage refuses the unterminated
      // line the tear cuts.
      out.hit = Hit{entry->symbol, e, searched, entry->address, entry->size};
      return out;
    }
    if (map->truncated) {
      // Absence from a truncated map proves nothing — the entry covering
      // `pc` may be among the lost lines.
      out.miss = JitLookupMiss::kTruncatedMap;
      return out;
    }
    if (e == 0) break;
  }
  out.miss = JitLookupMiss::kNotFound;
  return out;
}

std::uint64_t CodeMapIndex::max_epoch() const {
  if (!tail_.empty()) return tail_.back()->epoch;
  return base_ ? base_->epochs.back() : 0;
}

// ------------------------------------------------------ VersionedCodeMapIndex

namespace {

// A version re-flattens once its tail holds more than this many maps and
// more than 1/kTailFraction of the maps in its base: bounded walk per
// query, amortised O(new entries) per append.
constexpr std::size_t kMinTail = 8;
constexpr std::size_t kTailFraction = 2;

}  // namespace

void VersionedCodeMapIndex::add(const std::string& path, CodeMapFile file) {
  CodeMapIndex::MapPtr map = CodeMapIndex::sorted(std::move(file));
  auto [slot, fresh] = by_path_.try_emplace(path, map);
  CodeMapIndex next;
  if (fresh) {
    next = *current_;
    next.add(std::move(map));
  } else {
    // A path stored again replaces its earlier contents, as a VFS write
    // does: rebuild from every map received.
    slot->second = std::move(map);
    for (const auto& [p, m] : by_path_) next.add(m);
  }
  const std::size_t base = next.map_count() - next.tail_size();
  if (next.tail_size() > std::max(kMinTail, base / kTailFraction)) next.prepare();
  current_ = std::make_shared<const CodeMapIndex>(std::move(next));
}

}  // namespace viprof::core
