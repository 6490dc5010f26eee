// Epoch-keyed JIT code maps (paper Sections 3.1-3.3).
//
// The VM agent writes one *partial* map per execution epoch, just before the
// GC that closes it: methods compiled or recompiled during the epoch, plus
// methods the previous collection moved. Post-processing resolves a sample
// against the map of the sample's epoch and walks *backwards* through older
// maps until it finds the first map containing an address range that covers
// the PC — guaranteeing attribution to "the most recently compiled — or
// moved — method to occupy that address space".
//
// Crash consistency: the file format carries an entry count in the header
// and an FNV-1a checksum trailer (support/framed.hpp). A map that lost its
// tail (the VM died mid-write, the disk tore the page) is detected, the
// entry prefix before the tear is salvaged, and the map is marked
// *truncated*. The backward
// search refuses to step past a missing or truncated map it cannot decide
// on — such samples become explicit `unresolved.*` outcomes instead of
// being silently attributed to a stale neighbour.
//
// Query cost (DESIGN.md §9): the literal per-sample backward walk is
// O(epochs · log entries). The index therefore flattens the maps once per
// load into a merged interval view — every address range annotated with the
// epochs at which its occupant changed — so resolve()/lookup() are a single
// O(log n) probe. Gap and truncation positions are precomputed alongside,
// keeping kMissingEpochMap/kTruncatedMap outcomes bit-identical to the
// walk; resolve_walkback()/lookup_walkback() keep the original algorithms
// as the property-test oracle.
//
// Maps that stream in one epoch at a time (the continuous-profiling
// service, DESIGN.md §10) must not pay a re-flatten of every older epoch
// per arrival: each map is sorted once into immutable shared storage, maps
// newer than the flattened base form a short tail that queries walk first,
// and VersionedCodeMapIndex publishes every arrival as a cheap immutable
// copy that shares the older epochs with its predecessor.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hw/types.hpp"
#include "os/vfs.hpp"

namespace viprof::core {

struct CodeMapEntry {
  hw::Address address = 0;
  std::uint64_t size = 0;
  std::string symbol;  // fully qualified method name

  bool contains(hw::Address pc) const { return pc >= address && pc < address + size; }
};

/// One epoch's map: serialisation to/from the VFS file format.
struct CodeMapFile {
  std::uint64_t epoch = 0;
  /// Known-incomplete map: a salvaged prefix of a damaged file (set by
  /// salvage(), preserved across re-serialisation so a recovered tree
  /// stays honest about what it lost).
  bool truncated = false;
  std::vector<CodeMapEntry> entries;

  std::string serialize() const;

  /// Strict parse: header, declared entry count and checksum trailer must
  /// all verify. nullopt on any damage (use salvage() to recover).
  static std::optional<CodeMapFile> parse(const std::string& contents);

  /// Tolerant parse for damaged files: recovers the longest verifiable
  /// prefix of entries. `epoch_hint` (from the file name) is used when the
  /// header itself is unreadable. (Defined after the class: it embeds one.)
  struct Recovery;
  static Recovery salvage(const std::string& contents, std::uint64_t epoch_hint);

  /// Conventional path for the map of `epoch` under `dir`.
  static std::string path_for(const std::string& dir, hw::Pid pid, std::uint64_t epoch);

  /// Epoch encoded in a path_for-style file name, or nullopt.
  static std::optional<std::uint64_t> epoch_from_path(const std::string& path);
};

struct CodeMapFile::Recovery {
  bool intact = false;     // full parse with matching count and checksum
  bool header_ok = false;  // the header line was complete and readable
  std::uint64_t entries_expected = 0;  // from the header; 0 if unreadable
  CodeMapFile file;                    // truncated flag set when !intact
};

/// Why a strict JIT lookup produced no symbol.
enum class JitLookupMiss : std::uint8_t {
  kNone,            // hit
  kNoMaps,          // no maps loaded at all
  kNotFound,        // every map down to epoch 0 intact, pc in none of them
  kMissingEpochMap, // an epoch on the search path has no map (lost write)
  kTruncatedMap,    // an epoch on the search path has only a salvaged prefix
};

inline const char* to_string(JitLookupMiss m) {
  switch (m) {
    case JitLookupMiss::kNone:            return "hit";
    case JitLookupMiss::kNoMaps:          return "no-maps";
    case JitLookupMiss::kNotFound:        return "not-found";
    case JitLookupMiss::kMissingEpochMap: return "missing-map";
    case JitLookupMiss::kTruncatedMap:    return "truncated-map";
  }
  return "?";
}

/// The post-processing index over all epoch maps of one VM.
///
/// Storage: every epoch map is address-sorted once into an immutable
/// EpochMap shared by all copies of the index. Maps up to some epoch B sit
/// in a flattened *base* view (one O(log n) probe answers any epoch); maps
/// newer than B form a *tail* that queries walk newest-first before that
/// probe. load() and prepare() fold the tail into the base. Copying an
/// index is cheap — the copy shares every map and the base — and leaves
/// both objects independent.
///
/// Thread-safety contract: any number of threads may call the const query
/// methods concurrently. add(), load() and prepare() are exclusive — they
/// must not race with queries or each other on the same object.
class CodeMapIndex {
 public:
  struct LoadStats {
    std::uint64_t maps_loaded = 0;     // files found (intact or salvaged)
    std::uint64_t maps_intact = 0;
    std::uint64_t maps_truncated = 0;  // damaged: prefix salvaged
    std::uint64_t entries_loaded = 0;
    std::uint64_t entries_salvaged = 0;  // entries recovered from damaged maps
  };

  /// Loads every map file under `dir` for `pid` from the VFS, salvaging
  /// damaged files instead of aborting on them. Builds the flattened view.
  LoadStats load(const os::Vfs& vfs, const std::string& dir, hw::Pid pid);

  /// Adds one parsed map (tests construct indices directly). Two files
  /// claiming the same epoch — e.g. two unreadable-header files salvaged
  /// under the same file-name hint — are *merged* and the epoch marked
  /// truncated: with provenance ambiguous, absence from the merged map must
  /// not prove anything. The merged entries are ordered by (address, size,
  /// symbol), so the result does not depend on which file came first.
  void add(CodeMapFile file) { add(sorted(std::move(file))); }

  struct Hit {
    std::string symbol;
    std::uint64_t found_in_epoch = 0;
    std::uint32_t maps_searched = 0;  // 1 = found in the sample's own epoch
    hw::Address address = 0;          // body start (as of that epoch)
    std::uint64_t size = 0;
  };

  /// Backward search from `epoch` down to 0 over whatever maps exist;
  /// ignores gaps and truncation. This is the paper's original algorithm —
  /// post-processing uses lookup() below, which refuses to guess.
  std::optional<Hit> resolve(hw::Address pc, std::uint64_t epoch) const;

  /// Crash-aware backward search: walks epochs `epoch`, `epoch`-1, ... 0
  /// contiguously. A missing or truncated map that does not contain `pc`
  /// stops the walk with an explicit miss reason, because an older map
  /// could attribute the sample to a method that had since been recompiled
  /// or moved — the one lie VIProf must never tell.
  struct Lookup {
    std::optional<Hit> hit;
    JitLookupMiss miss = JitLookupMiss::kNone;
  };
  Lookup lookup(hw::Address pc, std::uint64_t epoch) const;

  /// Literal epoch-by-epoch implementations of resolve()/lookup(), kept as
  /// the equivalence oracle for the flattened view (and for benchmarking
  /// the flattening win). Same results, O(epochs · log n) per call.
  std::optional<Hit> resolve_walkback(hw::Address pc, std::uint64_t epoch) const;
  Lookup lookup_walkback(hw::Address pc, std::uint64_t epoch) const;

  /// Folds the tail into the flattened view (a no-op when the tail is
  /// empty). Queries are exact either way; the tail only costs walk steps.
  void prepare();

  /// True if `epoch` has a loaded map that is marked truncated.
  bool epoch_truncated(std::uint64_t epoch) const;

  std::size_t map_count() const {
    return (base_ ? base_->maps.size() : 0) + tail_.size();
  }
  /// Maps not yet folded into the flattened view.
  std::size_t tail_size() const { return tail_.size(); }
  std::uint64_t total_entries() const { return total_entries_; }
  std::uint64_t truncated_count() const { return truncated_count_; }

  /// Highest epoch with a loaded map.
  std::uint64_t max_epoch() const;

 private:
  friend class VersionedCodeMapIndex;

  /// One epoch's entries, address-sorted; immutable once shared.
  struct EpochMap {
    std::uint64_t epoch = 0;
    bool truncated = false;
    std::vector<CodeMapEntry> entries;
  };
  using MapPtr = std::shared_ptr<const EpochMap>;

  /// Sorts `file`'s entries by address into a shareable map (the one sort
  /// every map gets, whichever index it later joins).
  static MapPtr sorted(CodeMapFile file);

  /// add() for a sorted map. A map newer than every loaded epoch joins the
  /// tail without touching older maps; an older or colliding one returns
  /// every map to the tail, to be flattened again by the next prepare().
  void add(MapPtr map);

  /// One occupant change of an elementary address interval: from `epoch`
  /// on (until a newer version of the same interval), samples in the
  /// interval attribute to `entry`.
  struct Occupant {
    std::uint64_t epoch = 0;
    std::uint32_t ord = 0;  // index of `epoch` among the base's epochs
    const CodeMapEntry* entry = nullptr;
  };

  /// The flattened view over a set of maps; immutable once built and
  /// shared by every index copy. Entry pointers reference `maps` storage.
  struct Flat {
    std::vector<MapPtr> maps;                // epoch-ascending, non-empty
    std::vector<hw::Address> bounds;         // elementary interval borders
    std::vector<std::size_t> slot_of;        // CSR offsets into versions
    std::vector<Occupant> versions;          // per interval, epoch-ascending
    std::vector<std::uint64_t> epochs;       // sorted map epochs
    std::vector<std::uint64_t> trunc_epochs; // sorted truncated epochs
    /// Per map: newest integer epoch <= it with *no* map (kNoGap if the
    /// maps run contiguously down to 0).
    std::vector<std::uint64_t> gap_below;

    static std::shared_ptr<const Flat> build(std::vector<MapPtr> maps);
    /// Newest occupant of `pc` among maps with epoch <= `epoch`, or nullptr.
    const Occupant* find(hw::Address pc, std::uint64_t epoch) const;
    std::optional<Hit> resolve(hw::Address pc, std::uint64_t epoch) const;
    Lookup lookup(hw::Address pc, std::uint64_t epoch) const;
  };

  static constexpr std::uint64_t kNoGap = ~0ull;  // epochs are < 2^64-1 here

  static const CodeMapEntry* find_in(const EpochMap& map, hw::Address pc);
  /// The loaded map of `epoch`, or nullptr.
  const EpochMap* map_at(std::uint64_t epoch) const;

  std::shared_ptr<const Flat> base_;  // null until the first prepare()
  std::vector<MapPtr> tail_;  // epoch-ascending, all newer than the base
  std::uint64_t total_entries_ = 0;
  std::uint64_t truncated_count_ = 0;
};

/// The epoch index of one VM whose maps arrive one at a time. Each add()
/// publishes a new immutable CodeMapIndex version; earlier versions stay
/// valid, unchanged, for whoever still holds them.
///
/// A map newer than every loaded epoch is *appended*: sorted once, it
/// joins the tail of a copy of the current version, sharing every older
/// map and the flattened base. When the tail outgrows a fixed fraction of
/// the base the new version re-flattens, so appends cost amortised
/// O(new entries) and a query walks a bounded tail before its base probe.
/// Out-of-order and duplicate epochs take the exact general path of
/// CodeMapIndex::add; a path stored twice rebuilds from every map
/// received, in path order — what CodeMapIndex::load would read.
///
/// Not thread-safe: one writer at a time, and readers get current()
/// copies from the writer's side of a lock.
class VersionedCodeMapIndex {
 public:
  using Version = std::shared_ptr<const CodeMapIndex>;

  /// Adds the map stored at `path` and publishes the new version.
  void add(const std::string& path, CodeMapFile file);

  const Version& current() const { return current_; }

 private:
  std::map<std::string, CodeMapIndex::MapPtr> by_path_;
  Version current_ = std::make_shared<const CodeMapIndex>();
};

}  // namespace viprof::core
