// Append-only symbol dictionary (DESIGN.md §14).
//
// The online aggregation keys every fold on a dense SymbolId instead of
// the (image, symbol) strings: a session interns each pair once, its
// stripes fold integers, and strings come back only for the rows a query
// returns. Ids are assigned in first-intern order from 0, never reused.
// A worker interns a whole batch's names at once: one pass under the
// shared side of the dictionary's lock finds the known ones, and the
// exclusive side is taken only when some name is new. Entries never move,
// so the references image()/symbol() return stay valid.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/traced_mutex.hpp"

namespace viprof::core {

using SymbolId = std::uint32_t;

class SymbolDict {
 public:
  struct Name {
    std::string image;
    std::string symbol;
  };
  /// A name by view, hashable: what lookups key on.
  struct NameView {
    std::string_view image;
    std::string_view symbol;
    bool operator==(const NameView&) const = default;
    struct Hash {
      std::size_t operator()(const NameView& k) const {
        return std::hash<std::string_view>{}(k.image) * 0x9e3779b97f4a7c15ull ^
               std::hash<std::string_view>{}(k.symbol);
      }
    };
  };

  /// `lock_name` names the dictionary's TracedSharedMutex (a string
  /// literal; DESIGN.md §13).
  explicit SymbolDict(const char* lock_name = "core.symbols") : mu_(lock_name) {}

  /// Registers the lock's contention metrics (lock.<name>.*).
  void attach(support::Telemetry& telemetry) { mu_.attach(telemetry); }

  /// The ids of `names`, in order, each assigned on first sight.
  std::vector<SymbolId> intern(std::vector<Name> names);

  /// The strings of an id this dictionary handed out.
  const std::string& image(SymbolId id) const { return entry(id).image; }
  const std::string& symbol(SymbolId id) const { return entry(id).symbol; }

  /// Ids handed out so far.
  std::size_t size() const;

 private:
  const Name& entry(SymbolId id) const;

  mutable support::TracedSharedMutex mu_;
  std::deque<Name> entries_;                                       // by id
  std::unordered_map<NameView, SymbolId, NameView::Hash> index_;  // views into entries_
};

}  // namespace viprof::core
