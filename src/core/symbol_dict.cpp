#include "core/symbol_dict.hpp"

#include <mutex>
#include <shared_mutex>

namespace viprof::core {

std::vector<SymbolId> SymbolDict::intern(std::vector<Name> names) {
  constexpr SymbolId kNew = ~SymbolId{0};
  std::vector<SymbolId> ids(names.size(), kNew);
  bool any_new = false;
  {
    std::shared_lock<support::TracedSharedMutex> lock(mu_);
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto it = index_.find(NameView{names[i].image, names[i].symbol});
      if (it != index_.end())
        ids[i] = it->second;
      else
        any_new = true;
    }
  }
  if (!any_new) return ids;
  std::lock_guard<support::TracedSharedMutex> lock(mu_);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (ids[i] != kNew) continue;
    const auto it = index_.find(NameView{names[i].image, names[i].symbol});
    if (it != index_.end()) {  // added by another thread between the locks
      ids[i] = it->second;
      continue;
    }
    ids[i] = static_cast<SymbolId>(entries_.size());
    const Name& e = entries_.emplace_back(std::move(names[i]));
    index_.emplace(NameView{e.image, e.symbol}, ids[i]);  // keyed on the stored strings
  }
  return ids;
}

const SymbolDict::Name& SymbolDict::entry(SymbolId id) const {
  std::shared_lock<support::TracedSharedMutex> lock(mu_);
  return entries_[id];
}

std::size_t SymbolDict::size() const {
  std::shared_lock<support::TracedSharedMutex> lock(mu_);
  return entries_.size();
}

}  // namespace viprof::core
