#include "core/striped_agg.hpp"

#include <algorithm>
#include <iterator>

namespace viprof::core {

namespace {

/// `at[id]`, growing `at` to hold `id`.
std::uint32_t& slot(std::vector<std::uint32_t>& at, SymbolId id) {
  if (id >= at.size()) at.resize(std::size_t{id} + 1, 0);
  return at[id];
}

}  // namespace

// ------------------------------------------------------------ BatchFolder

std::uint32_t BatchFolder::add(std::uint32_t pos, hw::Pid pid, std::uint64_t epoch,
                               const Resolution& res) {
  const bool by_name = res.symbol_size == 0;
  const std::uint32_t named = by_name ? slot_of(res) : 0;
  const auto [it, inserted] = memo_.try_emplace(
      MemoKey(by_name ? named : res.symbol_base, epoch, pid, res.domain, by_name ? kName : kSymbol));
  Memo& memo = it->second;
  if (inserted) {
    memo.slot = by_name ? named : slot_of(res);
    memo.row = static_cast<std::uint32_t>(partial_.rows.size());
    partial_.rows.push_back({epoch, SymbolRow{memo.slot, res.domain, {seq_, pos}, {}}});
  }
  ++partial_.rows[memo.row].row.counts[event_];
  return memo.slot;
}

std::uint32_t BatchFolder::slot_of(const Resolution& res) {
  const auto it = slots_.find(SymbolDict::NameView{res.image, res.symbol});
  if (it != slots_.end()) return it->second;
  const auto slot = static_cast<std::uint32_t>(names_.size());
  const SymbolDict::Name& name = names_.emplace_back(SymbolDict::Name{res.image, res.symbol});
  slots_.emplace(SymbolDict::NameView{name.image, name.symbol}, slot);
  return slot;
}

void BatchFolder::add_arc_row(std::uint32_t pos, std::uint32_t caller, SampleDomain caller_domain,
                              std::uint32_t callee, SampleDomain callee_domain) {
  const ArcRow arc{caller, callee, caller_domain, callee_domain, {seq_, pos}, 0};
  const auto [it, inserted] =
      arc_rows_.try_emplace(arc.key(), static_cast<std::uint32_t>(partial_.arcs.size()));
  if (inserted) partial_.arcs.push_back(arc);
  ++partial_.arcs[it->second].count;
}

BatchPartial BatchFolder::take(SymbolDict& dict) {
  const std::vector<SymbolId> ids = dict.intern(std::vector<SymbolDict::Name>(
      std::make_move_iterator(names_.begin()), std::make_move_iterator(names_.end())));
  for (BatchPartial::Row& r : partial_.rows) r.row.id = ids[r.row.id];
  for (ArcRow& arc : partial_.arcs) {
    arc.caller = ids[arc.caller];
    arc.callee = ids[arc.callee];
  }
  return std::move(partial_);
}

// -------------------------------------------------------------- IdProfile

Profile IdProfile::materialise(const SymbolDict& dict) const {
  Profile out;
  for (const SymbolRow& row : rows)
    out.add_row(dict.image(row.id), dict.symbol(row.id), row.domain, row.counts);
  return out;
}

std::string IdProfile::render(const SymbolDict& dict, const std::vector<hw::EventKind>& events,
                              std::size_t top_n) const {
  const std::size_t primary = hw::event_index(
      events.empty() ? hw::EventKind::kGlobalPowerEvents : events[0]);
  std::vector<ProfileRow> printed;
  for (const std::uint32_t i : rank_indices(rows.size(), top_n, [&](std::uint32_t r) {
         return rows[r].counts[primary];
       })) {
    ProfileRow& out = printed.emplace_back();
    out.image = dict.image(rows[i].id);
    out.symbol = dict.symbol(rows[i].id);
    out.domain = rows[i].domain;
    std::copy(std::begin(rows[i].counts), std::end(rows[i].counts), out.counts);
  }
  return render_rows(events, totals, printed);
}

// --------------------------------------------------------- IdProfileMerge

void IdProfileMerge::add_group(const std::vector<const SeqProfile*>& parts) {
  group_.clear();
  for (const SeqProfile* part : parts) {
    for (const SymbolRow& row : part->rows()) {
      std::uint32_t& at = slot(group_at_, row.id);
      if (at == 0) {
        group_.push_back(row);
        at = static_cast<std::uint32_t>(group_.size());
      } else {
        group_[at - 1].absorb(row);
      }
    }
  }
  for (const SymbolRow& row : group_) group_at_[row.id] = 0;
  // Within a group no two rows share a first occurrence: one sample has
  // one id, and every batch has its own sequence.
  std::sort(group_.begin(), group_.end(),
            [](const SymbolRow& a, const SymbolRow& b) { return a.seen < b.seen; });
  for (const SymbolRow& row : group_) {
    std::uint32_t& at = slot(out_at_, row.id);
    if (at == 0) {
      out_.rows.push_back(row);
      at = static_cast<std::uint32_t>(out_.rows.size());
    } else {
      SymbolRow& dst = out_.rows[at - 1];
      for (std::size_t e = 0; e < hw::kEventKindCount; ++e) dst.counts[e] += row.counts[e];
    }
    for (std::size_t e = 0; e < hw::kEventKindCount; ++e) out_.totals[e] += row.counts[e];
  }
}

// ------------------------------------------------------------ ranked_arcs

std::vector<CallArc> ranked_arcs(const std::vector<const SeqCallGraph*>& parts,
                                 const SymbolDict& dict, std::size_t top_n) {
  SeqCallGraph combined;
  for (const SeqCallGraph* part : parts)
    for (const ArcRow& arc : part->rows()) combined.fold(arc);
  // The serial insertion order, then CallGraph::ranked()'s rule over it.
  std::vector<ArcRow> arcs = combined.rows();
  std::sort(arcs.begin(), arcs.end(),
            [](const ArcRow& a, const ArcRow& b) { return a.seen < b.seen; });
  std::vector<CallArc> out;
  for (const std::uint32_t i :
       rank_indices(arcs.size(), top_n, [&](std::uint32_t a) { return arcs[a].count; })) {
    const ArcRow& arc = arcs[i];
    out.push_back(CallArc{dict.image(arc.caller), dict.symbol(arc.caller),
                          dict.image(arc.callee), dict.symbol(arc.callee),
                          arc.caller_domain, arc.callee_domain, arc.count});
  }
  return out;
}

}  // namespace viprof::core
