// Id-keyed, order-recovering accumulators for striped aggregation
// (DESIGN.md §14).
//
// Batches land on stripes by sequence number and apply in whatever order
// workers finish, so no stripe holds a contiguous run and Profile::merge's
// shard-order rule cannot recover the serial row order. Instead every row
// and arc carries its first occurrence — (batch sequence, position of its
// first sample in the batch) — minimised across folds; sorting on it
// rebuilds the serial first-occurrence order at any stripe count and any
// apply interleaving. Rows are keyed on SymbolIds: a worker maps samples
// to ids through a per-batch memo (BatchFolder), a fold is integer adds
// plus the min rule, and strings come back only for the rows a query
// returns (IdProfile, ranked_arcs).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolver.hpp"
#include "core/symbol_dict.hpp"
#include "hw/event.hpp"
#include "hw/types.hpp"

namespace viprof::core {

/// Where a row or arc first occurred: (the batch's apply sequence, the
/// position of its first sample within the batch), compared in that order.
using FirstSeen = std::pair<std::uint64_t, std::uint32_t>;

/// One profile row in id space.
struct SymbolRow {
  SymbolId id = 0;
  SampleDomain domain = SampleDomain::kUnknown;
  FirstSeen seen;
  std::uint64_t counts[hw::kEventKindCount] = {};

  std::uint64_t key() const { return id; }
  /// Another occurrence of the same id: counts add; the serially earlier
  /// one keeps its position and its domain (the first add wins serially).
  void absorb(const SymbolRow& o) {
    for (std::size_t e = 0; e < hw::kEventKindCount; ++e) counts[e] += o.counts[e];
    if (o.seen < seen) {
      seen = o.seen;
      domain = o.domain;
    }
  }
};

/// One call arc in id space.
struct ArcRow {
  SymbolId caller = 0;
  SymbolId callee = 0;
  SampleDomain caller_domain = SampleDomain::kUnknown;
  SampleDomain callee_domain = SampleDomain::kUnknown;
  FirstSeen seen;
  std::uint64_t count = 0;

  std::uint64_t key() const { return std::uint64_t{caller} << 32 | callee; }
  void absorb(const ArcRow& o) {
    count += o.count;
    if (o.seen < seen) {
      seen = o.seen;
      caller_domain = o.caller_domain;
      callee_domain = o.callee_domain;
    }
  }
};

/// Rows folded by key(), in any order; each keeps its earliest occurrence.
template <typename Row>
class SeqFold {
 public:
  void fold(const Row& row) {
    const auto [it, inserted] =
        index_.try_emplace(row.key(), static_cast<std::uint32_t>(rows_.size()));
    if (inserted)
      rows_.push_back(row);
    else
      rows_[it->second].absorb(row);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  // key() -> rows_
};

using SeqProfile = SeqFold<SymbolRow>;
using SeqCallGraph = SeqFold<ArcRow>;

/// One batch in id space. The event, pending and epoch folds all read
/// `rows`: an event row's first occurrence is the minimum over its epochs.
struct BatchPartial {
  struct Row {
    std::uint64_t epoch = 0;
    SymbolRow row;
  };
  std::vector<Row> rows;  // one per distinct memo key, in first-position order
  std::vector<ArcRow> arcs;
};

/// Builds one batch's partial. Within the batch each distinct name gets a
/// local slot: a memo on (domain, pid, sample epoch, symbol_base) maps each
/// sample to its row, the unresolved bins (which all report base 0) key on
/// their name instead, and a caller is resolved once per distinct (caller
/// pc, pid, epoch). take() interns the batch's names in one dictionary call
/// and rewrites the slots to ids, so workers meet on the dictionary's lock
/// once per batch.
class BatchFolder {
 public:
  BatchFolder(hw::EventKind event, std::uint64_t seq)
      : event_(hw::event_index(event)), seq_(seq) {}

  /// Accounts sample `pos` of the batch, resolved to `res`. Returns its slot.
  std::uint32_t add(std::uint32_t pos, hw::Pid pid, std::uint64_t epoch, const Resolution& res);

  /// Accounts the arc of sample `pos` from its caller at `caller_pc` to the
  /// `callee` slot; `resolve_caller()` returns the caller's Resolution.
  template <typename ResolveCaller>
  void add_arc(std::uint32_t pos, hw::Address caller_pc, hw::Pid pid, std::uint64_t epoch,
               std::uint32_t callee, SampleDomain callee_domain,
               ResolveCaller&& resolve_caller) {
    const auto [it, inserted] =
        memo_.try_emplace(MemoKey(caller_pc, epoch, pid, SampleDomain::kUnknown, kCaller));
    if (inserted) {
      const Resolution caller = resolve_caller();
      it->second = Memo{slot_of(caller), caller.domain, 0};
    }
    add_arc_row(pos, it->second.slot, it->second.domain, callee, callee_domain);
  }

  /// The partial, its slots interned in `dict`. Ends the folder.
  BatchPartial take(SymbolDict& dict);

 private:
  enum Kind : unsigned { kSymbol, kName, kCaller };  // what a MemoKey's value is
  struct Memo {
    std::uint32_t slot = 0;
    SampleDomain domain = SampleDomain::kUnknown;  // callers only
    std::uint32_t row = 0;                         // samples: index into partial_.rows
  };

  std::uint32_t slot_of(const Resolution& res);
  void add_arc_row(std::uint32_t pos, std::uint32_t caller, SampleDomain caller_domain,
                   std::uint32_t callee, SampleDomain callee_domain);

  const std::size_t event_;
  const std::uint64_t seq_;
  std::unordered_map<MemoKey, Memo, MemoKey::Hash> memo_;
  std::deque<SymbolDict::Name> names_;  // by slot; a deque never moves them
  std::unordered_map<SymbolDict::NameView, std::uint32_t, SymbolDict::NameView::Hash>
      slots_;  // views into names_
  std::unordered_map<std::uint64_t, std::uint32_t> arc_rows_;  // ArcRow::key() -> arcs
  BatchPartial partial_;  // ids are slots until take()
};

/// A profile in id space: rows in recovered serial order, with totals.
struct IdProfile {
  std::vector<SymbolRow> rows;
  std::uint64_t totals[hw::kEventKindCount] = {};

  /// Every row, as the string-keyed Profile of the same samples.
  Profile materialise(const SymbolDict& dict) const;

  /// Profile::render of materialise(), materialising only the printed rows.
  std::string render(const SymbolDict& dict, const std::vector<hw::EventKind>& events,
                     std::size_t top_n) const;
};

/// Merges groups of folds into one IdProfile as Profile::merge over each
/// group's serial-order profile would. A group (one event or one epoch of
/// every stripe) is folded by the min rule and sorted by first occurrence;
/// across groups an id keeps the position and domain of its first group.
class IdProfileMerge {
 public:
  void add_group(const std::vector<const SeqProfile*>& parts);
  IdProfile take() { return std::move(out_); }

 private:
  IdProfile out_;
  std::vector<std::uint32_t> out_at_;    // id -> out_.rows index + 1, 0 = absent
  std::vector<SymbolRow> group_;         // the group being merged
  std::vector<std::uint32_t> group_at_;  // id -> group_ index + 1, 0 = absent
};

/// The arcs of `parts` folded together and ranked as CallGraph::ranked()
/// ranks the serial graph (count descending, ties in first-occurrence
/// order); only the first `top_n` are materialised.
std::vector<CallArc> ranked_arcs(const std::vector<const SeqCallGraph*>& parts,
                                 const SymbolDict& dict, std::size_t top_n);

}  // namespace viprof::core
