// opreport-style aggregation and rendering (paper Fig. 1).
//
// Aggregates resolved samples into (image, symbol) rows with per-event
// counts, computes percentages against each event's total, and renders the
// fixed-width table the paper shows:
//
//   Time %  Dmiss %  Image name  Symbol name
//   13.01   0.56     RVM.map     com.ibm.jikesrvm...getOsrPrologueLength
//   ...
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/resolver.hpp"
#include "hw/event.hpp"

namespace viprof::core {

struct ProfileRow {
  std::string image;
  std::string symbol;
  SampleDomain domain = SampleDomain::kUnknown;
  std::uint64_t counts[hw::kEventKindCount] = {};

  std::uint64_t count(hw::EventKind e) const { return counts[hw::event_index(e)]; }
};

/// Column header the paper uses for each event.
const char* event_column_title(hw::EventKind event);

/// Indices [0, n) ranked by `count(i)` descending, ties in index order (as
/// a stable sort by count leaves them), cut to the first `top_n`: no row is
/// copied, and a cut rank orders only the rows it keeps.
template <typename CountFn>
std::vector<std::uint32_t> rank_indices(std::size_t n, std::size_t top_n, CountFn count) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  const auto before = [&count](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ca = count(a), cb = count(b);
    return ca != cb ? ca > cb : a < b;
  };
  if (top_n < n) {
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top_n),
                      order.end(), before);
    order.resize(top_n);
  } else {
    std::sort(order.begin(), order.end(), before);
  }
  return order;
}

/// Rows of a vector in ranked order, held as indices (ranked() returns this
/// instead of a sorted copy). Valid while the vector lives unchanged.
template <typename Row>
class RankedView {
 public:
  RankedView(const std::vector<Row>& rows, std::vector<std::uint32_t> order)
      : rows_(&rows), order_(std::move(order)) {}

  struct iterator {
    const std::vector<Row>* rows;
    const std::uint32_t* at;
    const Row& operator*() const { return (*rows)[*at]; }
    iterator& operator++() {
      ++at;
      return *this;
    }
    bool operator==(const iterator& o) const { return at == o.at; }
  };

  std::size_t size() const { return order_.size(); }
  const Row& operator[](std::size_t i) const { return (*rows_)[order_[i]]; }
  iterator begin() const { return {rows_, order_.data()}; }
  iterator end() const { return {rows_, order_.data() + order_.size()}; }

 private:
  const std::vector<Row>* rows_;
  std::vector<std::uint32_t> order_;
};

/// Percentage of `total` that `count` is (0 when the total is 0).
inline double percent_of(std::uint64_t count, std::uint64_t total) {
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(count) / static_cast<double>(total);
}

/// The Fig. 1 table (see Profile::render) over `rows`, already ranked and
/// cut, with percentages against `totals`.
std::string render_rows(const std::vector<hw::EventKind>& events,
                        const std::uint64_t (&totals)[hw::kEventKindCount],
                        const std::vector<ProfileRow>& rows);

/// Aggregation is hash-based: rows are interned in an unordered_map keyed
/// on (image, symbol), so add() is O(1) amortised instead of a linear row
/// scan, while rows_ preserves first-insertion order — the tie order of
/// ranked() and render().
class Profile {
 public:
  void add(hw::EventKind event, const Resolution& res, std::uint64_t count = 1);

  /// Adds one finished row with every count at once, as add() per event
  /// would: the path by which id-keyed aggregates materialise.
  void add_row(const std::string& image, const std::string& symbol, SampleDomain domain,
               const std::uint64_t (&counts)[hw::kEventKindCount]);

  /// Adds every row and total of `other` into this profile. Merging
  /// per-shard profiles in shard order reproduces the serial profile
  /// exactly (row order included): a row's first-occurrence shard is the
  /// shard of its globally first sample.
  void merge(const Profile& other);

  std::uint64_t total(hw::EventKind event) const {
    return totals_[hw::event_index(event)];
  }

  double percent(const ProfileRow& row, hw::EventKind event) const;

  /// Rows ranked by the count of `primary` (descending, ties in row order).
  RankedView<ProfileRow> ranked(hw::EventKind primary) const;

  /// Sum of counts of `event` over rows in `domain`.
  std::uint64_t domain_total(SampleDomain domain, hw::EventKind event) const;

  /// Row for an exact (image, symbol), if present.
  const ProfileRow* find(const std::string& image, const std::string& symbol) const;

  /// Interning API for hot aggregation loops (service ingest, resolve
  /// shards): intern the row slot once, then bump() repeats without
  /// rebuilding the "image\0symbol" hash key per sample. Indices stay
  /// valid across later add()s (rows are never removed). bump() maintains
  /// totals exactly as add() does: row_index() + bump() == add().
  std::size_t row_index(const Resolution& res);
  void bump(std::size_t row, hw::EventKind event, std::uint64_t count = 1) {
    totals_[hw::event_index(event)] += count;
    rows_[row].counts[hw::event_index(event)] += count;
  }

  /// Fig. 1-style report: one percentage column per event in `events`,
  /// then image and symbol names; top `top_n` rows by the first event.
  std::string render(const std::vector<hw::EventKind>& events, std::size_t top_n) const;

  std::size_t row_count() const { return rows_.size(); }
  const std::vector<ProfileRow>& rows() const { return rows_; }

 private:
  std::size_t row_slot(const std::string& image, const std::string& symbol,
                       SampleDomain domain);
  ProfileRow& row_for(const std::string& image, const std::string& symbol,
                      SampleDomain domain) {
    return rows_[row_slot(image, symbol, domain)];
  }

  std::vector<ProfileRow> rows_;
  /// "image\0symbol" -> index into rows_ (symbols never contain NUL).
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t totals_[hw::kEventKindCount] = {};
};

/// Regression table between two profiles: rows whose `event` count changed,
/// ranked by |delta| descending (ties keep `after`-then-`before` row order,
/// so equally-built profiles render byte-identically). Used by the service
/// snapshot diff and the store's window-vs-window queries.
std::string render_diff(const Profile& before, const Profile& after,
                        hw::EventKind event, std::size_t top_n);

}  // namespace viprof::core
