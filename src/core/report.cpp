#include "core/report.hpp"

#include <algorithm>

#include "support/format.hpp"

namespace viprof::core {

const char* event_column_title(hw::EventKind event) {
  switch (event) {
    case hw::EventKind::kGlobalPowerEvents: return "Time %";
    case hw::EventKind::kBsqCacheReference: return "Dmiss %";
    case hw::EventKind::kInstrRetired:      return "Instr %";
    case hw::EventKind::kItlbMiss:          return "ITLB %";
    case hw::EventKind::kBranchMispredict:  return "BrMiss %";
    case hw::EventKind::kObjDmiss:          return "ObjDmiss %";
  }
  return "?";
}

std::size_t Profile::row_slot(const std::string& image, const std::string& symbol,
                              SampleDomain domain) {
  std::string key;
  key.reserve(image.size() + symbol.size() + 1);
  key += image;
  key += '\0';
  key += symbol;
  const auto [it, inserted] = index_.try_emplace(std::move(key), rows_.size());
  if (inserted) {
    ProfileRow row;
    row.image = image;
    row.symbol = symbol;
    row.domain = domain;
    rows_.push_back(std::move(row));
  }
  return it->second;
}

std::size_t Profile::row_index(const Resolution& res) {
  return row_slot(res.image, res.symbol, res.domain);
}

void Profile::add(hw::EventKind event, const Resolution& res, std::uint64_t count) {
  totals_[hw::event_index(event)] += count;
  row_for(res.image, res.symbol, res.domain).counts[hw::event_index(event)] += count;
}

void Profile::add_row(const std::string& image, const std::string& symbol,
                      SampleDomain domain,
                      const std::uint64_t (&counts)[hw::kEventKindCount]) {
  ProfileRow& dst = row_for(image, symbol, domain);
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) {
    totals_[i] += counts[i];
    dst.counts[i] += counts[i];
  }
}

void Profile::merge(const Profile& other) {
  // Totals are the sums of the row counts, so adding the rows adds them.
  for (const ProfileRow& src : other.rows_) add_row(src.image, src.symbol, src.domain, src.counts);
}

double Profile::percent(const ProfileRow& row, hw::EventKind event) const {
  return percent_of(row.count(event), totals_[hw::event_index(event)]);
}

RankedView<ProfileRow> Profile::ranked(hw::EventKind primary) const {
  return RankedView<ProfileRow>(
      rows_, rank_indices(rows_.size(), rows_.size(),
                          [&](std::uint32_t i) { return rows_[i].count(primary); }));
}

std::uint64_t Profile::domain_total(SampleDomain domain, hw::EventKind event) const {
  std::uint64_t total = 0;
  for (const ProfileRow& row : rows_)
    if (row.domain == domain) total += row.count(event);
  return total;
}

const ProfileRow* Profile::find(const std::string& image,
                                const std::string& symbol) const {
  std::string key;
  key.reserve(image.size() + symbol.size() + 1);
  key += image;
  key += '\0';
  key += symbol;
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &rows_[it->second];
}

std::string render_rows(const std::vector<hw::EventKind>& events,
                        const std::uint64_t (&totals)[hw::kEventKindCount],
                        const std::vector<ProfileRow>& rows) {
  std::vector<std::string> headers;
  for (hw::EventKind e : events) headers.push_back(event_column_title(e));
  headers.push_back("Image name");
  headers.push_back("Symbol name");
  support::TextTable table(std::move(headers));
  for (const ProfileRow& row : rows) {
    std::vector<std::string> cells;
    for (hw::EventKind e : events)
      cells.push_back(support::fixed(percent_of(row.count(e), totals[hw::event_index(e)]), 4));
    cells.push_back(row.image);
    cells.push_back(row.symbol);
    table.add_row(std::move(cells));
  }
  return table.render();
}

std::string Profile::render(const std::vector<hw::EventKind>& events,
                            std::size_t top_n) const {
  const hw::EventKind primary =
      events.empty() ? hw::EventKind::kGlobalPowerEvents : events[0];
  std::vector<ProfileRow> top;
  for (const std::uint32_t i : rank_indices(rows_.size(), top_n, [&](std::uint32_t r) {
         return rows_[r].count(primary);
       }))
    top.push_back(rows_[i]);
  return render_rows(events, totals_, top);
}

std::string render_diff(const Profile& before, const Profile& after,
                        hw::EventKind event, std::size_t top_n) {
  struct Mover {
    std::int64_t delta;
    std::uint64_t from, to;
    const ProfileRow* row;
  };
  std::vector<Mover> movers;
  for (const ProfileRow& row : after.rows()) {
    const ProfileRow* prev = before.find(row.image, row.symbol);
    const std::uint64_t from = prev ? prev->count(event) : 0;
    const std::uint64_t to = row.count(event);
    if (from != to)
      movers.push_back({static_cast<std::int64_t>(to) - static_cast<std::int64_t>(from),
                        from, to, &row});
  }
  for (const ProfileRow& row : before.rows()) {
    if (after.find(row.image, row.symbol) != nullptr) continue;
    const std::uint64_t from = row.count(event);
    if (from != 0)
      movers.push_back({-static_cast<std::int64_t>(from), from, 0, &row});
  }
  std::stable_sort(movers.begin(), movers.end(), [](const Mover& x, const Mover& y) {
    const std::int64_t ax = x.delta < 0 ? -x.delta : x.delta;
    const std::int64_t ay = y.delta < 0 ? -y.delta : y.delta;
    return ax > ay;
  });

  support::TextTable table({"Delta", "Before", "After", "Image", "Symbol"});
  std::size_t emitted = 0;
  for (const Mover& m : movers) {
    if (emitted++ >= top_n) break;
    table.add_row({(m.delta > 0 ? "+" : "") + std::to_string(m.delta),
                   std::to_string(m.from), std::to_string(m.to), m.row->image,
                   m.row->symbol});
  }
  return table.render();
}

}  // namespace viprof::core
