#include "core/callgraph.hpp"

#include "support/format.hpp"

namespace viprof::core {

std::size_t CallGraph::arc_slot(const CallArc& like) {
  std::string key;
  key.reserve(like.caller_image.size() + like.caller_symbol.size() +
              like.callee_image.size() + like.callee_symbol.size() + 3);
  key += like.caller_image;
  key += '\0';
  key += like.caller_symbol;
  key += '\0';
  key += like.callee_image;
  key += '\0';
  key += like.callee_symbol;
  const auto [it, inserted] = index_.try_emplace(std::move(key), arcs_.size());
  if (inserted) {
    CallArc arc = like;
    arc.count = 0;
    arcs_.push_back(std::move(arc));
  }
  return it->second;
}

void CallGraph::add(const LoggedSample& sample) {
  if (sample.caller_pc == 0) return;
  const Resolution callee = resolver_->resolve(sample);
  // The caller is user code in the same process (one-level unwind).
  const Resolution caller =
      resolver_->resolve_pc(sample.caller_pc, hw::CpuMode::kUser, sample.pid, sample.epoch);
  add_resolved(caller, callee);
}

void CallGraph::add_resolved(const Resolution& caller, const Resolution& callee) {
  CallArc like;
  like.caller_image = caller.image;
  like.caller_symbol = caller.symbol;
  like.callee_image = callee.image;
  like.callee_symbol = callee.symbol;
  like.caller_domain = caller.domain;
  like.callee_domain = callee.domain;
  ++arc_for(like).count;
  ++samples_;
}

void CallGraph::merge(const CallGraph& other) {
  samples_ += other.samples_;
  for (const CallArc& src : other.arcs_) {
    arc_for(src).count += src.count;
  }
}

RankedView<CallArc> CallGraph::ranked() const {
  return RankedView<CallArc>(arcs_, rank_indices(arcs_.size(), arcs_.size(),
                                                 [&](std::uint32_t i) { return arcs_[i].count; }));
}

std::vector<CallArc> CallGraph::cross_layer_arcs() const {
  std::vector<CallArc> out;
  for (const CallArc& arc : ranked())
    if (arc.crosses_layers()) out.push_back(arc);
  return out;
}

std::string render_arcs(const std::vector<CallArc>& arcs) {
  support::TextTable table({"Samples", "Caller", "->", "Callee"});
  for (const CallArc& arc : arcs)
    table.add_row({std::to_string(arc.count), arc.caller_image + ":" + arc.caller_symbol,
                   "->", arc.callee_image + ":" + arc.callee_symbol});
  return table.render();
}

std::string CallGraph::render(std::size_t top_n) const {
  std::vector<CallArc> top;
  for (const std::uint32_t i : rank_indices(arcs_.size(), top_n, [&](std::uint32_t a) {
         return arcs_[a].count;
       }))
    top.push_back(arcs_[i]);
  return render_arcs(top);
}

}  // namespace viprof::core
