// Cross-layer call-graph profiling (paper Section 4.2: "VIProf also extends
// the call graph functionality of Oprofile to include call sequence
// profiles across layers").
//
// Each sample optionally carries a one-level return address; arcs aggregate
// (caller symbol → callee symbol) pairs after both endpoints are resolved —
// so an arc can cross layers: a JIT.App method calling into libc, a JIT
// method triggering a kernel path, etc.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "core/resolver.hpp"
#include "core/sample_log.hpp"
#include "hw/event.hpp"

namespace viprof::core {

struct CallArc {
  std::string caller_image;
  std::string caller_symbol;
  std::string callee_image;
  std::string callee_symbol;
  SampleDomain caller_domain = SampleDomain::kUnknown;
  SampleDomain callee_domain = SampleDomain::kUnknown;
  std::uint64_t count = 0;

  /// True when caller and callee live in different stack layers.
  bool crosses_layers() const { return caller_domain != callee_domain; }
};

class CallGraph {
 public:
  /// A graph fed through add_resolved() only, with both endpoints already
  /// resolved by the caller.
  CallGraph() = default;

  explicit CallGraph(const Resolver& resolver) : resolver_(&resolver) {}

  const Resolver& resolver() const { return *resolver_; }

  /// Accounts one sample; samples without a caller PC are ignored.
  /// Requires the resolver-taking constructor.
  void add(const LoggedSample& sample);

  /// Accounts one already-resolved (caller → callee) pair; works on
  /// resolver-less graphs. Callers skip samples without a caller PC to
  /// match add()'s accounting.
  void add_resolved(const Resolution& caller, const Resolution& callee);

  /// Adds every arc (and the sample count) of `other` into this graph.
  /// Shard-order merging reproduces the serial arc order, as with
  /// Profile::merge.
  void merge(const CallGraph& other);

  /// Arcs ranked by count (descending, ties in insertion order).
  RankedView<CallArc> ranked() const;

  /// Only arcs whose endpoints are in different domains.
  std::vector<CallArc> cross_layer_arcs() const;

  std::uint64_t total_arcs() const { return arcs_.size(); }
  std::uint64_t total_samples() const { return samples_; }
  const std::vector<CallArc>& arcs() const { return arcs_; }

  std::string render(std::size_t top_n) const;

 private:
  std::size_t arc_slot(const CallArc& like);
  CallArc& arc_for(const CallArc& like) { return arcs_[arc_slot(like)]; }

  const Resolver* resolver_ = nullptr;
  std::vector<CallArc> arcs_;
  /// NUL-joined endpoint names -> index into arcs_.
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t samples_ = 0;
};

/// The table CallGraph::render prints, over `arcs` as given (already
/// ranked and cut).
std::string render_arcs(const std::vector<CallArc>& arcs);

}  // namespace viprof::core
