// Server-side state of one streamed profiling session.
//
// A session is one client's world: the files it streamed in (archive
// manifest and boot maps in a private VFS; epoch code and object maps in
// per-VM versioned indexes), its registration table, the per-event stream
// parsers with their sequence watermarks, a bounded batch queue toward the
// ingest workers, and the rolling aggregates. Locks:
//   ingest_mu_   — parsers, published map versions, enqueue sequencing
//   maps_mu_     — the epoch-map indexes (append path); held while
//                  publishing under ingest_mu_, never taken inside it
//   world_mu_    — the VFS and the lazily built resolver (receiver)
//   stripe locks — one per aggregation stripe (workers + queries)
//   symbols_     — the symbol dictionary's own shared lock (workers)
// Ingest workers take no session lock but their stripe's: a batch carries
// the resolver and the map versions it resolves against.
//
// Aggregation is striped and keyed on symbol ids (DESIGN.md §14): workers
// intern (image, symbol) pairs in the session's SymbolDict, and a batch
// lands on stripe (apply_seq % stripes) and folds into that stripe's
// order-recovering id-keyed accumulators under the stripe's own lock, so
// concurrent workers only collide when their sequence numbers share a
// stripe. There is no reorder buffer and no apply-order requirement —
// every row remembers its first occurrence (seq, pos), and queries merge
// the stripes in id space, sort that provenance back into the exact serial
// order, and materialise strings only for the rows they return. The
// online answer stays byte-identical to offline viprof_report at any
// thread count, stripe count and worker interleaving. Every stripe lock
// shares the TracedMutex name "service.session.agg", so the PR 7
// contention evidence reads on the same key before and after.
//
// Counters (SessionStats) are plain atomics: stats() composes a snapshot
// without stopping ingest.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/archive.hpp"
#include "core/callgraph.hpp"
#include "core/code_map.hpp"
#include "core/registration.hpp"
#include "core/report.hpp"
#include "core/sample_log.hpp"
#include "core/striped_agg.hpp"
#include "memprof/object_map.hpp"
#include "memprof/site_table.hpp"
#include "support/arena.hpp"
#include "support/bounded_queue.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::service {

/// Key of one VM's epoch-map index: the path prefix its maps share, as
/// CodeMapIndex::load and memprof::load_object_index list them —
/// "<dir>/<pid>/map." for code maps, "<dir>/<pid>/omap." for object maps.
std::string map_index_key(const std::string& dir, hw::Pid pid, bool object_maps);

/// The published version of every epoch-map index of a session, by key.
using MapVersions = std::map<std::string, core::VersionedCodeMapIndex::Version>;

/// One parsed sample batch queued for ingest. `maps` pins the map index
/// versions published before this batch was enqueued — the worker resolves
/// against exactly those, with `resolver` as it stood at enqueue.
/// Samples are decoded straight into the batch's arena (one bump-allocated
/// block chain per batch, recycled by the server after apply) — the wire
/// payload is never copied into per-frame heap vectors.
struct Batch {
  hw::EventKind event = hw::EventKind::kGlobalPowerEvents;
  support::ArenaVector<core::LoggedSample> samples;
  std::unique_ptr<support::Arena> arena;  // owns the samples' storage
  std::uint64_t apply_seq = 0;
  std::shared_ptr<const MapVersions> maps;
  /// nullptr when no archive manifest had been streamed at enqueue; owned
  /// by the session, which outlives the batch.
  const core::ArchiveResolver* resolver = nullptr;
};

struct SessionStats {
  std::uint64_t frames = 0;
  std::uint64_t torn_frames = 0;      // wire framing damage (decoder skips)
  std::uint64_t files = 0;
  std::uint64_t batches_enqueued = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t batches_dropped = 0;  // overload drops (kDropNewest / fault)
  std::uint64_t records_ingested = 0;
  std::uint64_t records_dropped = 0;
  std::uint64_t registrations = 0;
  std::uint64_t registrations_rejected = 0;
  bool ended = false;
};

class ProfileServer;

class ServerSession {
 public:
  /// `stripes` aggregation stripes (clamped to >= 1). `telemetry` (may be
  /// null) hosts this session's lock contention metrics, queue-depth
  /// instrumentation and map-index counters; the server passes its own hub
  /// so every session folds into one observable registry.
  ServerSession(std::string id, std::size_t queue_capacity, std::size_t stripes = 1,
                support::Telemetry* telemetry = nullptr);

  const std::string& id() const { return id_; }

  std::size_t stripe_count() const { return stripes_.size(); }

  /// Trace context minted (or received over the wire) for this session;
  /// every span the server records on its behalf carries this id.
  void set_trace(std::uint64_t trace_id) {
    trace_id_.store(trace_id, std::memory_order_relaxed);
  }
  std::uint64_t trace() const { return trace_id_.load(std::memory_order_relaxed); }

  SessionStats stats() const;

  /// Registered VMs (wire kRegisterVm frames), with hardening semantics.
  core::RegisterStatus register_vm(const core::VmRegistration& reg);
  bool deregister_vm(hw::Pid pid);
  std::uint64_t registration_version() const;

  /// Stores a streamed file. An epoch code or object map ("<dir>/<pid>/
  /// map.<E>" or ".../omap.<E>") is parsed and salvaged once, here,
  /// appended to its VM's versioned index, and the new version published
  /// for the next batch to pin; any other file goes to the session world.
  void store_file(const std::string& path, std::string bytes);

  /// The published version of the index under `key` (see map_index_key),
  /// or nullptr when no map with that prefix has been streamed.
  core::VersionedCodeMapIndex::Version map_version(const std::string& key) const;

  /// The session's resolver, built from the streamed archive manifest on
  /// first use (epoch maps stay external — workers resolve through the
  /// versions their batch pinned). nullptr until the manifest has been
  /// streamed.
  const core::ArchiveResolver* resolver();

  /// The session's symbol dictionary: workers intern into it, queries
  /// materialise or render id-space profiles against it.
  core::SymbolDict& symbols() { return symbols_; }
  const core::SymbolDict& symbols() const { return symbols_; }

  /// Combined rolling profile in id space, per-event profiles merged in
  /// canonical event order (matches offline single-profile aggregation row
  /// order).
  core::IdProfile merged() const;
  core::Profile merged_profile() const { return merged().materialise(symbols_); }

  /// Merge of the per-epoch profiles with epoch >= `since`, epochs in
  /// ascending order.
  core::IdProfile since_epoch(std::uint64_t since) const;
  core::Profile profile_since_epoch(std::uint64_t since) const {
    return since_epoch(since).materialise(symbols_);
  }

  /// The rolling cross-layer call graph's arcs ranked by count (ties in
  /// first-occurrence order), the first `top_n` of them.
  std::vector<core::CallArc> ranked_arcs(std::size_t top_n = SIZE_MAX) const;

  /// Folds the allocation-site table derived from every streamed object
  /// map of every registered VM into `sites` (additive across sessions;
  /// per-(pid, obj_id) dedup makes re-folds idempotent). Reads the maps as
  /// parsed on arrival.
  void fold_object_sites(memprof::SiteTable& sites) const;

  /// Everything applied since the previous take_flush(): the increment the
  /// persistent profile store ingests as one interval (DESIGN.md §11).
  struct FlushDelta {
    core::Profile profile;  // per-event deltas merged in canonical event order
    std::uint64_t epoch_lo = 0, epoch_hi = 0;  // epochs seen in the delta
    std::uint64_t records = 0;
    bool any = false;
  };

  /// Returns and clears the accumulated delta. A batch folds into exactly
  /// one stripe's pending state, so every batch lands in exactly one
  /// flush interval; consecutive intervals merged back together reproduce
  /// the session's full profile exactly (order recovery makes the cut
  /// points irrelevant).
  FlushDelta take_flush();

  /// Copies of the per-epoch profiles (snapshot serialisation), each in
  /// recovered serial order.
  std::map<std::uint64_t, core::Profile> epoch_profiles() const;

  std::uint64_t ingested_records() const {
    return records_ingested_.load(std::memory_order_relaxed);
  }

  /// Wire-level damage charged to this session (decoder skips, mid-frame
  /// disconnects).
  void count_torn_frames(std::uint64_t n) {
    torn_frames_.fetch_add(n, std::memory_order_relaxed);
  }

  void mark_ended() { ended_.store(true, std::memory_order_relaxed); }
  bool ended() const { return ended_.load(std::memory_order_relaxed); }

 private:
  friend class ProfileServer;

  /// One aggregation stripe: order-recovering id-keyed accumulators plus
  /// the pending flush delta, under the stripe's own lock. Epoch folds stay
  /// sparse: one map entry per epoch the stripe has seen.
  struct Stripe {
    mutable support::TracedMutex mu{"service.session.agg"};
    core::SeqProfile event_profiles[hw::kEventKindCount];
    std::map<std::uint64_t, core::SeqProfile> epoch_profiles;
    core::SeqCallGraph graph;
    struct Pending {  // flush accumulation since the last take_flush()
      core::SeqProfile events[hw::kEventKindCount];
      std::uint64_t epoch_lo = ~0ull, epoch_hi = 0;  // lo > hi: none
      std::uint64_t records = 0;
      bool any = false;
    } pending;
  };

  /// Folds a worker's resolved batch — `records` samples of `event` — into
  /// stripe (apply_seq % stripes). Called by workers under no other lock;
  /// any order, any interleaving.
  void apply(std::uint64_t apply_seq, hw::EventKind event, const core::BatchPartial& partial,
             std::uint64_t records);

  /// Every stripe locked, in index order (a worker holds at most one, so
  /// the order cannot deadlock): one consistent cut for a query to merge.
  std::vector<std::unique_lock<support::TracedMutex>> lock_stripes() const;
  /// The per-event folds (the pending ones when `pending`) of every
  /// stripe, merged in canonical event order. Caller holds lock_stripes().
  core::IdProfile merge_events(bool pending) const;
  /// Every stripe's epoch folds with epoch >= `since`, by epoch. Caller
  /// holds lock_stripes().
  std::map<std::uint64_t, std::vector<const core::SeqProfile*>> epoch_folds(
      std::uint64_t since) const;

  const std::string id_;
  std::atomic<std::uint64_t> trace_id_{0};

  support::Telemetry* const telemetry_;

  // ---- receiver side (ingest_mu_)
  mutable support::TracedMutex ingest_mu_{"service.session.ingest"};
  core::SampleStreamParser parsers_[hw::kEventKindCount];
  /// Replaced (never mutated) on every map arrival; batches share it.
  std::shared_ptr<const MapVersions> published_ = std::make_shared<const MapVersions>();
  std::uint64_t next_enqueue_seq_ = 0;

  // ---- epoch maps (maps_mu_). The lock keeps the name of the code-map
  // cache it replaced, so contention readings stay comparable.
  mutable support::TracedMutex maps_mu_{"service.map_cache"};
  struct MapIndex {
    core::VersionedCodeMapIndex versions;
    /// Object maps only: the files as parsed, by path (memprof site folds).
    std::map<std::string, std::shared_ptr<const memprof::ObjectMapFile>> objects;
  };
  std::map<std::string, MapIndex> indexes_;  // by map_index_key()

  // ---- streamed world (world_mu_)
  mutable support::TracedMutex world_mu_{"service.session.world"};
  os::Vfs world_;
  std::unique_ptr<core::ArchiveResolver> resolver_;

  // ---- registrations (own lock; consulted from receiver and queries)
  mutable std::mutex reg_mu_;
  core::RegistrationTable table_;

  // ---- ingest queue (self-locked)
  support::BoundedQueue<Batch> queue_;

  // ---- aggregates (per-stripe locks) and the symbols they are keyed on
  std::vector<std::unique_ptr<Stripe>> stripes_;
  core::SymbolDict symbols_{"service.session.symbols"};

  // ---- counters (lock-free)
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> torn_frames_{0};
  std::atomic<std::uint64_t> files_{0};
  std::atomic<std::uint64_t> batches_enqueued_{0};
  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> batches_dropped_{0};
  std::atomic<std::uint64_t> records_ingested_{0};
  std::atomic<std::uint64_t> records_dropped_{0};
  std::atomic<std::uint64_t> registrations_{0};
  std::atomic<std::uint64_t> registrations_rejected_{0};
  std::atomic<bool> ended_{false};
};

}  // namespace viprof::service
