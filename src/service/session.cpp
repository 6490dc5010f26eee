#include "service/session.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace viprof::service {

namespace {

/// The index a streamed file belongs to, when it is an epoch map: a file
/// named "map.*" or "omap.*" in a "<dir>/<pid>/" directory.
struct MapPath {
  std::string key;  // map_index_key() of the owning index
  bool object = false;
};

std::optional<MapPath> classify_map_path(const std::string& path) {
  const std::size_t last = path.rfind('/');
  if (last == std::string::npos || last == 0) return std::nullopt;
  const std::size_t prev = path.rfind('/', last - 1);
  const std::size_t begin = prev == std::string::npos ? 0 : prev + 1;
  if (begin >= last) return std::nullopt;
  for (std::size_t i = begin; i < last; ++i)
    if (path[i] < '0' || path[i] > '9') return std::nullopt;
  const std::string_view name = std::string_view(path).substr(last + 1);
  for (const bool object : {false, true}) {
    const std::string_view stem = object ? "omap." : "map.";
    if (name.substr(0, stem.size()) == stem)
      return MapPath{path.substr(0, last + 1 + stem.size()), object};
  }
  return std::nullopt;
}

}  // namespace

std::string map_index_key(const std::string& dir, hw::Pid pid, bool object_maps) {
  return dir + "/" + std::to_string(pid) + (object_maps ? "/omap." : "/map.");
}

ServerSession::ServerSession(std::string id, std::size_t queue_capacity,
                             std::size_t stripes, support::Telemetry* telemetry)
    : id_(std::move(id)), telemetry_(telemetry), queue_(queue_capacity) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) stripes_.push_back(std::make_unique<Stripe>());
  if (telemetry != nullptr) {
    ingest_mu_.attach(*telemetry);
    maps_mu_.attach(*telemetry);
    world_mu_.attach(*telemetry);
    for (auto& stripe : stripes_) stripe->mu.attach(*telemetry);
    symbols_.attach(*telemetry);
    queue_.instrument(&telemetry->gauge("service.queue.depth"),
                      &telemetry->histogram("service.queue.depth_hist", 0.0, 1.0, 64));
    // Registered up front so both read in every snapshot, zero or not.
    telemetry->counter("service.map_cache.hits");
    telemetry->counter("service.map_cache.misses");
  }
}

SessionStats ServerSession::stats() const {
  SessionStats out;
  out.frames = frames_.load(std::memory_order_relaxed);
  out.torn_frames = torn_frames_.load(std::memory_order_relaxed);
  out.files = files_.load(std::memory_order_relaxed);
  out.batches_enqueued = batches_enqueued_.load(std::memory_order_relaxed);
  out.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  out.batches_dropped = batches_dropped_.load(std::memory_order_relaxed);
  out.records_ingested = records_ingested_.load(std::memory_order_relaxed);
  out.records_dropped = records_dropped_.load(std::memory_order_relaxed);
  out.registrations = registrations_.load(std::memory_order_relaxed);
  out.registrations_rejected = registrations_rejected_.load(std::memory_order_relaxed);
  out.ended = ended_.load(std::memory_order_relaxed);
  return out;
}

core::RegisterStatus ServerSession::register_vm(const core::VmRegistration& reg) {
  core::RegisterStatus status;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    status = table_.add(reg);
  }
  if (status == core::RegisterStatus::kOk)
    registrations_.fetch_add(1, std::memory_order_relaxed);
  else
    registrations_rejected_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

bool ServerSession::deregister_vm(hw::Pid pid) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return table_.remove(pid);
}

std::uint64_t ServerSession::registration_version() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return table_.version();
}

void ServerSession::store_file(const std::string& path, std::string bytes) {
  files_.fetch_add(1, std::memory_order_relaxed);
  const std::optional<MapPath> map_path = classify_map_path(path);
  if (!map_path) {
    std::lock_guard<support::TracedMutex> lock(world_mu_);
    world_.write(path, std::move(bytes));
    return;
  }
  // Parse and salvage once, outside every lock. The file name carries the
  // epoch, so even a fully corrupt file registers its epoch as truncated,
  // exactly as the offline loaders do.
  core::CodeMapFile code;
  std::shared_ptr<const memprof::ObjectMapFile> object;
  if (map_path->object) {
    const auto hint = memprof::ObjectMapFile::epoch_from_path(path);
    object = std::make_shared<const memprof::ObjectMapFile>(
        memprof::ObjectMapFile::salvage(bytes, hint.value_or(0)).file);
    code = object->to_code_map();
  } else {
    const auto hint = core::CodeMapFile::epoch_from_path(path);
    code = core::CodeMapFile::salvage(bytes, hint.value_or(0)).file;
  }

  std::lock_guard<support::TracedMutex> lock(maps_mu_);
  MapIndex& index = indexes_[map_path->key];
  if (object) index.objects[path] = std::move(object);
  index.versions.add(path, std::move(code));
  // published_ only changes under maps_mu_, which we hold: reading it
  // here needs no ingest_mu_.
  auto versions = std::make_shared<MapVersions>(*published_);
  (*versions)[map_path->key] = index.versions.current();
  std::shared_ptr<const MapVersions> next = std::move(versions);
  {
    std::lock_guard<support::TracedMutex> publish(ingest_mu_);
    published_.swap(next);  // the previous table is released outside the lock
  }
  if (telemetry_ != nullptr) telemetry_->counter("service.map_cache.misses").inc();
}

core::VersionedCodeMapIndex::Version ServerSession::map_version(
    const std::string& key) const {
  std::lock_guard<support::TracedMutex> lock(ingest_mu_);
  const auto it = published_->find(key);
  return it == published_->end() ? nullptr : it->second;
}

const core::ArchiveResolver* ServerSession::resolver() {
  std::lock_guard<support::TracedMutex> lock(world_mu_);
  if (!resolver_ && world_.exists("archive/manifest")) {
    resolver_ = std::make_unique<core::ArchiveResolver>(
        world_, "archive", /*vm_aware=*/true, /*load_jit_maps=*/false);
  }
  return resolver_.get();
}

std::vector<std::unique_lock<support::TracedMutex>> ServerSession::lock_stripes() const {
  std::vector<std::unique_lock<support::TracedMutex>> locks;
  locks.reserve(stripes_.size());
  for (const auto& stripe : stripes_) locks.emplace_back(stripe->mu);
  return locks;
}

core::IdProfile ServerSession::merge_events(bool pending) const {
  core::IdProfileMerge merge;
  std::vector<const core::SeqProfile*> parts;
  for (std::size_t e = 0; e < hw::kEventKindCount; ++e) {
    parts.clear();
    for (const auto& stripe : stripes_)
      parts.push_back(pending ? &stripe->pending.events[e] : &stripe->event_profiles[e]);
    merge.add_group(parts);
  }
  return merge.take();
}

core::IdProfile ServerSession::merged() const {
  const auto locks = lock_stripes();
  return merge_events(false);
}

std::map<std::uint64_t, std::vector<const core::SeqProfile*>> ServerSession::epoch_folds(
    std::uint64_t since) const {
  std::map<std::uint64_t, std::vector<const core::SeqProfile*>> epochs;
  for (const auto& stripe : stripes_)
    for (auto it = stripe->epoch_profiles.lower_bound(since);
         it != stripe->epoch_profiles.end(); ++it)
      epochs[it->first].push_back(&it->second);
  return epochs;
}

core::IdProfile ServerSession::since_epoch(std::uint64_t since) const {
  const auto locks = lock_stripes();
  core::IdProfileMerge merge;
  for (const auto& [epoch, parts] : epoch_folds(since)) merge.add_group(parts);
  return merge.take();
}

std::map<std::uint64_t, core::Profile> ServerSession::epoch_profiles() const {
  const auto locks = lock_stripes();
  std::map<std::uint64_t, core::Profile> out;
  for (const auto& [epoch, parts] : epoch_folds(0)) {
    core::IdProfileMerge merge;
    merge.add_group(parts);
    out.emplace(epoch, merge.take().materialise(symbols_));
  }
  return out;
}

std::vector<core::CallArc> ServerSession::ranked_arcs(std::size_t top_n) const {
  const auto locks = lock_stripes();
  std::vector<const core::SeqCallGraph*> parts;
  for (const auto& stripe : stripes_) parts.push_back(&stripe->graph);
  return core::ranked_arcs(parts, symbols_, top_n);
}

void ServerSession::fold_object_sites(memprof::SiteTable& sites) const {
  std::vector<core::VmRegistration> regs;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    regs = table_.all();
  }
  // Registration order, then path order: what load_object_index yields.
  std::vector<std::pair<hw::Pid, std::shared_ptr<const memprof::ObjectMapFile>>> files;
  {
    std::lock_guard<support::TracedMutex> lock(maps_mu_);
    for (const core::VmRegistration& reg : regs) {
      if (reg.obj_map_dir.empty()) continue;
      const auto it = indexes_.find(map_index_key(reg.obj_map_dir, reg.pid, true));
      if (it == indexes_.end()) continue;
      for (const auto& [path, file] : it->second.objects) files.emplace_back(reg.pid, file);
    }
  }
  for (const auto& [pid, file] : files) sites.ingest(id_, pid, *file);
}

ServerSession::FlushDelta ServerSession::take_flush() {
  FlushDelta delta;
  core::IdProfile ids;
  std::uint64_t lo = ~0ull, hi = 0;
  {
    const auto locks = lock_stripes();
    // Canonical event order, same as merged_profile(): differently-timed
    // flushes of the same stream fold back to the same row order.
    ids = merge_events(true);
    for (const auto& stripe : stripes_) {
      lo = std::min(lo, stripe->pending.epoch_lo);
      hi = std::max(hi, stripe->pending.epoch_hi);
      delta.records += stripe->pending.records;
      delta.any = delta.any || stripe->pending.any;
      stripe->pending = {};
    }
  }
  if (lo <= hi) {
    delta.epoch_lo = lo;
    delta.epoch_hi = hi;
  }
  delta.profile = ids.materialise(symbols_);
  return delta;
}

void ServerSession::apply(std::uint64_t apply_seq, hw::EventKind event,
                          const core::BatchPartial& partial, std::uint64_t records) {
  Stripe& stripe = *stripes_[apply_seq % stripes_.size()];
  {
    std::lock_guard<support::TracedMutex> lock(stripe.mu);
    const std::size_t e = hw::event_index(event);
    core::SeqProfile* epoch_fold = nullptr;
    std::uint64_t fold_epoch = 0;
    for (const core::BatchPartial::Row& r : partial.rows) {
      stripe.event_profiles[e].fold(r.row);
      stripe.pending.events[e].fold(r.row);
      if (epoch_fold == nullptr || r.epoch != fold_epoch) {
        fold_epoch = r.epoch;
        epoch_fold = &stripe.epoch_profiles[r.epoch];
        stripe.pending.epoch_lo = std::min(stripe.pending.epoch_lo, r.epoch);
        stripe.pending.epoch_hi = std::max(stripe.pending.epoch_hi, r.epoch);
      }
      epoch_fold->fold(r.row);
    }
    for (const core::ArcRow& arc : partial.arcs) stripe.graph.fold(arc);
    stripe.pending.records += records;
    if (!partial.rows.empty()) stripe.pending.any = true;
  }
  records_ingested_.fetch_add(records, std::memory_order_relaxed);
  batches_applied_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace viprof::service
