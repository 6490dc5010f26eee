#include "core/fsck.hpp"

#include <set>

#include "core/code_map.hpp"
#include "core/sample_log.hpp"
#include "hw/event.hpp"
#include "support/check.hpp"
#include "support/format.hpp"

namespace viprof::core {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

// ------------------------------------------------------------ sample logs

std::vector<std::string> sample_log_files(const os::Vfs& in, const FsckOptions& opts) {
  std::vector<std::string> paths;
  for (hw::EventKind event : hw::kAllEventKinds) {
    std::string path = SampleLogWriter::path_for(opts.samples_dir, event);
    if (in.exists(path)) paths.push_back(std::move(path));
  }
  return paths;
}

FsckFile check_sample_log(const os::Vfs& in, const std::string& path,
                          const FsckOptions& opts, os::Vfs* out) {
  hw::EventKind event = hw::kAllEventKinds[0];
  for (hw::EventKind e : hw::kAllEventKinds)
    if (SampleLogWriter::path_for(opts.samples_dir, e) == path) event = e;
  SampleLogReadStatus st;
  const auto samples = SampleLogReader::read_checked(in, opts.samples_dir, event, st);

  FsckFile f;
  f.intact = st.clean();
  f.salvaged = st.valid;
  f.counts = {st.valid, st.salvaged, st.discarded_lines, st.missing_records,
              st.duplicate_records};
  f.detail = path + ' ' + (st.clean() ? "clean" : "CORRUPT") + ": " + u64(st.valid) +
             " valid";
  if (!st.clean()) {
    f.detail += ", " + u64(st.salvaged) + " salvaged, " + u64(st.discarded_lines) +
                " line(s) discarded (" + u64(st.discarded_bytes) + " bytes)";
  }
  if (st.missing_records != 0)
    f.detail += ", " + u64(st.missing_records) + " missing (sequence gaps)";
  if (st.duplicate_records != 0)
    f.detail += ", " + u64(st.duplicate_records) + " duplicate(s) dropped";
  f.detail += '\n';

  if (out != nullptr) {
    // Re-framed from the verified records: the recovered log is clean, and
    // one that kept nothing is left out.
    SampleLogWriter writer(*out, opts.samples_dir);
    for (const LoggedSample& s : samples) writer.append(event, s);
    writer.flush();
  }
  return f;
}

std::string sample_log_summary(const FsckReport& r) {
  return u64(r.count("fsck.samples.valid")) + " valid sample(s) (" +
         u64(r.count("fsck.samples.salvaged")) + " salvaged), " +
         u64(r.count("fsck.samples.discarded_lines")) + " discarded, " +
         u64(r.count("fsck.samples.missing")) + " missing, " +
         u64(r.count("fsck.samples.duplicates")) + " duplicate(s)";
}

// ------------------------------------------------------------ code maps

FsckFile check_code_map(const os::Vfs& in, const std::string& path, const FsckOptions&,
                        os::Vfs* out) {
  const auto epoch_hint = CodeMapFile::epoch_from_path(path);
  const CodeMapFile::Recovery rec =
      CodeMapFile::salvage(*in.read(path), epoch_hint.value_or(0));
  FsckFile f;
  f.intact = rec.intact;
  f.salvaged = rec.file.entries.size();
  if (rec.header_ok) f.declared = rec.entries_expected;
  f.counts = {rec.intact ? 0 : f.salvaged};
  if (!rec.intact) {
    f.detail = path + " CORRUPT: salvaged " + u64(f.salvaged) + " of " +
               u64(rec.entries_expected) + " entries (epoch " + u64(rec.file.epoch) +
               (rec.header_ok ? ")" : ", epoch from file name)") + '\n';
  }
  // Rewritten as the salvaged prefix: the truncated marker survives, so
  // resolution against the recovery tree still refuses to walk past it.
  if (out != nullptr) out->write(path, rec.file.serialize());
  return f;
}

std::string code_map_summary(const FsckReport& r) {
  return u64(r.count("fsck.maps.intact")) + " map(s) intact, " +
         u64(r.count("fsck.maps.truncated")) + " truncated (" +
         u64(r.count("fsck.maps.entries_salvaged")) + " entries salvaged)";
}

}  // namespace

std::vector<std::string> fsck_files_named(const os::Vfs& in, std::string_view prefix) {
  std::vector<std::string> paths;
  for (const std::string& path : in.list("")) {
    const std::size_t name = path.rfind('/') + 1;  // 0 when there is no '/'
    if (path.compare(name, prefix.size(), prefix) == 0) paths.push_back(path);
  }
  return paths;
}

FsckHandler sample_log_fsck_handler() {
  return {sample_log_files, check_sample_log, "", "", "fsck.logs.unrecoverable",
          {"fsck.samples.valid", "fsck.samples.salvaged", "fsck.samples.discarded_lines",
           "fsck.samples.missing", "fsck.samples.duplicates"},
          sample_log_summary};
}

FsckHandler code_map_fsck_handler() {
  return {[](const os::Vfs& in, const FsckOptions&) {
            return fsck_files_named(in, "map.");
          },
          check_code_map,
          "fsck.maps.intact", "fsck.maps.truncated", "fsck.maps.unrecoverable",
          {"fsck.maps.entries_salvaged"},
          code_map_summary};
}

FsckReport fsck_tree(const os::Vfs& in, os::Vfs* out, support::Telemetry& telemetry,
                     const FsckOptions& opts, const std::vector<FsckHandler>& handlers) {
  if (opts.write_recovery) VIPROF_CHECK(out != nullptr);
  os::Vfs* recovery = opts.write_recovery ? out : nullptr;
  FsckReport report;
  const auto bump = [&](const std::string& counter, std::uint64_t n) {
    if (!counter.empty()) report.counts[counter] += n;
  };

  bool any_dead = false;
  std::set<std::string> handled;
  for (const FsckHandler& h : handlers) {
    // Every declared counter is registered, zero or not.
    for (const std::string* c : {&h.intact_counter, &h.damaged_counter, &h.dead_counter})
      bump(*c, 0);
    for (const std::string& c : h.counters) bump(c, 0);

    for (const std::string& path : h.files(in, opts)) {
      handled.insert(path);
      const FsckFile f = h.check(in, path, opts, recovery);
      VIPROF_CHECK(f.counts.size() == h.counters.size());
      // The one unrecoverable rule: damaged, nothing salvaged, and no
      // readable header proving there was nothing to salvage.
      const bool dead = !f.intact && f.salvaged == 0 && f.declared.value_or(1) != 0;
      bump(f.intact ? h.intact_counter : h.damaged_counter, 1);
      if (dead) bump(h.dead_counter, 1);
      for (std::size_t i = 0; i < f.counts.size(); ++i) bump(h.counters[i], f.counts[i]);
      report.corrupt = report.corrupt || !f.intact;
      any_dead = any_dead || dead;
      if (opts.verbose) report.details += f.detail;
    }
  }

  // Everything no handler owns (manifest, RVM.map, reports) copies verbatim.
  if (recovery != nullptr) {
    for (const std::string& path : in.list(""))
      if (handled.count(path) == 0) recovery->write(path, *in.read(path));
  }

  report.verdict = !report.corrupt ? FsckVerdict::kClean
                   : any_dead      ? FsckVerdict::kUnrecoverable
                                   : FsckVerdict::kSalvaged;

  for (const auto& [counter, n] : report.counts) telemetry.counter(counter).inc(n);
  telemetry.gauge("fsck.verdict").set(static_cast<double>(report.verdict));
  report.metrics = telemetry.snapshot();

  std::vector<std::string> parts;
  for (const FsckHandler& h : handlers) {
    std::string part = h.summary(report);
    if (!part.empty()) parts.push_back(std::move(part));
  }
  report.summary =
      std::string(to_string(report.verdict)) + ": " + support::join(parts, "; ");
  return report;
}

}  // namespace viprof::core
