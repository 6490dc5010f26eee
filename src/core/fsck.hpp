// Integrity scan of an exported session tree — the library behind
// viprof_fsck (the e2fsck analogue for a sample tree).
//
// fsck_tree walks a table of per-format handlers (DESIGN.md §7): core's
// sample logs and epoch code maps, plus memprof's object maps
// (memprof/fsck.hpp; core cannot depend on memprof). Findings go to the
// self-telemetry registry (fsck.* counters, DESIGN.md §8), and the tree
// gets one verdict:
//
//   kClean         — every artifact verified end to end;
//   kSalvaged      — damage found, but every damaged artifact yielded at
//                    least part of its content (degraded, usable);
//   kUnrecoverable — some damaged artifact yielded nothing, and its header
//                    (if any) does not prove it had nothing to yield: a
//                    sample log with no verifiable record, a map with no
//                    salvageable entry.
//
// The verdict values double as the viprof_fsck exit codes; usage errors
// exit with kFsckExitUsage.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "os/vfs.hpp"
#include "support/telemetry.hpp"

namespace viprof::core {

enum class FsckVerdict : std::uint8_t { kClean = 0, kSalvaged = 1, kUnrecoverable = 2 };

inline const char* to_string(FsckVerdict v) {
  switch (v) {
    case FsckVerdict::kClean:         return "clean";
    case FsckVerdict::kSalvaged:      return "salvaged";
    case FsckVerdict::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

/// viprof_fsck exit codes: the verdict value verbatim, plus usage errors.
inline constexpr int kFsckExitClean = 0;
inline constexpr int kFsckExitSalvaged = 1;
inline constexpr int kFsckExitUnrecoverable = 2;
inline constexpr int kFsckExitUsage = 3;

struct FsckOptions {
  std::string samples_dir = "samples";
  /// Emit the recoverable subset into `out` (sample logs re-framed from
  /// their verified records, damaged maps rewritten as their salvaged
  /// prefix, everything else copied verbatim).
  bool write_recovery = false;
  /// Per-file findings appended to FsckReport::details.
  bool verbose = true;
};

/// One file's findings, as its handler reports them.
struct FsckFile {
  bool intact = true;
  /// Content units recovered (records, entries), and the count the file's
  /// header declares — nullopt when it has no readable count. A damaged
  /// file is a total loss when it recovered nothing and its header does
  /// not prove there was nothing to recover.
  std::uint64_t salvaged = 0;
  std::optional<std::uint64_t> declared;
  /// Increments of the handler's counters, in FsckHandler::counters order.
  std::vector<std::uint64_t> counts;
  std::string detail;  // newline-terminated finding, or empty
};

struct FsckReport;

/// One file format fsck knows. `files` lists the format's paths in `in`,
/// in report order; `check` verifies one and, when `out` is non-null,
/// writes its recovered form there (writing nothing leaves it out of the
/// recovery tree). Every listed path counts as handled; the rest of the
/// tree is copied verbatim.
struct FsckHandler {
  std::vector<std::string> (*files)(const os::Vfs& in, const FsckOptions& opts);
  FsckFile (*check)(const os::Vfs& in, const std::string& path, const FsckOptions& opts,
                    os::Vfs* out);
  /// fsck.* counters: per intact / damaged / unrecoverable file (empty
  /// name = not counted), then the handler's own, summed over files.
  std::string intact_counter;
  std::string damaged_counter;
  std::string dead_counter;
  std::vector<std::string> counters;
  /// This format's part of the one-line summary; empty to leave it out.
  std::string (*summary)(const FsckReport& report);
};

struct FsckReport {
  FsckVerdict verdict = FsckVerdict::kClean;
  bool corrupt = false;  // any damage at all (verdict != kClean)

  /// This scan's total of every fsck.* counter the handlers declare.
  std::map<std::string, std::uint64_t, std::less<>> counts;
  std::uint64_t count(std::string_view counter) const {
    const auto it = counts.find(counter);
    return it == counts.end() ? 0 : it->second;
  }

  std::string details;  // per-file findings (verbose mode)
  std::string summary;  // one-line verdict summary

  /// Registry view of the findings above (fsck.* namespace), for
  /// viprof_stat and the tests.
  support::TelemetrySnapshot metrics;
};

/// Paths in `in` whose file name starts with `prefix`, in listing order.
std::vector<std::string> fsck_files_named(const os::Vfs& in, std::string_view prefix);

/// The per-event sample logs under opts.samples_dir.
FsckHandler sample_log_fsck_handler();
/// The epoch code maps (`map.<epoch>` files) anywhere in the tree.
FsckHandler code_map_fsck_handler();

/// Scans the tree in `in` with `handlers`, in order. When
/// opts.write_recovery, the recoverable subset is written into `out` (must
/// be non-null then). Findings are reported through `telemetry` (fsck.*
/// counters) and mirrored in the returned report.
FsckReport fsck_tree(const os::Vfs& in, os::Vfs* out, support::Telemetry& telemetry,
                     const FsckOptions& opts = {},
                     const std::vector<FsckHandler>& handlers = {
                         sample_log_fsck_handler(), code_map_fsck_handler()});

}  // namespace viprof::core
