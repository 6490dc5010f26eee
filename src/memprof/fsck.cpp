#include "memprof/fsck.hpp"

#include <algorithm>

#include "memprof/object_map.hpp"

namespace viprof::memprof {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

core::FsckFile check_object_map(const os::Vfs& in, const std::string& path,
                                const core::FsckOptions&, os::Vfs* out) {
  const std::string contents = *in.read(path);
  const auto hint = ObjectMapFile::epoch_from_path(path);
  const ObjectMapFile::Recovery rec = ObjectMapFile::salvage(contents, hint.value_or(0));
  const std::uint64_t obj_got = rec.file.objects.size();
  const std::uint64_t dead_got = rec.file.dead.size();

  core::FsckFile f;
  f.intact = rec.intact;
  f.salvaged = obj_got + dead_got;
  if (rec.header_ok) f.declared = rec.objects_expected + rec.dead_expected;
  f.counts = {0, 0, 0, 0};
  if (!rec.intact && !rec.header_ok) {
    // Nothing verifiable, not even the declared counts: the epoch is a
    // total loss and only the file name says it existed.
    f.detail = path + " CORRUPT: no readable header (epoch " + u64(rec.file.epoch) +
               " from file name)\n";
  } else if (!rec.intact) {
    // A damaged header can declare fewer lines than survive; the loss
    // never goes below zero.
    f.counts = {obj_got, rec.objects_expected - std::min(rec.objects_expected, obj_got),
                dead_got, rec.dead_expected - std::min(rec.dead_expected, dead_got)};
    f.detail = path + " CORRUPT: salvaged " + u64(obj_got) + " of " +
               u64(rec.objects_expected) + " object(s), " + u64(dead_got) + " of " +
               u64(rec.dead_expected) + " death(s) (epoch " + u64(rec.file.epoch) + ")\n";
  }
  if (out != nullptr) out->write(path, rec.intact ? contents : rec.file.serialize());
  return f;
}

std::string object_map_summary(const core::FsckReport& r) {
  const std::uint64_t intact = r.count("fsck.omaps.intact");
  const std::uint64_t truncated = r.count("fsck.omaps.truncated");
  if (intact + truncated == 0) return "";
  return u64(intact) + " object map(s) intact, " + u64(truncated) + " truncated (" +
         u64(r.count("fsck.omaps.objects_salvaged")) + " object(s) salvaged, " +
         u64(r.count("fsck.omaps.objects_lost")) + " lost)";
}

}  // namespace

core::FsckHandler object_map_fsck_handler() {
  return {[](const os::Vfs& in, const core::FsckOptions&) {
            return core::fsck_files_named(in, "omap.");
          },
          check_object_map,
          "fsck.omaps.intact", "fsck.omaps.truncated", "fsck.omaps.unrecoverable",
          {"fsck.omaps.objects_salvaged", "fsck.omaps.objects_lost",
           "fsck.omaps.deaths_salvaged", "fsck.omaps.deaths_lost"},
          object_map_summary};
}

}  // namespace viprof::memprof
