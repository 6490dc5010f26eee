// Seeded corruption fuzzer over the shared framing codec and every fsck
// handler. Four mutations — truncation at every line boundary and inside
// every line, a single bit flip, a duplicated line, two lines swapped —
// against one oracle: degraded, never wrong.
//
//   * Line-framed formats (sample logs, segments) never return a record
//     that was not written, and what they return keeps its written order.
//   * Trailer-framed formats never report intact for altered bytes (a
//     manifest ignores bytes after its trailer's digits), and under
//     truncation they salvage only a prefix of the written entries.
//   * Where a header declares counts and the damage is a truncation,
//     salvaged + lost == declared.
//
// Seeds are fixed, so any failure replays; the failing seed and mutation
// are in the assertion message.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/code_map.hpp"
#include "core/fsck.hpp"
#include "core/sample_log.hpp"
#include "memprof/fsck.hpp"
#include "memprof/object_map.hpp"
#include "os/vfs.hpp"
#include "store/manifest.hpp"
#include "store/segment.hpp"
#include "support/framed.hpp"
#include "support/rng.hpp"

namespace viprof {
namespace {

constexpr int kSeeds = 24;

// ------------------------------------------------------------ mutations

struct Mutant {
  std::string what;  // replay key: mutation and position
  std::string bytes;
  /// The bytes are a prefix of the original (a torn write).
  bool truncation = false;
};

std::vector<std::size_t> line_starts(const std::string& s) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 0; pos < s.size();) {
    out.push_back(pos);
    const std::size_t nl = s.find('\n', pos);
    pos = nl == std::string::npos ? s.size() : nl + 1;
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  const std::vector<std::size_t> starts = line_starts(s);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::size_t end = i + 1 < starts.size() ? starts[i + 1] : s.size();
    out.push_back(s.substr(starts[i], end - starts[i]));
  }
  return out;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

/// Every truncation at a line boundary and in the middle of each line,
/// plus `n` each of bit flips, duplicated lines and swapped line pairs.
std::vector<Mutant> mutants(const std::string& s, support::Xoshiro256& rng, int n = 16) {
  std::vector<Mutant> out;
  for (const std::size_t start : line_starts(s)) {
    out.push_back({"truncate@" + std::to_string(start), s.substr(0, start), true});
    const std::size_t nl = s.find('\n', start);
    const std::size_t end = nl == std::string::npos ? s.size() : nl;
    const std::size_t mid = start + (end - start) / 2;
    if (mid > start)
      out.push_back({"truncate@" + std::to_string(mid), s.substr(0, mid), true});
  }
  const std::vector<std::string> lines = split_lines(s);
  for (int i = 0; i < n && !s.empty(); ++i) {
    std::string flipped = s;
    const std::size_t at = rng.below(s.size());
    const int bit = static_cast<int>(rng.below(8));
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
    out.push_back({"flip@" + std::to_string(at) + "." + std::to_string(bit), flipped});

    std::vector<std::string> dup = lines;
    const std::size_t d = rng.below(lines.size());
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(d), lines[d]);
    out.push_back({"dup@" + std::to_string(d), join(dup)});

    if (lines.size() < 2) continue;
    std::vector<std::string> swapped = lines;
    const std::size_t a = rng.below(lines.size());
    const std::size_t b = (a + 1 + rng.below(lines.size() - 1)) % lines.size();
    std::swap(swapped[a], swapped[b]);
    out.push_back({"swap@" + std::to_string(a) + "," + std::to_string(b), join(swapped)});
  }
  return out;
}

std::string label(int seed, const Mutant& m) {
  return "seed " + std::to_string(seed) + " " + m.what;
}

// ------------------------------------------------------------ inputs

std::vector<core::LoggedSample> random_samples(support::Xoshiro256& rng) {
  std::vector<core::LoggedSample> out(2 + rng.below(10));
  std::uint64_t cycle = rng.below(1000);
  for (core::LoggedSample& s : out) {
    s.pc = 0x7f000000 + rng.below(1 << 20);
    s.caller_pc = rng.below(2) == 0 ? 0 : 0x7f000000 + rng.below(1 << 20);
    s.mode = static_cast<hw::CpuMode>(rng.below(3));
    s.pid = static_cast<hw::Pid>(100 + rng.below(4));
    s.epoch = rng.below(5);
    s.cycle = cycle += 1 + rng.below(50);  // strictly increasing: identifies a record
  }
  return out;
}

std::string sample_log_of(const std::vector<core::LoggedSample>& samples, os::Vfs& vfs) {
  core::SampleLogWriter writer(vfs, "samples");
  for (const core::LoggedSample& s : samples)
    writer.append(hw::EventKind::kGlobalPowerEvents, s);
  writer.flush();
  return *vfs.read(
      core::SampleLogWriter::path_for("samples", hw::EventKind::kGlobalPowerEvents));
}

core::CodeMapFile random_code_map(support::Xoshiro256& rng) {
  core::CodeMapFile file;
  file.epoch = rng.below(20);
  file.truncated = rng.below(4) == 0;
  const std::size_t n = rng.below(8);
  for (std::size_t i = 0; i < n; ++i) {
    file.entries.push_back({0x10000 + i * 0x100 + rng.below(0x80), 1 + rng.below(0x80),
                            "app.C" + std::to_string(rng.below(100)) + ".m" +
                                std::to_string(i)});
  }
  return file;
}

memprof::ObjectMapFile random_object_map(support::Xoshiro256& rng) {
  memprof::ObjectMapFile file;
  file.epoch = rng.below(20);
  const std::uint32_t sites = static_cast<std::uint32_t>(rng.below(3));
  for (std::uint32_t s = 0; s < sites; ++s)
    file.sites.push_back({s, "app.Site" + std::to_string(s)});
  const std::size_t objects = rng.below(7);
  for (std::size_t i = 0; i < objects; ++i) {
    file.objects.push_back({0x200000 + i * 0x40, 16 + rng.below(48), 100 + i,
                            static_cast<std::uint32_t>(rng.below(3))});
  }
  const std::size_t dead = rng.below(4);
  for (std::size_t i = 0; i < dead; ++i)
    file.dead.push_back(
        {10 + i, 8 + rng.below(32), static_cast<std::uint32_t>(rng.below(3))});
  return file;
}

std::vector<store::IntervalProfile> random_intervals(support::Xoshiro256& rng) {
  const char* symbols[] = {"app.Main.run", "app.Util.hash", "java.util.HashMap.get",
                           "do_page_fault", "memset"};
  std::vector<store::IntervalProfile> out(1 + rng.below(4));
  std::uint64_t tick = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    store::IntervalProfile& iv = out[k];
    iv.session = "vm-" + std::to_string(rng.below(3));
    iv.pid = 40 + rng.below(3);
    iv.tick_lo = tick;
    iv.tick_hi = tick += 1 + rng.below(3);
    iv.epoch_lo = rng.below(4);
    iv.epoch_hi = iv.epoch_lo + rng.below(3);
    iv.first_seq = 1 + k;
    const std::size_t rows = 1 + rng.below(3);
    for (std::size_t r = 0; r < rows; ++r) {
      core::Resolution res;
      res.image = rng.below(2) == 0 ? "JIT.App" : "libc.so";
      res.symbol = symbols[rng.below(5)];
      res.domain = core::SampleDomain::kJit;
      iv.profile.add(static_cast<hw::EventKind>(rng.below(hw::kEventKindCount)), res,
                     1 + rng.below(20));
    }
  }
  return out;
}

// Everything a reader can return of an interval, as one comparable string.
std::string digest(const store::IntervalProfile& iv) {
  std::string out = iv.session + "|" + std::to_string(iv.pid) + "|" +
                    std::to_string(iv.tick_lo) + "-" + std::to_string(iv.tick_hi) + "|" +
                    std::to_string(iv.epoch_lo) + "-" + std::to_string(iv.epoch_hi) + "|" +
                    std::to_string(iv.first_seq);
  for (const core::ProfileRow& row : iv.profile.rows()) {
    out += "|" + row.image + "/" + row.symbol + "/" + core::to_string(row.domain);
    for (std::uint64_t c : row.counts) out += "," + std::to_string(c);
  }
  return out;
}

/// True when `got` is `written` with some elements left out.
template <typename T, typename Same>
bool ordered_subset(const std::vector<T>& got, const std::vector<T>& written, Same same) {
  std::size_t w = 0;
  for (const T& g : got) {
    while (w < written.size() && !same(g, written[w])) ++w;
    if (w == written.size()) return false;
    ++w;
  }
  return true;
}

bool same_sample(const core::LoggedSample& a, const core::LoggedSample& b) {
  return a.pc == b.pc && a.caller_pc == b.caller_pc && a.mode == b.mode &&
         a.pid == b.pid && a.epoch == b.epoch && a.cycle == b.cycle;
}

bool same_entry(const core::CodeMapEntry& a, const core::CodeMapEntry& b) {
  return a.address == b.address && a.size == b.size && a.symbol == b.symbol;
}

// ------------------------------------------------------------ codec

TEST(FramingFuzz, LineFramesNeverVerifyAlteredBytes) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(0xf7a3e + static_cast<std::uint64_t>(seed));
    const std::string body = std::to_string(rng.below(1000)) + " payload " +
                             std::to_string(rng());
    const std::string line = support::framed::frame(body);
    support::framed::Frame f;
    ASSERT_TRUE(support::framed::verify_line(line.substr(0, line.size() - 1), f));
    for (std::size_t at = 0; at + 1 < line.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = line.substr(0, line.size() - 1);
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        EXPECT_FALSE(support::framed::verify_line(flipped, f))
            << "seed " << seed << " flip@" << at << "." << bit;
      }
    }
  }
}

TEST(FramingFuzz, SampleLogsReturnOnlyWrittenRecordsInOrder) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(0x5a3e + static_cast<std::uint64_t>(seed));
    os::Vfs vfs;
    const std::vector<core::LoggedSample> written = random_samples(rng);
    const std::string log = sample_log_of(written, vfs);
    for (const Mutant& m : mutants(log, rng)) {
      core::SampleStreamParser parser;
      std::vector<core::LoggedSample> got;
      parser.parse(m.bytes, got);
      const core::SampleLogReadStatus& st = parser.status();
      EXPECT_TRUE(ordered_subset(got, written, same_sample)) << label(seed, m);
      // Every sequence number up to the highest verified one is either a
      // returned record or a counted gap.
      if (st.valid != 0) {
        EXPECT_EQ(st.valid + st.missing_records, st.max_seq + 1) << label(seed, m);
      }
      if (m.truncation) {
        EXPECT_EQ(st.missing_records, 0u) << label(seed, m);
        EXPECT_EQ(st.valid, static_cast<std::uint64_t>(
                                std::count(m.bytes.begin(), m.bytes.end(), '\n')))
            << label(seed, m);
      }
    }
  }
}

TEST(FramingFuzz, SegmentsReturnOnlyWrittenIntervalsInOrder) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(0x5e6 + static_cast<std::uint64_t>(seed));
    const std::vector<store::IntervalProfile> written = random_intervals(rng);
    store::SegmentWriter writer(static_cast<std::uint64_t>(seed));
    std::string segment = writer.header();
    for (const store::IntervalProfile& iv : written)
      segment += writer.encode_interval(iv);
    segment += writer.encode_seal(written.size());
    std::vector<std::string> want;
    for (const store::IntervalProfile& iv : written) want.push_back(digest(iv));

    for (const Mutant& m : mutants(segment, rng)) {
      const store::SegmentSalvage got = store::read_segment(m.bytes);
      std::vector<std::string> have;
      for (const store::IntervalProfile& iv : got.intervals) have.push_back(digest(iv));
      EXPECT_TRUE(ordered_subset(have, want, std::equal_to<>())) << label(seed, m);
      EXPECT_EQ(got.intervals_salvaged, got.intervals.size()) << label(seed, m);
      if (m.truncation) {
        EXPECT_LE(got.intervals_salvaged + got.intervals_dropped, written.size())
            << label(seed, m);
        EXPECT_EQ(got.gap_lines + got.duplicate_lines, 0u) << label(seed, m);
      }
    }
  }
}

TEST(FramingFuzz, TrailerMapsNeverIntactWhenAlteredAndSalvageOnlyPrefixes) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(0x7a11 + static_cast<std::uint64_t>(seed));
    const core::CodeMapFile code = random_code_map(rng);
    const std::string code_bytes = code.serialize();
    for (const Mutant& m : mutants(code_bytes, rng)) {
      const auto r = core::CodeMapFile::salvage(m.bytes, 0);
      if (m.bytes != code_bytes) {
        EXPECT_FALSE(r.intact) << label(seed, m);
        EXPECT_FALSE(core::CodeMapFile::parse(m.bytes).has_value()) << label(seed, m);
      }
      if (m.truncation) {
        ASSERT_LE(r.file.entries.size(), code.entries.size()) << label(seed, m);
        EXPECT_TRUE(std::equal(r.file.entries.begin(), r.file.entries.end(),
                               code.entries.begin(), same_entry))
            << label(seed, m);
        if (r.header_ok) {
          EXPECT_EQ(r.entries_expected, code.entries.size()) << label(seed, m);
        }
      }
    }

    const memprof::ObjectMapFile objects = random_object_map(rng);
    const std::string object_bytes = objects.serialize();
    for (const Mutant& m : mutants(object_bytes, rng)) {
      const auto r = memprof::ObjectMapFile::salvage(m.bytes, 0);
      if (m.bytes != object_bytes) {
        EXPECT_FALSE(r.intact) << label(seed, m);
        EXPECT_FALSE(memprof::ObjectMapFile::parse(m.bytes).has_value())
            << label(seed, m);
      }
      if (m.truncation) {
        ASSERT_LE(r.file.objects.size(), objects.objects.size()) << label(seed, m);
        ASSERT_LE(r.file.dead.size(), objects.dead.size()) << label(seed, m);
        for (std::size_t i = 0; i < r.file.objects.size(); ++i)
          EXPECT_EQ(r.file.objects[i].obj_id, objects.objects[i].obj_id)
              << label(seed, m);
        for (std::size_t i = 0; i < r.file.dead.size(); ++i)
          EXPECT_EQ(r.file.dead[i].obj_id, objects.dead[i].obj_id) << label(seed, m);
      }
    }
  }
}

TEST(FramingFuzz, ManifestsReadWholeOrNotAtAll) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    support::Xoshiro256 rng(0x3a7 + static_cast<std::uint64_t>(seed));
    store::Manifest m;
    m.generation = rng.below(100);
    m.next_seq = rng.below(1000);
    for (std::uint64_t i = 0; i < rng.below(4); ++i) {
      store::ManifestSegment seg;
      seg.id = i;
      seg.name = "segments/seg-" + std::to_string(i) + ".vseg";
      seg.sealed = rng.below(2) == 0;
      seg.rows = rng.below(50);
      m.segments.push_back(seg);
    }
    store::FleetManifest fleet;
    fleet.generation = rng.below(100);
    fleet.ledger.acked_records = rng.below(5000);
    fleet.shards.push_back(
        {"shard-a", "shard-a/store", true, rng.below(9), rng.below(99)});

    for (const std::string& bytes : {m.serialize(), fleet.serialize()}) {
      // Bytes up to and including the trailer's digits are covered; the
      // newline after them is not, like any bytes appended later.
      const std::size_t covered = bytes.size() - 1;
      for (const Mutant& mut : mutants(bytes, rng)) {
        const bool altered =
            mut.bytes.size() < covered || mut.bytes.compare(0, covered, bytes, 0, covered) != 0;
        const bool read = store::Manifest::parse(mut.bytes).has_value() ||
                          store::FleetManifest::parse(mut.bytes).has_value();
        if (altered) {
          EXPECT_FALSE(read) << label(seed, mut);
        }
      }
      EXPECT_TRUE(store::Manifest::parse(m.serialize() + "junk after\n").has_value() ||
                  store::FleetManifest::parse(bytes + "junk after\n").has_value());
    }
  }
}

// ------------------------------------------------------------ fsck handlers

TEST(FramingFuzz, FsckHandlersDegradeNeverLie) {
  const std::vector<core::FsckHandler> handlers = {core::sample_log_fsck_handler(),
                                                   core::code_map_fsck_handler(),
                                                   memprof::object_map_fsck_handler()};
  for (int seed = 0; seed < kSeeds / 2; ++seed) {
    support::Xoshiro256 rng(0xf5c + static_cast<std::uint64_t>(seed));
    os::Vfs tree;
    const std::vector<core::LoggedSample> samples = random_samples(rng);
    const std::string log = sample_log_of(samples, tree);
    const core::CodeMapFile code = random_code_map(rng);
    const memprof::ObjectMapFile objects = random_object_map(rng);
    const std::string code_path = core::CodeMapFile::path_for("jit_maps", 101, code.epoch);
    const std::string omap_path =
        memprof::ObjectMapFile::path_for("obj_maps", 101, objects.epoch);
    tree.write(code_path, code.serialize());
    tree.write(omap_path, objects.serialize());
    const std::string log_path =
        core::SampleLogWriter::path_for("samples", hw::EventKind::kGlobalPowerEvents);

    for (const std::string& path : {log_path, code_path, omap_path}) {
      const std::string original = *tree.read(path);
      for (const Mutant& m : mutants(original, rng, 6)) {
        os::Vfs damaged = tree;
        damaged.write(path, m.bytes);
        os::Vfs recovered;
        support::Telemetry tele;
        core::FsckOptions opts;
        opts.write_recovery = true;
        opts.verbose = false;
        const core::FsckReport report =
            core::fsck_tree(damaged, &recovered, tele, opts, handlers);
        const std::string what = path + " " + label(seed, m);

        // A map with altered bytes is never clean.
        if (path != log_path && m.bytes != original) {
          EXPECT_TRUE(report.corrupt) << what;
        }
        // Recovered records are written records, in order.
        const auto back = core::SampleLogReader::read(recovered, "samples",
                                                      hw::EventKind::kGlobalPowerEvents);
        EXPECT_TRUE(ordered_subset(back, samples, same_sample)) << what;
        // The recovery tree is clean: fsck converges in one pass.
        support::Telemetry tele2;
        const core::FsckReport again =
            core::fsck_tree(recovered, nullptr, tele2, {}, handlers);
        EXPECT_EQ(again.verdict, core::FsckVerdict::kClean) << what;
        // Torn object map with a readable header: salvaged + lost == declared.
        if (path == omap_path && m.truncation && report.corrupt) {
          const auto r = memprof::ObjectMapFile::salvage(m.bytes, 0);
          if (r.header_ok) {
            EXPECT_EQ(report.count("fsck.omaps.objects_salvaged") +
                          report.count("fsck.omaps.objects_lost"),
                      objects.objects.size())
                << what;
            EXPECT_EQ(report.count("fsck.omaps.deaths_salvaged") +
                          report.count("fsck.omaps.deaths_lost"),
                      objects.dead.size())
                << what;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace viprof
