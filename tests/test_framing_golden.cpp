// Golden bytes and pinned salvage counts for every framed text format.
//
// Each format is serialised from fixed inputs and compared byte for byte
// with a checked-in file under tests/golden/. Fixed damaged variants of
// each golden file (torn tail, mid-file bit flip, duplicated line, dropped
// line, bytes after the end) are then salvaged, and what the reader
// recovered and counted is pinned as a one-line signature. A refactor of
// the framing code must leave every byte and every count here unchanged.
//
// On a byte mismatch the produced file is written to golden_actual/ in the
// test's working directory, so the difference can be inspected with diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/code_map.hpp"
#include "core/sample_log.hpp"
#include "memprof/object_map.hpp"
#include "os/vfs.hpp"
#include "store/manifest.hpp"
#include "store/segment.hpp"

namespace viprof {
namespace {

// ------------------------------------------------------------ golden files

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(VIPROF_GOLDEN_DIR) + "/" + name, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_golden(const std::string& name, const std::string& bytes) {
  const std::string want = read_golden(name);
  EXPECT_EQ(bytes, want) << "golden mismatch: " << name;
  if (bytes != want) {
    std::filesystem::create_directories("golden_actual");
    std::ofstream("golden_actual/" + name, std::ios::binary) << bytes;
  }
}

// ------------------------------------------------------------ fixed inputs

std::string sample_log_bytes() {
  os::Vfs vfs;
  core::SampleLogWriter writer(vfs, "samples");
  const hw::CpuMode modes[] = {hw::CpuMode::kUser, hw::CpuMode::kKernel,
                               hw::CpuMode::kHypervisor};
  for (std::uint64_t i = 0; i < 6; ++i) {
    core::LoggedSample s;
    s.pc = 0x7f0010a0 + i * 0x31;
    s.caller_pc = i % 2 == 0 ? 0 : 0x7f000400 + i;
    s.mode = modes[i % 3];
    s.pid = 100 + static_cast<hw::Pid>(i % 2);
    s.epoch = i / 2;
    s.cycle = 1000 + i;  // unique per record: the signature lists survivors
    writer.append(hw::EventKind::kGlobalPowerEvents, s);
  }
  writer.flush();
  return *vfs.read(core::SampleLogWriter::path_for(
      "samples", hw::EventKind::kGlobalPowerEvents));
}

core::CodeMapFile code_map(bool truncated) {
  core::CodeMapFile file;
  file.epoch = 3;
  file.truncated = truncated;
  file.entries = {{0x7f001000, 256, "app.Main.run"},
                  {0x7f002000, 64, "app.Util.hash"},
                  {0x7f002100, 128, "java.util.HashMap.get"}};
  return file;
}

memprof::ObjectMapFile object_map() {
  memprof::ObjectMapFile file;
  file.epoch = 2;
  file.sites = {{0, "app.Foo.<init>@12"}, {1, "app.Bar.make@7"}};
  file.objects = {{0x20001000, 48, 11, 0}, {0x20001040, 64, 12, 1},
                  {0x20002000, 32, 13, 0}};
  file.dead = {{7, 48, 0}, {9, 16, 1}};
  return file;
}

core::Resolution resolution(const std::string& image, const std::string& symbol,
                            core::SampleDomain domain) {
  core::Resolution r;
  r.image = image;
  r.symbol = symbol;
  r.domain = domain;
  return r;
}

std::string segment_bytes() {
  store::SegmentWriter writer(7);
  std::string out = writer.header();
  for (std::uint64_t k = 0; k < 2; ++k) {
    store::IntervalProfile iv;
    iv.session = "vm-" + std::to_string(k);
    iv.pid = 40 + k;
    iv.tick_lo = 10 + k;
    iv.tick_hi = 11 + k;
    iv.epoch_lo = k;
    iv.epoch_hi = k + 2;
    iv.first_seq = 5 + k;
    iv.profile.add(hw::EventKind::kGlobalPowerEvents,
                   resolution("RVM.map", "org.jikesrvm.compile", core::SampleDomain::kBoot),
                   10 + k);
    iv.profile.add(hw::EventKind::kInstrRetired,
                   resolution("JIT.App", "app.Main.run", core::SampleDomain::kJit), 3);
    iv.profile.add(hw::EventKind::kGlobalPowerEvents,
                   resolution("vmlinux", "do_page_fault", core::SampleDomain::kKernel),
                   1 + k);
    out += writer.encode_interval(iv);
  }
  out += writer.encode_seal(2);
  return out;
}

store::Manifest store_manifest() {
  store::Manifest m;
  m.generation = 4;
  m.next_seq = 9;
  m.next_segment = 3;
  m.dropped_intervals = 2;
  m.dropped_rows = 17;
  m.dropped_segments = 1;
  store::ManifestSegment sealed;
  sealed.name = "segments/seg-000001.vseg";
  sealed.id = 1;
  sealed.sealed = true;
  sealed.intervals = 4;
  sealed.rows = 12;
  sealed.tick_lo = 1;
  sealed.tick_hi = 6;
  sealed.seq_lo = 1;
  sealed.seq_hi = 4;
  store::ManifestSegment active;
  active.name = "segments/seg-000002.vseg";
  active.id = 2;
  active.seq_lo = 5;
  m.segments = {sealed, active};
  m.tombstones = {"segments/seg-000000.vseg"};
  return m;
}

store::FleetManifest fleet_manifest() {
  store::FleetManifest m;
  m.generation = 6;
  m.shards = {{"shard-a", "shard-a/store", true, 3, 1200},
              {"shard-b", "shard-b/store", false, 1, 300}};
  store::FleetLedger& l = m.ledger;
  l.acked_sessions = 4;
  l.acked_records = 1540;
  l.stored_records = 1500;
  l.lost_wire = 20;
  l.lost_queue = 15;
  l.lost_dead_records = 5;
  l.lost_dead_sessions = 1;
  l.failover_sessions = 1;
  l.failover_records = 80;
  l.refused_sessions = 0;
  l.retried_sends = 6;
  l.retried_giveups = 1;
  l.circuit_opens = 2;
  l.rebalances = 1;
  return m;
}

// ------------------------------------------------------------ damage

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? s.size() : nl + 1;
    out.push_back(s.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

struct Variant {
  const char* name;
  std::string bytes;
};

/// The fixed damage set every format is pinned against.
std::vector<Variant> variants(const std::string& s, std::size_t line) {
  std::vector<Variant> out;
  out.push_back({"intact", s});
  out.push_back({"torn_tail", s.substr(0, s.size() - 7)});
  out.push_back({"torn_half", s.substr(0, s.size() / 2)});
  std::string flip = s;
  flip[s.size() / 2] = static_cast<char>(flip[s.size() / 2] ^ 0x04);
  out.push_back({"bit_flip", flip});
  std::string head = s;
  head[0] = static_cast<char>(head[0] ^ 0x01);
  out.push_back({"head_flip", head});
  std::vector<std::string> ls = lines_of(s);
  std::vector<std::string> dup = ls;
  dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(line), ls[line]);
  out.push_back({"dup_line", joined(dup)});
  std::vector<std::string> gap = ls;
  gap.erase(gap.begin() + static_cast<std::ptrdiff_t>(line));
  out.push_back({"drop_line", joined(gap)});
  out.push_back({"trailing", s + "trailing junk\n"});
  return out;
}

std::string fmt(const char* f, unsigned long long a) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, a);
  return buf;
}

// ------------------------------------------------------------ signatures

std::string sample_log_signature(const std::string& bytes) {
  core::SampleStreamParser parser;
  std::vector<core::LoggedSample> out;
  parser.parse(bytes, out);
  const core::SampleLogReadStatus& st = parser.status();
  std::string sig = fmt("valid=%llu", st.valid) + fmt(" salvaged=%llu", st.salvaged) +
                    fmt(" discarded=%llu", st.discarded_lines) +
                    fmt("/%lluB", st.discarded_bytes) +
                    fmt(" dup=%llu", st.duplicate_records) +
                    fmt(" gap=%llu", st.missing_records) +
                    fmt(" max_seq=%llu", st.max_seq) +
                    (st.corrupt ? " corrupt" : " clean") + " cycles=";
  for (const core::LoggedSample& s : out) sig += fmt("%llu,", s.cycle);
  return sig;
}

std::string code_map_signature(const std::string& bytes) {
  const core::CodeMapFile::Recovery r = core::CodeMapFile::salvage(bytes, 99);
  std::string sig = std::string(r.intact ? "intact" : "damaged") +
                    (r.header_ok ? " header" : " no-header") +
                    fmt(" epoch=%llu", r.file.epoch) +
                    fmt(" entries=%llu", r.file.entries.size()) +
                    fmt("/%llu", r.entries_expected) +
                    (r.file.truncated ? " truncated" : "") + " syms=";
  for (const core::CodeMapEntry& e : r.file.entries) sig += e.symbol + ",";
  return sig;
}

std::string object_map_signature(const std::string& bytes) {
  const memprof::ObjectMapFile::Recovery r = memprof::ObjectMapFile::salvage(bytes, 99);
  return std::string(r.intact ? "intact" : "damaged") +
         (r.header_ok ? " header" : " no-header") + fmt(" epoch=%llu", r.file.epoch) +
         fmt(" sites=%llu", r.file.sites.size()) +
         fmt(" objects=%llu", r.file.objects.size()) +
         fmt("/%llu", r.objects_expected) + fmt(" dead=%llu", r.file.dead.size()) +
         fmt("/%llu", r.dead_expected) + (r.file.truncated ? " truncated" : "");
}

std::string segment_signature(const std::string& bytes) {
  const store::SegmentSalvage s = store::read_segment(bytes);
  return std::string(s.header_ok ? "header" : "no-header") +
         (s.sealed ? " sealed" : " open") + fmt(" id=%llu", s.segment_id) +
         fmt(" seal=%llu", s.seal_declared) + fmt(" valid=%llu", s.lines_valid) +
         fmt(" discarded=%llu", s.lines_discarded) + fmt(" dup=%llu", s.duplicate_lines) +
         fmt(" gap=%llu", s.gap_lines) + fmt(" ivs=%llu", s.intervals_salvaged) +
         fmt("/-%llu", s.intervals_dropped) + fmt(" rows=%llu", s.rows_salvaged) +
         fmt("/-%llu", s.rows_dropped) + (s.clean() ? " clean" : "");
}

std::string store_manifest_signature(const std::string& bytes) {
  const auto m = store::Manifest::parse(bytes);
  if (!m) return "rejected";
  return fmt("gen=%llu", m->generation) + fmt(" segments=%llu", m->segments.size()) +
         fmt(" tombstones=%llu", m->tombstones.size());
}

std::string fleet_manifest_signature(const std::string& bytes) {
  const auto m = store::FleetManifest::parse(bytes);
  if (!m) return "rejected";
  return fmt("gen=%llu", m->generation) + fmt(" shards=%llu", m->shards.size()) +
         fmt(" acked=%llu", m->ledger.acked_records) +
         (m->ledger.balanced() ? " balanced" : " unbalanced");
}

using Signature = std::string (*)(const std::string&);

void expect_signatures(const std::string& bytes, std::size_t line, Signature sig,
                       const std::vector<std::pair<std::string, std::string>>& want) {
  const std::vector<Variant> vs = variants(bytes, line);
  ASSERT_EQ(vs.size(), want.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    ASSERT_EQ(vs[i].name, want[i].first);
    EXPECT_EQ(sig(vs[i].bytes), want[i].second) << "variant " << vs[i].name;
  }
}

// ------------------------------------------------------------ tests

TEST(FramingGolden, SampleLogBytes) { expect_golden("sample_log.samples", sample_log_bytes()); }

TEST(FramingGolden, CodeMapBytes) {
  expect_golden("code_map.txt", code_map(false).serialize());
  expect_golden("code_map_truncated.txt", code_map(true).serialize());
  EXPECT_TRUE(core::CodeMapFile::parse(read_golden("code_map.txt")).has_value());
  const auto marked = core::CodeMapFile::parse(read_golden("code_map_truncated.txt"));
  ASSERT_TRUE(marked.has_value());
  EXPECT_TRUE(marked->truncated);
}

TEST(FramingGolden, ObjectMapBytes) {
  expect_golden("object_map.txt", object_map().serialize());
  EXPECT_TRUE(memprof::ObjectMapFile::parse(read_golden("object_map.txt")).has_value());
}

TEST(FramingGolden, SegmentBytes) { expect_golden("segment.vseg", segment_bytes()); }

TEST(FramingGolden, StoreManifestBytes) {
  expect_golden("store_manifest.txt", store_manifest().serialize());
}

TEST(FramingGolden, FleetManifestBytes) {
  expect_golden("fleet_manifest.txt", fleet_manifest().serialize());
}

TEST(FramingGolden, SampleLogSalvageCounts) {
  expect_signatures(read_golden("sample_log.samples"), 2, sample_log_signature, {
      {"intact", "valid=6 salvaged=0 discarded=0/0B dup=0 gap=0 max_seq=5 clean cycles=1000,1001,1002,1003,1004,1005,"},
      {"torn_tail", "valid=5 salvaged=5 discarded=1/35B dup=0 gap=0 max_seq=4 corrupt cycles=1000,1001,1002,1003,1004,"},
      {"torn_half", "valid=3 salvaged=3 discarded=1/3B dup=0 gap=0 max_seq=2 corrupt cycles=1000,1001,1002,"},
      {"bit_flip", "valid=5 salvaged=5 discarded=1/42B dup=0 gap=1 max_seq=5 corrupt cycles=1000,1001,1002,1004,1005,"},
      {"head_flip", "valid=5 salvaged=5 discarded=1/35B dup=0 gap=1 max_seq=5 corrupt cycles=1001,1002,1003,1004,1005,"},
      {"dup_line", "valid=6 salvaged=0 discarded=0/0B dup=1 gap=0 max_seq=5 clean cycles=1000,1001,1002,1003,1004,1005,"},
      {"drop_line", "valid=5 salvaged=0 discarded=0/0B dup=0 gap=1 max_seq=5 clean cycles=1000,1001,1003,1004,1005,"},
      {"trailing", "valid=6 salvaged=6 discarded=1/14B dup=0 gap=0 max_seq=5 corrupt cycles=1000,1001,1002,1003,1004,1005,"},
  });
}

TEST(FramingGolden, CodeMapSalvageCounts) {
  expect_signatures(read_golden("code_map.txt"), 2, code_map_signature, {
      {"intact", "intact header epoch=3 entries=3/3 syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
      {"torn_tail", "damaged header epoch=3 entries=3/3 truncated syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
      {"torn_half", "damaged header epoch=3 entries=1/3 truncated syms=app.Main.run,"},
      {"bit_flip", "damaged header epoch=3 entries=3/3 truncated syms=app.Main.run,apt.Util.hash,java.util.HashMap.get,"},
      {"head_flip", "damaged no-header epoch=99 entries=0/0 truncated syms="},
      {"dup_line", "damaged header epoch=3 entries=4/3 truncated syms=app.Main.run,app.Util.hash,app.Util.hash,java.util.HashMap.get,"},
      {"drop_line", "damaged header epoch=3 entries=2/3 truncated syms=app.Main.run,java.util.HashMap.get,"},
      {"trailing", "damaged header epoch=3 entries=3/3 truncated syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
  });
  expect_signatures(read_golden("code_map_truncated.txt"), 3, code_map_signature, {
      {"intact", "intact header epoch=3 entries=3/3 truncated syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
      {"torn_tail", "damaged header epoch=3 entries=3/3 truncated syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
      {"torn_half", "damaged header epoch=3 entries=1/3 truncated syms=app.Main.run,"},
      {"bit_flip", "damaged header epoch=3 entries=3/3 truncated syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
      {"head_flip", "damaged no-header epoch=99 entries=0/0 truncated syms="},
      {"dup_line", "damaged header epoch=3 entries=4/3 truncated syms=app.Main.run,app.Util.hash,app.Util.hash,java.util.HashMap.get,"},
      {"drop_line", "damaged header epoch=3 entries=2/3 truncated syms=app.Main.run,java.util.HashMap.get,"},
      {"trailing", "damaged header epoch=3 entries=3/3 truncated syms=app.Main.run,app.Util.hash,java.util.HashMap.get,"},
  });
}

TEST(FramingGolden, ObjectMapSalvageCounts) {
  expect_signatures(read_golden("object_map.txt"), 4, object_map_signature, {
      {"intact", "intact header epoch=2 sites=2 objects=3/3 dead=2/2"},
      {"torn_tail", "damaged header epoch=2 sites=2 objects=3/3 dead=2/2 truncated"},
      {"torn_half", "damaged header epoch=2 sites=2 objects=0/3 dead=0/2 truncated"},
      {"bit_flip", "damaged header epoch=2 sites=2 objects=3/3 dead=2/2 truncated"},
      {"head_flip", "damaged no-header epoch=99 sites=0 objects=0/0 dead=0/0 truncated"},
      {"dup_line", "damaged header epoch=2 sites=2 objects=4/3 dead=2/2 truncated"},
      {"drop_line", "damaged header epoch=2 sites=2 objects=2/3 dead=2/2 truncated"},
      {"trailing", "damaged header epoch=2 sites=2 objects=3/3 dead=2/2 truncated"},
  });
}

TEST(FramingGolden, SegmentSalvageCounts) {
  expect_signatures(read_golden("segment.vseg"), 5, segment_signature, {
      {"intact", "header sealed id=7 seal=2 valid=16 discarded=0 dup=0 gap=0 ivs=2/-0 rows=6/-0 clean"},
      {"torn_tail", "header open id=7 seal=0 valid=15 discarded=1 dup=0 gap=0 ivs=2/-0 rows=6/-0"},
      {"torn_half", "header open id=7 seal=0 valid=8 discarded=1 dup=0 gap=0 ivs=0/-1 rows=0/-3"},
      {"bit_flip", "header sealed id=7 seal=2 valid=15 discarded=1 dup=0 gap=1 ivs=1/-1 rows=3/-3"},
      {"head_flip", "no-header sealed id=0 seal=2 valid=15 discarded=1 dup=0 gap=0 ivs=2/-0 rows=6/-0"},
      {"dup_line", "header sealed id=7 seal=2 valid=16 discarded=0 dup=1 gap=0 ivs=2/-0 rows=6/-0"},
      {"drop_line", "header sealed id=7 seal=2 valid=15 discarded=0 dup=0 gap=1 ivs=0/-2 rows=0/-6"},
      {"trailing", "header sealed id=7 seal=2 valid=16 discarded=1 dup=0 gap=0 ivs=2/-0 rows=6/-0"},
  });
}

TEST(FramingGolden, StoreManifestSalvageCounts) {
  expect_signatures(read_golden("store_manifest.txt"), 5, store_manifest_signature, {
      {"intact", "gen=4 segments=2 tombstones=1"},
      {"torn_tail", "rejected"},
      {"torn_half", "rejected"},
      {"bit_flip", "rejected"},
      {"head_flip", "rejected"},
      {"dup_line", "rejected"},
      {"drop_line", "rejected"},
      {"trailing", "gen=4 segments=2 tombstones=1"},
  });
}

TEST(FramingGolden, FleetManifestSalvageCounts) {
  expect_signatures(read_golden("fleet_manifest.txt"), 3, fleet_manifest_signature, {
      {"intact", "gen=6 shards=2 acked=1540 balanced"},
      {"torn_tail", "rejected"},
      {"torn_half", "rejected"},
      {"bit_flip", "rejected"},
      {"head_flip", "rejected"},
      {"dup_line", "rejected"},
      {"drop_line", "rejected"},
      {"trailing", "gen=6 shards=2 acked=1540 balanced"},
  });
}

}  // namespace
}  // namespace viprof
