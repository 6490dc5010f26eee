// Property: a streamed epoch index answers exactly like a fresh load.
//
// VersionedCodeMapIndex publishes one version per arriving map: in-order
// epochs append onto a shared flattened base, everything else takes the
// general path. For random map streams — in-order, out-of-order and
// duplicate epochs, torn files salvaged to a prefix, lost epochs, re-sent
// paths — lookup() and resolve() on the version published after each
// arrival must match a fresh CodeMapIndex::load() of the files received so
// far, on every field. A version handed out earlier must keep giving the
// answers it gave when it was published.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/code_map.hpp"
#include "support/rng.hpp"

namespace viprof::core {
namespace {

constexpr hw::Pid kPid = 7;
constexpr hw::Address kBase = 0x7000'0000;

struct Arrival {
  std::string path;
  std::string bytes;
};

std::string random_map(support::Xoshiro256& rng, std::uint64_t epoch) {
  CodeMapFile file;
  file.epoch = epoch;
  file.truncated = rng.below(100) < 10;  // fsck-marked salvaged prefix
  const std::uint64_t entries = rng.below(12);
  for (std::uint64_t i = 0; i < entries; ++i) {
    CodeMapEntry entry;
    entry.address = kBase + rng.below(64) * 0x100;
    const std::uint64_t kind = rng.below(10);
    entry.size = kind == 0 ? 0 : kind < 8 ? 0x40 + rng.below(0x100) : 0x200 + rng.below(0x400);
    entry.symbol = "e" + std::to_string(epoch) + "_" + std::to_string(rng.below(1000));
    file.entries.push_back(std::move(entry));
  }
  std::string bytes = file.serialize();
  if (rng.below(100) < 15) bytes.resize(rng.below(bytes.size() + 1));  // torn write
  return bytes;
}

/// A stream of map files for one VM. Epochs arrive mostly in order; some
/// are lost, some swapped with a later one, some claimed twice (an
/// unpadded second name for the same epoch), some paths sent again with
/// new contents.
std::vector<Arrival> random_stream(support::Xoshiro256& rng) {
  const std::uint64_t epochs = 2 + rng.below(40);
  std::vector<Arrival> out;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    if (rng.below(100) < 12) continue;  // lost map write
    out.push_back({CodeMapFile::path_for("jit_maps", kPid, e), random_map(rng, e)});
    if (rng.below(100) < 8) {
      out.push_back({"jit_maps/" + std::to_string(kPid) + "/map." + std::to_string(e),
                     random_map(rng, e)});
    }
    if (e > 0 && rng.below(100) < 6) {
      const std::uint64_t old = rng.below(e);
      out.push_back({CodeMapFile::path_for("jit_maps", kPid, old), random_map(rng, old)});
    }
  }
  for (std::size_t i = 0; i + 1 < out.size(); ++i)
    if (rng.below(100) < 10) std::swap(out[i], out[i + 1 + rng.below(out.size() - i - 1)]);
  return out;
}

/// Every field of a lookup() and a resolve() answer, for comparison.
std::string answer(const CodeMapIndex& index, hw::Address pc, std::uint64_t epoch) {
  const auto hit_text = [](const std::optional<CodeMapIndex::Hit>& h) {
    if (!h) return std::string("none");
    return h->symbol + "@" + std::to_string(h->found_in_epoch) + "/" +
           std::to_string(h->maps_searched) + "/" + std::to_string(h->address) + "+" +
           std::to_string(h->size);
  };
  const CodeMapIndex::Lookup lk = index.lookup(pc, epoch);
  return hit_text(lk.hit) + " " + to_string(lk.miss) + " | " +
         hit_text(index.resolve(pc, epoch));
}

std::vector<std::pair<hw::Address, std::uint64_t>> probes(support::Xoshiro256& rng,
                                                          std::uint64_t max_epoch) {
  std::vector<std::pair<hw::Address, std::uint64_t>> out;
  for (int i = 0; i < 48; ++i)
    out.emplace_back(kBase - 0x100 + rng.below(0x4800), rng.below(max_epoch + 3));
  return out;
}

class VersionedIndexPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VersionedIndexPropertyTest, EveryPrefixMatchesAFreshLoad) {
  support::Xoshiro256 rng(GetParam());
  const std::vector<Arrival> stream = random_stream(rng);

  os::Vfs received;
  VersionedCodeMapIndex streamed;
  struct Published {
    VersionedCodeMapIndex::Version version;
    std::vector<std::pair<hw::Address, std::uint64_t>> probes;
    std::vector<std::string> answers;
  };
  std::vector<Published> history;
  std::size_t compared = 0;
  for (const Arrival& arrival : stream) {
    received.write(arrival.path, arrival.bytes);
    const auto hint = CodeMapFile::epoch_from_path(arrival.path);
    streamed.add(arrival.path, CodeMapFile::salvage(arrival.bytes, hint.value_or(0)).file);

    CodeMapIndex fresh;
    fresh.load(received, "jit_maps", kPid);
    const VersionedCodeMapIndex::Version& version = streamed.current();
    ASSERT_EQ(version->map_count(), fresh.map_count());
    ASSERT_EQ(version->max_epoch(), fresh.max_epoch());
    ASSERT_EQ(version->total_entries(), fresh.total_entries());
    ASSERT_EQ(version->truncated_count(), fresh.truncated_count());

    Published pub{version, probes(rng, fresh.max_epoch()), {}};
    for (const auto& [pc, epoch] : pub.probes) {
      const std::string want = answer(fresh, pc, epoch);
      ASSERT_EQ(answer(*version, pc, epoch), want)
          << "after " << arrival.path << ": pc=0x" << std::hex << pc << std::dec
          << " epoch=" << epoch << " tail=" << version->tail_size();
      EXPECT_EQ(version->epoch_truncated(epoch), fresh.epoch_truncated(epoch));
      pub.answers.push_back(want);
      ++compared;
    }
    history.push_back(std::move(pub));
  }

  // Later arrivals never disturb a version already handed out.
  for (const Published& pub : history)
    for (std::size_t i = 0; i < pub.probes.size(); ++i)
      EXPECT_EQ(answer(*pub.version, pub.probes[i].first, pub.probes[i].second),
                pub.answers[i]);
  EXPECT_EQ(compared, stream.size() * 48);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionedIndexPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 32));

TEST(VersionedIndex, InOrderAppendsShareTheBaseAndBoundTheTail) {
  VersionedCodeMapIndex streamed;
  std::size_t max_tail = 0;
  for (std::uint64_t e = 0; e < 256; ++e) {
    CodeMapFile file;
    file.epoch = e;
    file.entries.push_back({kBase + e * 0x100, 0x80, "m" + std::to_string(e)});
    streamed.add(CodeMapFile::path_for("jit_maps", kPid, e), std::move(file));
    const CodeMapIndex& v = *streamed.current();
    const std::size_t base = v.map_count() - v.tail_size();
    EXPECT_LE(v.tail_size(), std::max<std::size_t>(8, base / 2)) << "epoch " << e;
    max_tail = std::max(max_tail, v.tail_size());
    EXPECT_EQ(v.lookup(kBase + 4, e).hit->maps_searched, e + 1);
  }
  EXPECT_GT(max_tail, 8u);  // the tail did grow with the base between re-flattens
}

}  // namespace
}  // namespace viprof::core
