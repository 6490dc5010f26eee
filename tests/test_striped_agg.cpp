// Property tests for the id-keyed order-recovering striped aggregation
// (DESIGN.md §14). The invariant under test is the byte-identity anchor:
// for ANY stripe count, ANY batch→stripe assignment, ANY apply
// interleaving and ANY order in which symbols were interned, folding batch
// partials (BatchFolder) through the stripe accumulators
// (SeqProfile/SeqCallGraph) and merging them back (IdProfileMerge,
// ranked_arcs) must reproduce the serial aggregate byte for byte — row
// order, domains and totals included.
#include "core/striped_agg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolve_pipeline.hpp"
#include "core/resolver.hpp"

namespace viprof::core {
namespace {

constexpr auto kTime = hw::EventKind::kGlobalPowerEvents;
constexpr auto kDmiss = hw::EventKind::kBsqCacheReference;
const std::vector<hw::EventKind> kEvents = {kTime, kDmiss};

Resolution make_res(std::uint64_t id, SampleDomain domain, bool resolved) {
  Resolution r;
  if (resolved) {
    r.image = (id % 3 == 0) ? "RVM.map" : (id % 3 == 1) ? "vmlinux" : "libc.so";
    r.symbol = "sym-" + std::to_string(id);
    r.symbol_base = 0x6000'0000 + id * 0x1000;
    r.symbol_size = 0x800;
  } else {
    // The unresolved degradation bins: distinct names, shared base 0.
    r.image = "[anon]";
    r.symbol = "unresolved." + std::to_string(id % 4);
    r.symbol_base = 0;
    r.symbol_size = 0;
  }
  r.domain = domain;
  return r;
}

/// One service batch: a single event, samples in stream order.
struct Batch {
  hw::EventKind event = kTime;
  std::vector<Resolution> samples;
};

/// A random stream chopped into batches. Symbol ids repeat across batches
/// (shared rows), some rows are unresolved bins, and a slice of ids
/// deliberately flips domain between occurrences — serial keeps the
/// first-seen domain, and recovery must too. A sample may repeat up to
/// three times in a row.
std::vector<Batch> make_batches(std::mt19937& rng, std::size_t batches,
                                std::size_t per_batch) {
  std::vector<Batch> out(batches);
  std::uniform_int_distribution<std::uint64_t> id_dist(0, 40);
  std::uniform_int_distribution<int> pct(0, 99);
  for (Batch& batch : out) {
    batch.event = pct(rng) < 70 ? kTime : kDmiss;
    for (std::size_t i = 0; i < per_batch; ++i) {
      const std::uint64_t id = id_dist(rng);
      const bool resolved = pct(rng) < 85;
      SampleDomain domain = (id % 2 == 0) ? SampleDomain::kJit : SampleDomain::kImage;
      if (id % 7 == 0 && pct(rng) < 50) domain = SampleDomain::kKernel;  // flips
      const Resolution res = make_res(id, domain, resolved);
      for (int n = 1 + pct(rng) % 3; n > 0; --n) batch.samples.push_back(res);
    }
  }
  return out;
}

Profile serial_profile(const std::vector<Batch>& batches) {
  Profile p;
  for (const Batch& batch : batches)
    for (const Resolution& res : batch.samples) p.add(batch.event, res);
  return p;
}

BatchPartial fold_batch(SymbolDict& dict, const Batch& batch, std::uint64_t seq) {
  BatchFolder folder(batch.event, seq);
  for (std::uint32_t pos = 0; pos < batch.samples.size(); ++pos)
    folder.add(pos, /*pid=*/7, /*epoch=*/0, batch.samples[pos]);
  return folder.take(dict);
}

/// Partials of every batch, interned in the shuffled `order` (workers
/// race to the dictionary), indexed by batch sequence.
std::vector<BatchPartial> fold_all(SymbolDict& dict, const std::vector<Batch>& batches,
                                   const std::vector<std::size_t>& order) {
  std::vector<BatchPartial> out(batches.size());
  for (const std::size_t seq : order) out[seq] = fold_batch(dict, batches[seq], seq);
  return out;
}

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

void expect_rows_equal(const Profile& got, const Profile& want) {
  ASSERT_EQ(got.row_count(), want.row_count());
  for (std::size_t i = 0; i < want.rows().size(); ++i) {
    const ProfileRow& g = got.rows()[i];
    const ProfileRow& w = want.rows()[i];
    EXPECT_EQ(g.image, w.image) << "row " << i;
    EXPECT_EQ(g.symbol, w.symbol) << "row " << i;
    EXPECT_EQ(g.domain, w.domain) << "row " << i;
    for (std::size_t e = 0; e < hw::kEventKindCount; ++e)
      EXPECT_EQ(g.counts[e], w.counts[e]) << "row " << i << " event " << e;
  }
}

TEST(SeqProfileProperty, AnyStripeCountAndApplyOrderMatchesSerialBytes) {
  std::mt19937 rng(0x5eed);
  for (int round = 0; round < 6; ++round) {
    const auto batches = make_batches(rng, 24, 32);
    const Profile serial = serial_profile(batches);
    const std::string serial_render = serial.render(kEvents, 50);

    for (const std::size_t stripes : {1u, 2u, 4u, 8u}) {
      // Random apply interleaving: batches fold into their stripe in
      // shuffled completion order, exactly as racing workers would.
      SymbolDict dict;
      const std::vector<std::size_t> order = shuffled(batches.size(), rng);
      const std::vector<BatchPartial> partials = fold_all(dict, batches, order);
      std::vector<SeqProfile> stripe_accs(stripes);
      for (const std::size_t seq : order)
        for (const BatchPartial::Row& r : partials[seq].rows)
          stripe_accs[seq % stripes].fold(r.row);

      // Cross-stripe merge in a random visit order too: query-time folds
      // must not depend on stripe enumeration order either.
      std::vector<const SeqProfile*> parts;
      for (const std::size_t k : shuffled(stripes, rng)) parts.push_back(&stripe_accs[k]);
      IdProfileMerge merge;
      merge.add_group(parts);
      const IdProfile ids = merge.take();

      const Profile recovered = ids.materialise(dict);
      EXPECT_EQ(recovered.render(kEvents, 50), serial_render)
          << "stripes=" << stripes << " round=" << round;
      EXPECT_EQ(ids.render(dict, kEvents, 50), serial_render)
          << "stripes=" << stripes << " round=" << round;
      expect_rows_equal(recovered, serial);
    }
  }
}

TEST(SeqProfileProperty, FlushCutPointsAreInvisible) {
  // Split the same batch set at an arbitrary cut into "pending" windows
  // (what take_flush drains), recover each window, and merge the windows
  // in cut order: identical to recovering the whole stream at once.
  std::mt19937 rng(0xf1a5);
  const auto batches = make_batches(rng, 20, 24);
  const Profile serial = serial_profile(batches);

  for (const std::size_t cut : {1u, 7u, 13u, 19u}) {
    SymbolDict dict;
    const std::vector<BatchPartial> partials =
        fold_all(dict, batches, shuffled(batches.size(), rng));
    Profile merged;
    for (const auto& window :
         {std::pair<std::size_t, std::size_t>{0, cut}, {cut, batches.size()}}) {
      SeqProfile acc;
      for (std::size_t seq = window.first; seq < window.second; ++seq)
        for (const BatchPartial::Row& r : partials[seq].rows) acc.fold(r.row);
      IdProfileMerge merge;
      merge.add_group({&acc});
      merged.merge(merge.take().materialise(dict));
    }
    EXPECT_EQ(merged.render(kEvents, 50), serial.render(kEvents, 50))
        << "cut=" << cut;
    expect_rows_equal(merged, serial);
  }
}

TEST(SeqCallGraphProperty, AnyStripeCountAndApplyOrderMatchesSerial) {
  std::mt19937 rng(0xca11);
  std::uniform_int_distribution<std::uint64_t> id_dist(0, 12);
  std::uniform_int_distribution<int> pct(0, 99);

  // Arc stream: (caller pc, caller, callee) triples, batched. The caller's
  // pc identifies its resolution, as a real pc does within one epoch.
  struct Arc {
    hw::Address caller_pc;
    Resolution caller, callee;
  };
  const std::size_t batch_count = 18;
  std::vector<std::vector<Arc>> batches(batch_count);
  for (auto& batch : batches) {
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t caller_id = id_dist(rng);
      const bool caller_resolved = pct(rng) < 90;
      batch.push_back(Arc{caller_id * 2 + (caller_resolved ? 1 : 0) + 0x1000,
                          make_res(caller_id, SampleDomain::kImage, caller_resolved),
                          make_res(id_dist(rng) + 20, SampleDomain::kJit, pct(rng) < 80)});
    }
  }

  CallGraph serial;
  for (const auto& batch : batches)
    for (const Arc& arc : batch) serial.add_resolved(arc.caller, arc.callee);
  const std::string serial_render = serial.render(40);
  const RankedView<CallArc> serial_ranked = serial.ranked();

  for (const std::size_t stripes : {1u, 2u, 4u, 8u}) {
    SymbolDict dict;
    std::vector<SeqCallGraph> stripe_accs(stripes);
    for (const std::size_t seq : shuffled(batch_count, rng)) {
      BatchFolder folder(kTime, seq);
      for (std::uint32_t pos = 0; pos < batches[seq].size(); ++pos) {
        const Arc& arc = batches[seq][pos];
        const std::uint32_t callee = folder.add(pos, 7, 0, arc.callee);
        folder.add_arc(pos, arc.caller_pc, 7, 0, callee, arc.callee.domain,
                       [&] { return arc.caller; });
      }
      for (const ArcRow& row : folder.take(dict).arcs) stripe_accs[seq % stripes].fold(row);
    }
    std::vector<const SeqCallGraph*> parts;
    for (const std::size_t k : shuffled(stripes, rng)) parts.push_back(&stripe_accs[k]);

    const std::vector<CallArc> recovered = ranked_arcs(parts, dict, SIZE_MAX);
    ASSERT_EQ(recovered.size(), serial.total_arcs()) << "stripes=" << stripes;
    std::uint64_t samples = 0;
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      const CallArc& got = recovered[i];
      const CallArc& want = serial_ranked[i];
      EXPECT_EQ(got.caller_image, want.caller_image) << "arc " << i;
      EXPECT_EQ(got.caller_symbol, want.caller_symbol) << "arc " << i;
      EXPECT_EQ(got.callee_image, want.callee_image) << "arc " << i;
      EXPECT_EQ(got.callee_symbol, want.callee_symbol) << "arc " << i;
      EXPECT_EQ(got.caller_domain, want.caller_domain) << "arc " << i;
      EXPECT_EQ(got.callee_domain, want.callee_domain) << "arc " << i;
      EXPECT_EQ(got.count, want.count) << "arc " << i;
      samples += got.count;
    }
    EXPECT_EQ(samples, serial.total_samples());
    EXPECT_EQ(render_arcs(ranked_arcs(parts, dict, 40)), serial_render)
        << "stripes=" << stripes;
  }
}

TEST(RowMemoProperty, MemoisedAddsEqualDirectAdds) {
  // The offline pipeline interns rows through a per-shard memo keyed on
  // (domain, pid, epoch, symbol_base): at one thread and at four it must
  // aggregate exactly as Profile::add sample by sample.
  std::mt19937 rng(0x3e3e);
  std::uniform_int_distribution<std::uint64_t> id_dist(0, 30);
  std::uniform_int_distribution<int> pct(0, 99);

  std::vector<LoggedSample> samples;
  std::vector<Resolution> resolved;  // by sample cycle
  Profile direct;
  const hw::EventKind event = kDmiss;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t id = id_dist(rng);
    const Resolution res = make_res(
        id, id % 2 == 0 ? SampleDomain::kJit : SampleDomain::kKernel, pct(rng) < 80);
    for (int n = 1 + pct(rng) % 4; n > 0; --n) {
      LoggedSample s;
      s.pid = static_cast<hw::Pid>(40 + id % 3);
      s.epoch = id % 5;
      s.cycle = samples.size();
      samples.push_back(s);
      resolved.push_back(res);
      direct.add(event, res);
    }
  }
  const ResolvePipeline::ResolveFn fn = [&](const LoggedSample& s, ResolveStats&) {
    return resolved[s.cycle];
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ResolvePipeline pipeline(PipelineConfig{threads, 256, nullptr});
    Profile memoised;
    pipeline.aggregate_profile(samples, event, fn, memoised);
    EXPECT_EQ(memoised.render({event}, 60), direct.render({event}, 60)) << threads;
    expect_rows_equal(memoised, direct);
    EXPECT_EQ(memoised.total(event), direct.total(event));
  }
}

}  // namespace
}  // namespace viprof::core
