// Scaling-path correctness for the striped ingest pipeline (DESIGN.md §14).
//
// Two families:
//  - Stripe sweep: the online-vs-offline byte-identity anchor must hold at
//    every (ingest threads, aggregation stripes) combination — the stripe
//    count is an internal throughput knob, never an observable.
//  - Concurrency stress: ingest, online queries, store flushes and epoch-map
//    version publication all race on purpose. These tests exist to run
//    under TSan in the sanitizer CI stage (ctest -L service): the version
//    pins and the striped apply path must be exactly as data-race-free as
//    the single-mutex design they replaced.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/code_map.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"

namespace viprof::service {
namespace {

const std::vector<hw::EventKind> kEvents = {hw::EventKind::kGlobalPowerEvents,
                                            hw::EventKind::kBsqCacheReference};

ScenarioConfig small_scenario() {
  ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 3'000;
  config.epochs = 8;
  config.methods = 64;
  return config;
}

bool replay(ProfileServer& server, const RecordedScenario& scenario,
            const std::string& id) {
  auto conn = server.connect(id);
  ReplayClient client(scenario.vfs(), id, *conn, ReplayOptions{128, nullptr, {}});
  return client.run();
}

TEST(ServiceScaling, ByteIdentityAtEveryThreadAndStripeCount) {
  const auto scenario = record_scenario(small_scenario());
  const std::string offline = offline_render(scenario->vfs(), kEvents, 30);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t stripes :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      ServerConfig config;
      config.ingest_threads = threads;
      config.agg_stripes = stripes;
      ProfileServer server(config);
      ASSERT_TRUE(replay(server, *scenario, "sweep"));
      server.drain();
      ASSERT_EQ(server.session("sweep")->stripe_count(), stripes);
      EXPECT_EQ(server.session_report("sweep", 30, kEvents), offline)
          << "threads=" << threads << " stripes=" << stripes;
    }
  }
}

TEST(ServiceScaling, DefaultStripeCountFollowsPool) {
  ServerConfig config;
  config.ingest_threads = 3;
  ProfileServer server(config);
  auto conn = server.connect("c");
  // Frame-level open so a session exists without a full replay.
  conn->send(encode_frame(FrameType::kOpenSession, "auto"));
  ASSERT_NE(server.session("auto"), nullptr);
  EXPECT_EQ(server.session("auto")->stripe_count(), 3u);
}

TEST(ServiceScalingStress, ConcurrentIngestQueriesAndFlushes) {
  // Queries race the striped apply path mid-stream. Mid-stream answers are
  // subset-consistent (some batches not yet applied), but must never crash,
  // deadlock or tear; the post-drain answer must be the full serial one.
  const auto scenario = record_scenario(small_scenario());
  const std::string offline = offline_render(scenario->vfs(), kEvents, 30);

  ServerConfig config;
  config.ingest_threads = 4;
  config.agg_stripes = 4;
  ProfileServer server(config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&server, &done, &queries, t] {
      while (!done.load(std::memory_order_acquire)) {
        switch ((queries.fetch_add(1, std::memory_order_relaxed) + t) % 4) {
          case 0: server.query("top 10 --session stress"); break;
          case 1: server.query("sessions"); break;
          case 2: server.query("arcs 10 --session stress"); break;
          default: server.query("since-epoch 2 --session stress"); break;
        }
      }
    });
  }

  ASSERT_TRUE(replay(server, *scenario, "stress"));
  server.drain();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(server.session_report("stress", 30, kEvents), offline);
}

TEST(ServiceScalingStress, MapVersionsPublishUnderReaders) {
  // One appender streams epoch maps into a session — in order, with every
  // 16th path re-sent (the rebuild path) — while readers pin the published
  // version and resolve against it, as ingest workers do. A pinned version
  // must stay whole and answer for exactly the epochs it was published
  // with, however many versions the appender publishes meanwhile; under
  // TSan the publication path must be race-free.
  ServerSession session("stress", 4);
  constexpr std::uint64_t kEpochs = 200;
  constexpr int kReaders = 4;
  const std::string key = map_index_key("jit_maps", 7, false);
  const auto map_of = [](std::uint64_t epoch) {
    core::CodeMapFile file;
    file.epoch = epoch;
    for (std::uint64_t i = 0; i < 8; ++i)
      file.entries.push_back({0x10000 * (epoch + 1) + 0x100 * i, 0x80,
                              "m" + std::to_string(epoch) + "_" + std::to_string(i)});
    return file.serialize();
  };

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Every reader also resolves a few rounds after the last publication,
      // however fast the appender finishes.
      std::uint64_t round = static_cast<std::uint64_t>(t);
      for (int after = 0; after < 16;) {
        if (done.load(std::memory_order_acquire)) ++after;
        const core::VersionedCodeMapIndex::Version pin = session.map_version(key);
        if (pin == nullptr) continue;
        const std::uint64_t top = pin->max_epoch();
        ASSERT_EQ(pin->map_count(), top + 1);
        for (std::uint64_t e : {top, round % (top + 1)}) {
          const auto lk = pin->lookup(0x10000 * (e + 1) + 0x100 * (round % 8) + 4, e);
          ASSERT_TRUE(lk.hit.has_value());
          EXPECT_EQ(lk.hit->symbol, "m" + std::to_string(e) + "_" + std::to_string(round % 8));
          EXPECT_EQ(lk.hit->maps_searched, 1u);
          EXPECT_EQ(pin->lookup(0x10000 * (top + 2), top).miss, core::JitLookupMiss::kNotFound);
        }
        ++round;
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    session.store_file(core::CodeMapFile::path_for("jit_maps", 7, e), map_of(e));
    if (e % 16 == 15)
      session.store_file(core::CodeMapFile::path_for("jit_maps", 7, e - 8), map_of(e - 8));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GE(resolved.load(), 16u * kReaders);
  const core::VersionedCodeMapIndex::Version last = session.map_version(key);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->map_count(), kEpochs);
  EXPECT_EQ(last->max_epoch(), kEpochs - 1);
}

}  // namespace
}  // namespace viprof::service
