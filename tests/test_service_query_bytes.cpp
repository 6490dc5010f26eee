// Pins the bytes the query verbs answer over one recorded session.
//
// A record_scenario session is streamed at ingest threads {1, 3} x
// aggregation stripes {1, 4}. Part-way through the stream the test drains
// the server and takes a flush interval; at the end it takes a second one.
// For every configuration the fnv1a64 of each reply below, and of each
// interval's full row dump (row order, domains, every count, the epoch
// range and the record count), must equal the pinned value: the same
// bytes at every thread and stripe count, and the same bytes as before
// any change to how the server aggregates or ranks.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "support/hash.hpp"

namespace viprof::service {
namespace {

/// Forwards every frame to `inner`; right after the `cut_after`-th sample
/// batch frame it runs `at_cut` on the sending thread. Counting batches
/// only keeps the cut at the same point of the sample stream whatever
/// file frames the client sends around them.
class CuttingTransport final : public Transport {
 public:
  CuttingTransport(Transport& inner, std::size_t cut_after, std::function<void()> at_cut)
      : inner_(inner), cut_after_(cut_after), at_cut_(std::move(at_cut)) {}

  bool send(const std::string& bytes) override {
    const bool ok = inner_.send(bytes);
    // The frame type is byte 2 of the header (service/wire.hpp).
    if (static_cast<FrameType>(bytes[2]) == FrameType::kSampleBatch &&
        ++batches_ == cut_after_)
      at_cut_();
    return ok;
  }
  void close() override { inner_.close(); }
  bool is_closed() const override { return inner_.is_closed(); }

 private:
  Transport& inner_;
  const std::size_t cut_after_;
  const std::function<void()> at_cut_;
  std::size_t batches_ = 0;
};

/// Every row of a flush interval in row order, with its domain and all
/// counts, then the totals: stronger than a render, which ranks and cuts.
std::string dump(const ServerSession::FlushDelta& delta) {
  std::ostringstream out;
  out << "epochs " << delta.epoch_lo << '-' << delta.epoch_hi << " records "
      << delta.records << " any " << delta.any << '\n';
  for (const core::ProfileRow& row : delta.profile.rows()) {
    out << row.image << '\t' << row.symbol << '\t' << static_cast<int>(row.domain);
    for (const std::uint64_t c : row.counts) out << '\t' << c;
    out << '\n';
  }
  for (const hw::EventKind e : hw::kAllEventKinds) out << delta.profile.total(e) << ' ';
  return out.str();
}

struct Pinned {
  const char* what;
  std::uint64_t fnv;
};

// The replies' fnv1a64, in the order run_config() produces them.
const Pinned kPinned[] = {
    {"top 20", 0xa040a2dafca48650ull},     {"since-epoch 6", 0x262f87e76c6d7324ull},
    {"arcs 10", 0x7150997208520386ull},    {"memprof 20", 0x3853dbc5a677bc32ull},
    {"snapshot", 0x13e52ecbe0138f38ull},   {"flush 1", 0x010bf076129377b0ull},
    {"flush 2", 0xbcdd3ecdb3b25c1cull},
};
constexpr std::size_t kVerbs = 5;
const char* const kQueries[kVerbs] = {"top 20", "since-epoch 6", "arcs 10", "memprof 20",
                                      "snapshot"};

std::vector<std::uint64_t> run_config(const os::Vfs& world, std::size_t threads,
                                      std::size_t stripes) {
  ServerConfig config;
  config.ingest_threads = threads;
  config.agg_stripes = stripes;
  config.queue_capacity = 4;
  ProfileServer server(config);
  auto conn = server.connect("s");
  std::string flush1;
  CuttingTransport cut(*conn, 20, [&] {
    server.drain();
    flush1 = dump(server.session("s")->take_flush());
  });
  ReplayClient client(world, "s", cut, ReplayOptions{64, nullptr, {}});
  EXPECT_TRUE(client.run());
  server.drain();
  const std::string flush2 = dump(server.session("s")->take_flush());
  EXPECT_NE(flush1.find("any 1"), std::string::npos) << "the cut came before any batch";
  EXPECT_NE(flush2.find("any 1"), std::string::npos) << "the cut came after every batch";

  std::vector<std::uint64_t> out;
  for (const char* q : kQueries) {
    const std::string reply = server.query(q);
    if (std::string(q) != "snapshot") {
      // Naming the only session answers the same bytes.
      EXPECT_EQ(server.query(std::string(q) + " --session s"), reply) << q;
    }
    out.push_back(support::fnv1a64(reply));
  }
  out.push_back(support::fnv1a64(flush1));
  out.push_back(support::fnv1a64(flush2));
  return out;
}

TEST(ServiceQueryBytes, RepliesAndFlushIntervalsArePinnedAtEveryThreadAndStripeCount) {
  ScenarioConfig sc;
  sc.vms = 2;
  sc.samples_per_event = 1500;
  sc.epochs = 12;
  sc.methods = 96;
  const auto scenario = record_scenario(sc);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t stripes : {std::size_t{1}, std::size_t{4}}) {
      const std::vector<std::uint64_t> got = run_config(scenario->vfs(), threads, stripes);
      ASSERT_EQ(got.size(), std::size(kPinned));
      for (std::size_t i = 0; i < got.size(); ++i) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(got[i]));
        EXPECT_EQ(got[i], kPinned[i].fnv)
            << kPinned[i].what << " threads=" << threads << " stripes=" << stripes
            << " got " << hex;
      }
    }
  }
}

}  // namespace
}  // namespace viprof::service
