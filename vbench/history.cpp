// history — the persistent path: fleet routing, store partitions, history
// queries.
//
// Many short recorded sessions go through fleet::Router into two shards;
// each shard flushes every completed session into its ProfileStore
// partition, and each partition is compacted. The ingest clock stops once
// the records are flushed and compacted. Then, with no writers left, a
// closed-loop client runs windowed top-N, per-symbol series and
// window-vs-window diff on the partitions plus the federated `top 20`.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/federator.hpp"
#include "fleet/router.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "store/profile_store.hpp"
#include "support/rng.hpp"

namespace vbench {

namespace {

using namespace viprof;

constexpr std::size_t kSessions = 32;
constexpr std::size_t kShards = 2;
constexpr int kSetupReps = 7;

struct Fleet {
  std::unique_ptr<os::Vfs> vfs;
  std::unique_ptr<fleet::Router> router;
};

}  // namespace

Result run_history(const Options& opt, Spans& spans) {
  Result res;
  fleet::FleetConfig config;
  config.shards = kShards;
  config.seed = opt.seed;
  // Thread budget (nproc): the routing main thread plus one ingest pool
  // per shard; the single-server oracle gets a shard's share.
  config.server.ingest_threads = std::max<std::size_t>(1, (opt.nproc - 1) / (kShards + 1));

  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "hist-%03zu", i);
    ids.push_back(id);
  }
  const auto make_fleet = [&config] {
    Fleet f;
    f.vfs = std::make_unique<os::Vfs>();
    f.router = std::make_unique<fleet::Router>(*f.vfs, config);
    return f;
  };

  // ---- set-up: session recording plus router/store construction; timed
  // again during the run ----
  HostSpeed host;
  Timings setup_s;
  const auto set_up = [&] {
    const HostSpeed::Mark before = host.mark();
    const std::uint64_t t0 = now_ns();
    std::vector<std::unique_ptr<service::RecordedScenario>> out;
    for (std::size_t i = 0; i < kSessions; ++i) {
      service::ScenarioConfig sc;
      sc.vms = 2;
      sc.samples_per_event = 1'500;
      sc.epochs = 6;
      sc.methods = 96;
      sc.seed = opt.seed * 0x9e3779b97f4a7c15ULL + i;
      out.push_back(service::record_scenario(sc));
    }
    Fleet fresh = make_fleet();
    setup_s.add_time(static_cast<double>(now_ns() - t0) / 1e9, host.scale_since(before));
    return out;
  };
  const std::vector<std::unique_ptr<service::RecordedScenario>> worlds = set_up();

  // ---- the single-server oracle, untimed; its store flush is staged ----
  service::ProfileServer single(config.server);
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto conn = single.connect(ids[i]);
    service::ReplayClient client(worlds[i]->vfs(), ids[i], *conn,
                                 service::ReplayOptions{256, nullptr, {}});
    res.check(client.run(), ids[i] + ": single-server replay");
  }
  single.drain();
  const std::string oracle_top = single.query("top 20");
  const core::ProfileRow hot =
      single.session(ids[0])->merged_profile().ranked(hw::EventKind::kGlobalPowerEvents)[0];

  // ---- measured phase: rounds of route + flush + compact into a fresh
  // fleet, the offline reports of every session, then a batch of
  // closed-loop history queries on that fleet with no writers left ----
  const std::uint64_t start = now_ns();
  const auto elapsed_s = [start] { return static_cast<double>(now_ns() - start) / 1e9; };
  constexpr int kQueriesPerRound = 80;
  const char* verb_names[4] = {"store.window_top", "store.series", "store.diff",
                               "fleet.federated_top"};
  support::Xoshiro256 rng(opt.seed);
  Timings rps, report_ms, query_us;
  std::vector<double> route_ms, compact_ms, verb_us[4];
  std::vector<std::string> offline(kSessions);
  Fleet fleet;
  std::uint64_t stored = 0;
  // Rounds run for the budget and until 1000 queries ran, but never past
  // three budgets.
  const auto more_rounds = [&] {
    return (elapsed_s() < opt.seconds || query_us.size() < 1000) &&
           elapsed_s() < 3 * opt.seconds;
  };
  for (std::size_t round = 0; rps.empty() || more_rounds(); ++round) {
    const bool warm = warming(round, elapsed_s(), opt.seconds);
    fleet = make_fleet();
    const std::uint64_t rep_id = spans.next_id();
    const HostSpeed::Mark before = host.mark();
    const std::uint64_t t0 = now_ns();
    stored = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::uint64_t s0 = now_ns();
      const fleet::SessionOutcome out = fleet.router->ingest(worlds[i]->vfs(), ids[i]);
      spans.add("fleet.route", s0, now_ns(), spans.next_id(), rep_id);
      res.count(1, out.completed ? 0 : 1);
      stored += out.records_stored;
    }
    const std::uint64_t c0 = now_ns();
    for (const std::string& shard : fleet.router->shard_names())
      fleet.router->partition(shard)->compact();
    const std::uint64_t t1 = now_ns();
    spans.add("store.compact", c0, t1, rep_id, rep_id);
    spans.add("history.rep", t0, t1, rep_id);
    const store::FleetLedger& ledger = fleet.router->ledger();
    res.check(ledger.balanced(), "fleet ledger acked == stored + lost.*");
    res.check(ledger.acked_sessions == kSessions, "every session acked");
    res.count(ledger.acked_records, ledger.acked_records - ledger.stored_records);
    const support::TelemetrySnapshot tele = fleet.router->telemetry().snapshot();
    res.count(tele.counter("store.ingest.intervals") + tele.counter("store.ingest.append_errors"),
              tele.counter("store.ingest.append_errors"));
    fleet::Federator federator(*fleet.router);
    res.check(federator.query("top 20") == oracle_top, "federated top 20 == single server");

    const std::uint64_t r0 = now_ns();
    for (std::size_t i = 0; i < kSessions; ++i)
      offline[i] = service::offline_render(worlds[i]->vfs(), kReportEvents, 20);
    const std::uint64_t r1 = now_ns();
    spans.add("offline.report", r0, r1, spans.next_id());
    if (warm) continue;
    route_ms.push_back(static_cast<double>(c0 - t0) / 1e6 / kSessions);
    compact_ms.push_back(static_cast<double>(t1 - c0) / 1e6);

    std::vector<store::ProfileStore*> parts;
    for (const std::string& shard : fleet.router->shard_names())
      parts.push_back(fleet.router->partition(shard));
    std::vector<double> round_us[4];
    for (int q = 0; q < kQueriesPerRound; ++q) {
      const std::size_t i = query_us.size() + static_cast<std::size_t>(q);
      store::ProfileStore& part = *parts[(i / 4) % parts.size()];
      const std::uint64_t span_ticks = kSessions / kShards;
      const std::uint64_t lo = 1 + rng.below(span_ticks / 2);
      const store::WindowSpec w{lo, lo + span_ticks / 4, ""};
      const store::WindowSpec before{1, lo, ""};
      const std::size_t verb = i % 4;
      const std::uint64_t q0 = now_ns();
      std::string out;
      if (verb == 0) out = part.render_top(w, kReportEvents, 20);
      else if (verb == 1) out = part.render_series(w, hot.image, hot.symbol, kReportEvents[0]);
      else if (verb == 2) out = part.render_diff(before, w, kReportEvents[0], 20);
      else out = federator.query("top 20");
      const std::uint64_t q1 = now_ns();
      spans.add(verb_names[verb], q0, q1, spans.next_id(), rep_id);
      round_us[verb].push_back(static_cast<double>(q1 - q0) / 1e3);
      res.count(1, is_error(out) ? 1 : 0);
    }
    const double scale = host.scale_since(before);
    rps.add_rate(static_cast<double>(stored) / (static_cast<double>(t1 - t0) / 1e9), scale);
    report_ms.add_time(static_cast<double>(r1 - r0) / 1e6, scale);
    for (int v = 0; v < 4; ++v)
      for (double us : round_us[v]) {
        query_us.add_time(us, scale);
        verb_us[v].push_back(us);
      }
    if (setup_due(setup_s.size(), kSetupReps, elapsed_s(), opt.seconds)) set_up();
  }
  res.set_timing("setup_s", setup_s, 0.5, 1.0, "s");
  res.check(query_us.size() >= 1000, "at least 1000 queries in the run");

  // ---- after the clock: stored sessions against their offline reports ----
  fleet::Federator federator(*fleet.router);
  for (std::size_t i = 0; i < kSessions; ++i) {
    res.check(federator.session_profile(ids[i]).render(kReportEvents, 20) == offline[i],
              ids[i] + ": stored profile == offline report");
    res.check(service::offline_render(worlds[i]->vfs(), kReportEvents, 20, opt.nproc) == offline[i],
              ids[i] + ": offline report identical at 1 and nproc threads");
  }
  if (opt.trace && !opt.out_dir.empty())
    res.check(write_file(opt.out_dir + "/server_trace.json", federator.query("trace")),
              "fleet trace written");
  std::vector<store::ProfileStore*> parts;
  for (const std::string& shard : fleet.router->shard_names())
    parts.push_back(fleet.router->partition(shard));

  res.set_timing("ingest_rps", rps, 0.5, 1.0, "1/s");
  res.set_timing("report_s", report_ms, 0.5, 1e-3, "s");
  res.set_timing("query_p50_us", query_us, 0.50, 1.0, "us");
  res.set_timing("query_p99_us", query_us, 0.99, 1.0, "us");
  res.note(fmt("history: %.0f sessions, %.0f records stored per repetition, %.0f "
               "repetitions",
               static_cast<double>(kSessions), static_cast<double>(stored),
               static_cast<double>(rps.size())));
  res.note(fmt("ingest_rps: route + flush + compact, median over repetitions; median "
               "host-speed scale %.3f",
               host.median_scale()));
  res.note(fmt("query_p50_us, query_p99_us: %.0f closed-loop queries",
               static_cast<double>(query_us.size())));

  if (opt.trace) {
    res.set_layer("fleet.route_ms_per_session", median(route_ms), "ms");
    double max_rec = 0, sum_rec = 0;
    std::uint64_t segments = 0;
    for (store::ProfileStore* p : parts) {
      double rec = 0;
      for (const auto& s : p->sessions()) rec += static_cast<double>(s.records);
      max_rec = std::max(max_rec, rec);
      sum_rec += rec;
      segments += p->segment_count();
    }
    res.set_layer("fleet.shard_skew", max_rec / (sum_rec / static_cast<double>(parts.size())),
                  "ratio");
    res.set_layer("store.compact_ms", median(compact_ms), "ms");
    res.set_layer("store.segments_after", static_cast<double>(segments), "count");
    res.set_layer("store.bytes_written", static_cast<double>(fleet.vfs->bytes_written()),
                  "bytes");
    // Store append, staged: the single server flushes each session into a
    // store of its own, one call per session.
    os::Vfs oracle_vfs;
    store::ProfileStore oracle_store(oracle_vfs);
    oracle_store.open();
    double append_ms = 0;
    std::size_t intervals = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::uint64_t t0 = now_ns();
      intervals += single.flush_session_to_store(ids[i], oracle_store, i + 1);
      append_ms += ms_since(t0);
    }
    res.set_layer("store.append_us_per_interval",
                  append_ms * 1e3 / static_cast<double>(std::max<std::size_t>(intervals, 1)),
                  "us");
    const char* names[4] = {"store.window_top_us", "store.series_us", "store.diff_us",
                            "fleet.federated_top_us"};
    for (int v = 0; v < 4; ++v) res.set_layer(names[v], median(verb_us[v]), "us");
    res.note(fmt("bases: %.0f intervals appended, %.0f records over %.0f shards", intervals,
                 sum_rec, static_cast<double>(parts.size())));
  }
  return res;
}

}  // namespace vbench
