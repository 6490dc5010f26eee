// ingest — the continuous-profiling service, in process.
//
// One ReplayClient streams one recorded session with heavy epoch churn
// (many epochs, a moderate method count) into a ProfileServer under
// backpressure, closed loop at full rate, no concurrent queries. Code-map
// reload and index build are a large share of the work, so the
// per-session serial points (parse under the session ingest lock, the
// all-epochs map reload under the world lock) dominate. After each drain
// a closed-loop client queries the idle server with `top 20`,
// `since-epoch K` and `arcs 10`.
//
// The workload repeats "fresh server, stream, drain, query" until the time
// budget is spent and reports medians over those repetitions.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/archive.hpp"
#include "core/code_map.hpp"
#include "core/report.hpp"
#include "core/sample_log.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace vbench {

namespace {

using namespace viprof;

constexpr int kSetupReps = 7;
constexpr std::size_t kTop = 20;
constexpr int kQueriesPerRound = 100;

/// Benchmark-side Transport in front of a ServerConnection (traced runs
/// only): times every send, split by frame kind, emits one span per frame,
/// and keeps a copy of each frame for the staged replay.
class TimedTransport final : public service::Transport {
 public:
  TimedTransport(service::Transport& inner, Spans& spans, std::uint64_t parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  bool send(const std::string& bytes) override {
    service::FrameDecoder decoder;
    decoder.feed(bytes);
    service::Frame frame;
    const bool whole = decoder.next(frame);
    const std::uint64_t id = spans_.next_id();
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_.send(bytes);
    const std::uint64_t t1 = now_ns();
    if (!whole) return ok;
    if (frame.type == service::FrameType::kSampleBatch) {
      batch_ns += t1 - t0;
      unsigned long long n = 0;
      char name[64] = {};
      if (std::sscanf(frame.payload.c_str(), "batch %63s %llu", name, &n) == 2)
        batch_records += n;
      spans_.add("service.receive_batch", t0, t1, id, parent_);
    } else {
      world_ns += t1 - t0;
      spans_.add("service.receive_world", t0, t1, id, parent_);
    }
    frames.push_back(std::move(frame));
    return ok;
  }
  void close() override { inner_.close(); }
  bool is_closed() const override { return inner_.is_closed(); }

  std::uint64_t batch_ns = 0, world_ns = 0, batch_records = 0;
  std::vector<service::Frame> frames;

 private:
  service::Transport& inner_;
  Spans& spans_;
  const std::uint64_t parent_;
};

/// One client's view of a streamed session.
struct ClientRun {
  bool ok = false;
  std::uint64_t records = 0;
  std::uint64_t end_ns = 0;  // when client.run() returned
  double run_ms = 0;         // whole client.run()
  std::unique_ptr<TimedTransport> timed;
};

ClientRun stream(service::ProfileServer& server, const os::Vfs& world,
                 const std::string& id, Spans& spans, std::uint64_t parent) {
  ClientRun out;
  auto conn = server.connect(id);
  service::Transport* wire = conn.get();
  if (spans.enabled()) {
    out.timed = std::make_unique<TimedTransport>(*conn, spans, parent);
    wire = out.timed.get();
  }
  service::ReplayClient client(world, id, *wire, service::ReplayOptions{256, nullptr, {}});
  const std::uint64_t t0 = now_ns();
  out.ok = client.run();
  out.end_ns = now_ns();
  out.run_ms = static_cast<double>(out.end_ns - t0) / 1e6;
  spans.add("client.run", t0, out.end_ns, parent, parent);
  out.records = client.records_sent();
  return out;
}

/// The server's index cache resolves JIT PCs through per-pid indexes
/// pinned at the batch's epoch ceiling; the staged replay does the same.
class StagedJit final : public core::JitIndexSource {
 public:
  const core::CodeMapIndex* index_for(hw::Pid pid, std::uint64_t) const override {
    auto it = indexes.find(pid);
    return it == indexes.end() ? nullptr : &it->second.second;
  }
  std::map<hw::Pid, std::pair<std::uint64_t, core::CodeMapIndex>> indexes;
};

struct StageLedger {
  std::uint64_t records = 0, index_builds = 0;
  double parse_ms = 0, index_ms = 0, resolve_ms = 0, fold_ms = 0;
  bool matches_offline = false;
};

/// Replays one session's captured frames stage by stage through the same
/// public functions the server calls: SampleStreamParser, CodeMapIndex
/// load/prepare at each epoch-ceiling rise, ArchiveResolver::resolve and
/// Profile::add. The resulting profile must render exactly as the offline
/// oracle does, which shows the replay did the server's work.
StageLedger staged_replay(const std::vector<service::Frame>& frames,
                          const std::string& oracle) {
  StageLedger led;
  os::Vfs world;
  std::map<hw::Pid, std::uint64_t> ceilings;
  std::map<std::string, core::SampleStreamParser> parsers;
  std::unique_ptr<core::ArchiveResolver> resolver;
  StagedJit jit;
  core::Profile profile;
  std::vector<core::LoggedSample> samples;
  std::vector<core::Resolution> resolved;
  for (const service::Frame& f : frames) {
    if (f.type == service::FrameType::kFile) {
      const std::size_t nl = f.payload.find('\n');
      const std::string path = f.payload.substr(0, nl);
      world.write(path, f.payload.substr(nl + 1));
      const auto epoch = core::CodeMapFile::epoch_from_path(path);
      const std::size_t last = path.rfind('/');
      const std::size_t prev = last == std::string::npos ? last : path.rfind('/', last - 1);
      if (epoch && prev != std::string::npos) {
        const hw::Pid pid = static_cast<hw::Pid>(
            std::strtoul(path.substr(prev + 1, last - prev - 1).c_str(), nullptr, 10));
        std::uint64_t& c = ceilings[pid];
        c = std::max(c, *epoch);
      }
      continue;
    }
    if (f.type != service::FrameType::kSampleBatch) continue;
    // Like the server, build the resolver at the first batch, once the
    // manifest and the boot maps it names have arrived.
    if (!resolver && world.exists("archive/manifest"))
      resolver = std::make_unique<core::ArchiveResolver>(world, "archive", true, false);
    if (!resolver) continue;
    const std::size_t nl = f.payload.find('\n');
    char name[64] = {};
    unsigned long long declared = 0;
    if (std::sscanf(f.payload.c_str(), "batch %63s %llu", name, &declared) != 2) continue;
    hw::EventKind event = hw::EventKind::kGlobalPowerEvents;
    for (hw::EventKind e : hw::kAllEventKinds)
      if (std::string(name) == hw::to_string(e)) event = e;

    std::uint64_t t0 = now_ns();
    samples.clear();
    parsers[name].parse_into(std::string_view(f.payload).substr(nl + 1), samples);
    led.parse_ms += ms_since(t0);
    led.records += samples.size();

    t0 = now_ns();
    for (const auto& [pid, ceiling] : ceilings) {
      auto it = jit.indexes.find(pid);
      if (it != jit.indexes.end() && it->second.first == ceiling) continue;
      core::CodeMapIndex index;
      index.load(world, "jit_maps", pid);
      index.prepare();
      jit.indexes.insert_or_assign(pid, std::make_pair(ceiling, std::move(index)));
      ++led.index_builds;
    }
    led.index_ms += ms_since(t0);

    t0 = now_ns();
    resolved.clear();
    for (const core::LoggedSample& s : samples) resolved.push_back(resolver->resolve(s, &jit));
    led.resolve_ms += ms_since(t0);

    t0 = now_ns();
    for (const core::Resolution& r : resolved) profile.add(event, r);
    led.fold_ms += ms_since(t0);
  }
  led.matches_offline = profile.render(kReportEvents, kTop) == oracle;
  return led;
}

/// The recorded session, re-logged with its samples sorted by epoch, as a
/// live VM emits them: every epoch's first sample raises the server's
/// epoch ceiling and forces a code-map reload. record_scenario draws each
/// sample's epoch uniformly at random instead.
std::unique_ptr<os::Vfs> record(std::uint64_t seed) {
  service::ScenarioConfig sc;
  sc.vms = 2;
  sc.samples_per_event = 30'000;
  sc.epochs = 64;
  sc.methods = 256;
  sc.seed = seed * 0x9e3779b97f4a7c15ULL;
  const std::unique_ptr<service::RecordedScenario> recorded = service::record_scenario(sc);
  const os::Vfs& in = recorded->vfs();
  auto out = std::make_unique<os::Vfs>();
  for (const std::string& path : in.list(""))
    if (path.rfind("samples/", 0) != 0) out->write(path, *in.read(path));
  core::SampleLogWriter writer(*out, "samples");
  for (hw::EventKind event : kReportEvents) {
    std::vector<core::LoggedSample> samples = core::SampleLogReader::read(in, "samples", event);
    std::stable_sort(samples.begin(), samples.end(),
                     [](const core::LoggedSample& a, const core::LoggedSample& b) {
                       return a.epoch < b.epoch;
                     });
    for (std::size_t i = 0; i < samples.size(); ++i) {
      samples[i].cycle = i;
      writer.append(event, samples[i]);
    }
    writer.flush();
  }
  return out;
}

/// Per-repetition numbers kept for the medians.
struct Rep {
  double wall_ms = 0, drain_ms = 0;
  double encode_ms = 0, receive_ms = 0, world_ms = 0;  // client stages (traced runs)
  std::uint64_t batch_records = 0, client_records = 0;
};

}  // namespace

Result run_ingest(const Options& opt, Spans& spans) {
  Result res;
  const std::string id = "ingest-0";
  constexpr std::uint64_t kEpochs = 64;
  // Thread budget (nproc): the client is the main thread, the ingest pool
  // gets the rest.
  service::ServerConfig config;
  config.ingest_threads = opt.nproc > 1 ? opt.nproc - 1 : 1;
  config.policy = service::OverloadPolicy::kBackpressure;

  // ---- set-up: input generation and server construction; timed again
  // during the run ----
  HostSpeed host;
  Timings setup_s;
  const auto set_up = [&] {
    const HostSpeed::Mark before = host.mark();
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<os::Vfs> out = record(opt.seed);
    service::ProfileServer fresh(config);
    setup_s.add_time(static_cast<double>(now_ns() - t0) / 1e9, host.scale_since(before));
    return out;
  };
  const std::unique_ptr<os::Vfs> world = set_up();
  // since-epoch K: the upper half of the recorded epochs.
  const std::string verbs[3] = {"top 20", "since-epoch " + std::to_string(kEpochs / 2),
                                "arcs 10"};

  // The oracle: the session's offline report at nproc resolve threads.
  const std::string oracle = service::offline_render(*world, kReportEvents, kTop, opt.nproc);

  // ---- measured phase: rounds of stream + drain, one offline report and
  // a batch of closed-loop queries, so that every metric samples the whole
  // run ----
  const std::uint64_t start = now_ns();
  const auto elapsed_s = [start] { return static_cast<double>(now_ns() - start) / 1e9; };
  std::vector<Rep> reps;
  Timings rps, report_ms, query_us;
  std::vector<double> verb_us[3];
  std::unique_ptr<service::ProfileServer> server;
  std::unique_ptr<TimedTransport> last_timed;

  // Rounds run for the budget and until 1000 queries ran, but never past
  // three budgets.
  const auto more_rounds = [&] {
    return (elapsed_s() < opt.seconds || query_us.size() < 1000) &&
           elapsed_s() < 3 * opt.seconds;
  };
  for (std::size_t round = 0; reps.empty() || more_rounds(); ++round) {
    const bool warm = warming(round, elapsed_s(), opt.seconds);
    server = std::make_unique<service::ProfileServer>(config);
    const std::uint64_t rep_id = spans.next_id();
    const HostSpeed::Mark before = host.mark();
    const std::uint64_t t0 = now_ns();
    ClientRun run = stream(*server, *world, id, spans, rep_id);
    const std::uint64_t d0 = now_ns();
    server->drain();
    const std::uint64_t t1 = now_ns();
    spans.add("service.drain", d0, t1, rep_id, rep_id);
    spans.add("ingest.rep", t0, t1, rep_id);

    Rep rep;
    rep.wall_ms = static_cast<double>(t1 - t0) / 1e6;
    rep.drain_ms = static_cast<double>(t1 - d0) / 1e6;
    rep.client_records = run.records;
    if (run.timed) {
      rep.receive_ms = static_cast<double>(run.timed->batch_ns) / 1e6;
      rep.world_ms = static_cast<double>(run.timed->world_ns) / 1e6;
      rep.encode_ms = run.run_ms - rep.receive_ms - rep.world_ms;
      rep.batch_records = run.timed->batch_records;
    }

    // Every repetition: the online aggregate must be byte-identical to the
    // offline report, with nothing dropped.
    res.count(1, run.ok ? 0 : 1);
    const service::SessionStats st = server->session(id)->stats();
    res.count(st.batches_enqueued + st.batches_dropped, st.batches_dropped);
    res.check(server->session_report(id, kTop, kReportEvents) == oracle,
              id + ": online aggregate == offline report");
    last_timed = std::move(run.timed);

    // The offline report at one resolve thread: timed, and checked against
    // the nproc-thread oracle.
    const std::uint64_t r0 = now_ns();
    const std::string offline = service::offline_render(*world, kReportEvents, kTop);
    const std::uint64_t r1 = now_ns();
    spans.add("offline.report", r0, r1, spans.next_id());
    res.check(offline == oracle, id + ": offline report identical at 1 and nproc threads");
    if (warm) continue;

    // Closed-loop queries against the drained server, no writers.
    std::vector<double> round_us[3];
    for (int q = 0; q < kQueriesPerRound; ++q) {
      const std::size_t i = query_us.size() + static_cast<std::size_t>(q);
      const std::uint64_t q0 = now_ns();
      const std::string reply = server->query(verbs[i % 3] + " --session " + id);
      const std::uint64_t q1 = now_ns();
      spans.add("query", q0, q1, spans.next_id(), rep_id);
      round_us[i % 3].push_back(static_cast<double>(q1 - q0) / 1e3);
      res.count(1, is_error(reply) ? 1 : 0);
    }
    const double scale = host.scale_since(before);
    reps.push_back(rep);
    rps.add_rate(static_cast<double>(run.records) / (rep.wall_ms / 1e3), scale);
    report_ms.add_time(static_cast<double>(r1 - r0) / 1e6, scale);
    for (int v = 0; v < 3; ++v)
      for (double us : round_us[v]) {
        query_us.add_time(us, scale);
        verb_us[v].push_back(us);
      }
    if (setup_due(setup_s.size(), kSetupReps, elapsed_s(), opt.seconds)) set_up();
  }
  res.set_timing("setup_s", setup_s, 0.5, 1.0, "s");
  res.check(query_us.size() >= 1000, "at least 1000 queries in the run");
  if (opt.trace && !opt.out_dir.empty())
    res.check(write_file(opt.out_dir + "/server_trace.json", server->query("trace")),
              "server trace written");

  std::vector<double> wall, drain, encode, receive, world_ms, coverage;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_ms);
    drain.push_back(r.drain_ms);
    encode.push_back(r.encode_ms);
    receive.push_back(r.receive_ms);
    world_ms.push_back(r.world_ms);
    coverage.push_back((r.encode_ms + r.receive_ms + r.world_ms + r.drain_ms) / r.wall_ms);
  }
  res.set_timing("ingest_rps", rps, 0.5, 1.0, "1/s");
  res.set_timing("report_s", report_ms, 0.5, 1e-3, "s");
  res.set_timing("query_p50_us", query_us, 0.50, 1.0, "us");
  res.set_timing("query_p99_us", query_us, 0.99, 1.0, "us");
  const Rep& last = reps.back();
  res.note(fmt("ingest: 1 session, %.0f records per repetition, %.0f repetitions",
               static_cast<double>(last.client_records), static_cast<double>(reps.size())));
  res.note(fmt("ingest_rps: median over repetitions, wall %.1f ms per repetition; median "
               "host-speed scale %.3f",
               median(wall), host.median_scale()));
  res.note(fmt("query_p50_us, query_p99_us: %.0f closed-loop queries after drain",
               static_cast<double>(query_us.size())));

  if (opt.trace) {
    const double records = static_cast<double>(last.client_records);
    res.set_layer("client.encode_ns_per_record", median(encode) * 1e6 / records, "ns");
    res.set_layer("service.receive_ns_per_record",
                  median(receive) * 1e6 / static_cast<double>(last.batch_records), "ns");
    res.set_layer("service.world_ms", median(world_ms), "ms");
    res.set_layer("service.drain_ms", median(drain), "ms");
    res.set_layer("service.coverage", median(coverage), "ratio");
    res.note(fmt("service.coverage %.3f = (encode + receive + world + drain) / wall, "
                 "median wall %.1f ms",
                 median(coverage), median(wall)));

    const StageLedger led = staged_replay(last_timed->frames, oracle);
    res.check(led.matches_offline, "staged replay renders the offline report");
    const double staged = static_cast<double>(std::max<std::uint64_t>(led.records, 1));
    res.set_layer("service.parse_ns_per_record", led.parse_ms * 1e6 / staged, "ns");
    res.set_layer("core.index_builds", static_cast<double>(led.index_builds), "count");
    res.set_layer("core.index_build_ms", led.index_ms, "ms");
    res.set_layer("core.resolve_ns_per_record", led.resolve_ms * 1e6 / staged, "ns");
    res.set_layer("core.fold_ns_per_record", led.fold_ms * 1e6 / staged, "ns");
    res.note(fmt("per-record bases: %.0f records sent, %.0f in sample batches, %.0f "
                 "replayed",
                 records, static_cast<double>(last.batch_records), staged));

    // Server telemetry of the last repetition (its queries included).
    const support::TelemetrySnapshot tele = server->telemetry().snapshot();
    const double hits = static_cast<double>(tele.counter("service.map_cache.hits"));
    const double misses = static_cast<double>(tele.counter("service.map_cache.misses"));
    res.set_layer("service.map_cache.hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    res.note(fmt("service.map_cache.hit_ratio base: %.0f hits, %.0f misses", hits, misses));
    res.set_layer("service.lock_wait_ms.session_ingest",
                  hist_sum(tele, "lock.service.session.ingest.wait_ns") / 1e6, "ms");
    res.set_layer("service.lock_wait_ms.session_agg",
                  hist_sum(tele, "lock.service.session.agg.wait_ns") / 1e6, "ms");
    res.set_layer("service.lock_wait_ms.map_cache",
                  hist_sum(tele, "lock.service.map_cache.wait_ns") / 1e6, "ms");
    res.set_layer("service.lock_wait_ms.sessions",
                  hist_sum(tele, "lock.service.sessions.wait_ns") / 1e6, "ms");
    res.set_layer("pool.queue_wait_ms", hist_sum(tele, "lock.pool.queue.wait_ns") / 1e6,
                  "ms");
    // Busy share of the ingest pool over the last repetition: task time
    // summed over workers, over workers x wall.
    res.set_layer("pool.utilization",
                  hist_sum(tele, "pool.task_ns") / 1e6 /
                      (static_cast<double>(config.ingest_threads) * last.wall_ms),
                  "ratio");
    res.set_layer("service.queue_depth_p99", hist_p99(tele, "service.queue.depth_hist"),
                  "count");

    const char* names[3] = {"service.query_us.top", "service.query_us.since_epoch",
                            "service.query_us.arcs"};
    for (int v = 0; v < 3; ++v) res.set_layer(names[v], median(verb_us[v]), "us");
    // Query stages on the drained server, one call each into the session
    // and the profile: merge the stripes, rank, render.
    std::vector<double> merge_us, rank_us, render_us;
    double rows = 0;
    for (int k = 0; k < 20; ++k) {
      std::uint64_t t0 = now_ns();
      const core::Profile p = server->session(id)->merged_profile();
      merge_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      const auto ranked = p.ranked(hw::EventKind::kGlobalPowerEvents);
      rank_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      t0 = now_ns();
      const std::string text = p.render(kReportEvents, kTop);
      render_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      rows = static_cast<double>(ranked.size());
      res.check(!text.empty(), id + ": merged profile renders");
    }
    res.set_layer("service.merge_us", median(merge_us), "us");
    res.set_layer("core.rank_us", median(rank_us), "us");
    res.set_layer("core.render_us", median(render_us), "us");
    res.set_layer("service.rows", rows, "count");
  }
  return res;
}

}  // namespace vbench
