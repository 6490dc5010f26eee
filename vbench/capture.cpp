// capture — the paper's experiment (Fig. 2) plus the offline report.
//
// Set-up runs a fixed subset of workloads::figure2_suite() on the simulated
// machine (hw/jvm/os) twice each — base, and VIProf at the 90K period —
// plus one allocheavy run with object tracking (the viprof_sim --memprof
// configuration). That gives overhead_pct in simulated cycles and the
// exported session directories. The measured phase then renders the
// offline report of every session over and over: archive load, sample-log
// read, resolve pipeline at nproc threads, call graph, memprof section and
// render — what viprof_report does — and finally answers closed-loop view
// queries (top / arcs / memprof) from the rendered reports' state.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/archive.hpp"
#include "core/callgraph.hpp"
#include "core/report.hpp"
#include "core/resolve_pipeline.hpp"
#include "core/sample_log.hpp"
#include "core/session.hpp"
#include "memprof/agent.hpp"
#include "memprof/object_map.hpp"
#include "memprof/report.hpp"
#include "memprof/resolve.hpp"
#include "workloads/common.hpp"
#include "workloads/memmix.hpp"

namespace vbench {

namespace {

using namespace viprof;

// antlr is the paper's worst case, pseudojbb its throughput benchmark, ps
// its case study; hsqldb logs the most samples.
const char* const kPrograms[] = {"pseudojbb", "antlr", "hsqldb", "ps"};
constexpr int kSetupReps = 5;

struct SimRun {
  hw::Cycles cycles = 0;
  double host_ms = 0.0;
  support::TelemetrySnapshot telemetry;
  std::unique_ptr<os::Vfs> session;  // exported session directory (profiled runs)
};

/// One profiled (or base) run of `w`, as viprof_sim runs it.
SimRun simulate(workloads::Workload w, core::ProfilingMode mode, bool memprof_on,
                std::uint64_t seed) {
  os::MachineConfig mcfg;
  mcfg.seed = seed * 0x9e3779b97f4a7c15ULL + 0x2007;
  os::Machine machine(mcfg);
  w.vm.seed ^= seed * 0xc2b2ae3d27d4eb4fULL;
  if (memprof_on) w.vm.heap.track_objects = true;
  jvm::Vm vm(machine, w.vm);

  core::SessionConfig config;
  config.mode = mode;
  config.counters = {{hw::EventKind::kGlobalPowerEvents, 90'000, true},
                     {hw::EventKind::kBsqCacheReference, 90'000 / 64, true}};
  if (memprof_on) {
    config.counters.push_back({hw::EventKind::kObjDmiss, 90'000 / 64, true});
    config.agent.obj_map_dir = "obj_maps";
  }
  core::ProfilingSession session(machine, vm, config);
  memprof::MemProfAgent memprof_agent(machine);
  session.attach();
  if (memprof_on) vm.add_listener(&memprof_agent);
  vm.setup(w.program);

  SimRun out;
  const std::uint64_t t0 = now_ns();
  out.cycles = session.run().cycles;
  out.host_ms = ms_since(t0);
  out.telemetry = machine.telemetry().snapshot();
  if (mode != core::ProfilingMode::kBase) {
    session.export_archive();
    out.session = std::make_unique<os::Vfs>();
    for (const std::string& path : machine.vfs().list(""))
      out.session->write(path, *machine.vfs().read(path));
  }
  return out;
}

struct Session {
  std::string name;
  std::unique_ptr<os::Vfs> vfs;
  bool memprof = false;
};

/// What set-up produces: the exported sessions and the simulated costs.
struct Inputs {
  std::vector<Session> sessions;
  std::vector<double> overheads;  // per program, % over base
  double nmi = 0, daemon = 0, agent = 0, logged = 0, maps = 0, memprof_cycles = 0;
};

/// Per-stage host time of one report pass, summed over sessions.
struct Stages {
  double map_load_ms = 0, log_read_ms = 0, resolve_ms = 0, callgraph_ms = 0;
  double omap_load_ms = 0, obj_resolve_ms = 0, fold_ms = 0, render_ms = 0;
  std::uint64_t pc_samples = 0, obj_samples = 0, walk_steps = 0;
};

/// What the offline report leaves behind: the state the view queries read.
struct Report {
  core::Profile profile;
  core::CallGraph graph;
  memprof::SiteTable sites;
  core::Profile objects;
  bool memprof = false;
  std::string text;
};

std::string render_views(const Report& r) {
  std::string text = r.profile.render(kReportEvents, 20) + r.graph.render(10);
  if (r.memprof) text += memprof::render_memprof(r.sites, r.objects, 20);
  return text;
}

/// The viprof_report pipeline over one exported session, stage by stage,
/// each stage a call into a public core/memprof function.
Report build_report(const Session& s, std::size_t threads, Stages& st, Spans& spans,
                    std::uint64_t parent) {
  Report r;
  r.memprof = s.memprof;
  std::uint64_t t0 = now_ns();
  const core::ArchiveResolver resolver(*s.vfs, "archive", /*vm_aware=*/true);
  std::uint64_t t1 = now_ns();
  spans.add("core.map_load", t0, t1, parent, parent);
  st.map_load_ms += static_cast<double>(t1 - t0) / 1e6;

  t0 = now_ns();
  std::vector<std::vector<core::LoggedSample>> logs;
  for (hw::EventKind e : kReportEvents)
    logs.push_back(core::SampleLogReader::read(*s.vfs, "samples", e));
  const std::vector<core::LoggedSample> obj_log =
      s.memprof ? core::SampleLogReader::read(*s.vfs, "samples", hw::EventKind::kObjDmiss)
                : std::vector<core::LoggedSample>{};
  t1 = now_ns();
  spans.add("core.log_read", t0, t1, parent, parent);
  st.log_read_ms += static_cast<double>(t1 - t0) / 1e6;

  t0 = now_ns();
  core::ResolvePipeline pipeline(core::PipelineConfig{threads});
  const auto resolve_fn = [&resolver](const core::LoggedSample& smp,
                                      core::ResolveStats& rs) {
    core::Resolution res = resolver.resolve(smp);
    rs.backward_steps += res.maps_searched;
    return res;
  };
  for (std::size_t i = 0; i < kReportEvents.size(); ++i) {
    st.walk_steps +=
        pipeline.aggregate_profile(logs[i], kReportEvents[i], resolve_fn, r.profile)
            .backward_steps;
    st.pc_samples += logs[i].size();
  }
  t1 = now_ns();
  spans.add("core.resolve", t0, t1, parent, parent);
  st.resolve_ms += static_cast<double>(t1 - t0) / 1e6;

  t0 = now_ns();
  for (const core::LoggedSample& smp : logs[0]) {
    if (smp.caller_pc == 0) continue;
    r.graph.add_resolved(
        resolver.resolve_pc(smp.caller_pc, hw::CpuMode::kUser, smp.pid, smp.epoch),
        resolver.resolve(smp));
  }
  t1 = now_ns();
  spans.add("core.callgraph", t0, t1, parent, parent);
  st.callgraph_ms += static_cast<double>(t1 - t0) / 1e6;

  if (s.memprof) {
    t0 = now_ns();
    std::map<hw::Pid, core::CodeMapIndex> indexes;
    for (const core::VmRegistration& reg : resolver.registrations()) {
      if (reg.obj_map_dir.empty()) continue;
      memprof::ObjectIndexLoad load =
          memprof::load_object_index(*s.vfs, reg.obj_map_dir, reg.pid);
      for (const memprof::ObjectMapFile& file : load.files) r.sites.ingest(reg.pid, file);
      indexes.emplace(reg.pid, std::move(load.index));
    }
    t1 = now_ns();
    spans.add("memprof.omap_load", t0, t1, parent, parent);
    st.omap_load_ms += static_cast<double>(t1 - t0) / 1e6;

    t0 = now_ns();
    std::vector<core::Resolution> resolved;
    resolved.reserve(obj_log.size());
    for (const core::LoggedSample& smp : obj_log) {
      const auto it = indexes.find(smp.pid);
      resolved.push_back(memprof::resolve_object(
          it == indexes.end() ? nullptr : &it->second, smp.pc, smp.epoch));
    }
    t1 = now_ns();
    spans.add("memprof.resolve", t0, t1, parent, parent);
    st.obj_resolve_ms += static_cast<double>(t1 - t0) / 1e6;
    st.obj_samples += obj_log.size();

    t0 = now_ns();
    for (const core::Resolution& res : resolved) r.objects.add(hw::EventKind::kObjDmiss, res);
    t1 = now_ns();
    spans.add("memprof.fold", t0, t1, parent, parent);
    st.fold_ms += static_cast<double>(t1 - t0) / 1e6;
  }

  t0 = now_ns();
  r.text = render_views(r);
  t1 = now_ns();
  spans.add("core.render", t0, t1, parent, parent);
  st.render_ms += static_cast<double>(t1 - t0) / 1e6;
  return r;
}

}  // namespace

Result run_capture(const Options& opt, Spans& spans) {
  Result res;
  std::vector<workloads::Workload> programs;
  for (const workloads::Workload& w : workloads::figure2_suite())
    for (const char* name : kPrograms)
      if (w.name == name) programs.push_back(w);
  res.check(programs.size() == std::size(kPrograms), "figure2_suite has every program");

  // ---- set-up: the profiled simulations; timed again during the run ----
  HostSpeed host;
  Timings setup_s;
  std::vector<double> base_ms, viprof_ms, memprof_ms;
  const auto set_up = [&] {
    const HostSpeed::Mark before = host.mark();
    const std::uint64_t t0 = now_ns();
    Inputs in;
    double b_ms = 0, v_ms = 0;
    for (const workloads::Workload& w : programs) {
      SimRun base = simulate(w, core::ProfilingMode::kBase, false, opt.seed);
      SimRun prof = simulate(w, core::ProfilingMode::kViprof, false, opt.seed);
      b_ms += base.host_ms;
      v_ms += prof.host_ms;
      in.overheads.push_back(100.0 * (static_cast<double>(prof.cycles) /
                                          static_cast<double>(base.cycles) -
                                      1.0));
      in.nmi += prof.telemetry.gauge("profiler.cycles.nmi");
      in.daemon += prof.telemetry.gauge("profiler.cycles.daemon");
      in.agent += prof.telemetry.gauge("profiler.cycles.agent");
      in.logged += static_cast<double>(prof.telemetry.counter("daemon.drained"));
      in.maps += static_cast<double>(prof.telemetry.counter("agent.maps_written"));
      in.sessions.push_back(Session{w.name, std::move(prof.session), false});
    }
    SimRun mem = simulate(workloads::make_alloc_heavy(), core::ProfilingMode::kViprof,
                          true, opt.seed);
    in.memprof_cycles = hist_sum(mem.telemetry, "memprof.map_write.cost_cycles");
    in.sessions.push_back(Session{"allocheavy", std::move(mem.session), true});
    setup_s.add_time(static_cast<double>(now_ns() - t0) / 1e9, host.scale_since(before));
    base_ms.push_back(b_ms);
    viprof_ms.push_back(v_ms);
    memprof_ms.push_back(mem.host_ms);
    return in;
  };
  const Inputs in = set_up();
  const std::vector<Session>& sessions = in.sessions;
  double overhead = 0.0;
  for (double o : in.overheads) overhead += o;
  overhead /= static_cast<double>(in.overheads.size());

  // ---- measured phase: rounds of one report pass over every session and
  // a batch of closed-loop view queries over the reports just built ----
  const std::uint64_t start = now_ns();
  const auto elapsed_s = [start] { return static_cast<double>(now_ns() - start) / 1e9; };
  constexpr int kQueriesPerRound = 200;
  Timings report_ms, rps, query_us;
  std::vector<Stages> stages;
  std::vector<Report> reports;
  std::uint64_t total_samples = 0, query_failed = 0;
  // Rounds run for the budget and until 1000 queries ran, but never past
  // three budgets.
  const auto more_rounds = [&] {
    return (elapsed_s() < opt.seconds || query_us.size() < 1000) &&
           elapsed_s() < 3 * opt.seconds;
  };
  for (std::size_t round = 0; report_ms.empty() || more_rounds(); ++round) {
    const bool warm = warming(round, elapsed_s(), opt.seconds);
    Stages st;
    const HostSpeed::Mark before = host.mark();
    const std::uint64_t t0 = now_ns();
    reports.clear();
    for (const Session& s : sessions) {
      const std::uint64_t id = spans.next_id();
      const std::uint64_t r0 = now_ns();
      reports.push_back(build_report(s, opt.nproc, st, spans, id));
      spans.add("capture.report", r0, now_ns(), id);
    }
    const double ms = ms_since(t0);
    res.count(sessions.size(), 0);
    if (warm) continue;
    total_samples = st.pc_samples + st.obj_samples;
    stages.push_back(st);

    std::vector<double> round_us;
    for (int q = 0; q < kQueriesPerRound; ++q) {
      const std::size_t i = query_us.size() + round_us.size();
      const Report& r = reports[i % reports.size()];
      // Three `top 20` renders for each `arcs 10` (and memprof section):
      // with the top render a clear majority, the median falls inside its
      // latency cluster rather than in the gap between two verbs.
      const std::size_t k = (i / reports.size()) % (r.memprof ? 5 : 4);
      const std::size_t verb = k < 3 ? 0 : k - 2;
      const std::uint64_t q0 = now_ns();
      std::string out;
      if (verb == 0) out = r.profile.render(kReportEvents, 20);
      else if (verb == 1) out = r.graph.render(10);
      else out = memprof::render_memprof(r.sites, r.objects, 20);
      const std::uint64_t q1 = now_ns();
      spans.add("capture.query", q0, q1, spans.next_id());
      round_us.push_back(static_cast<double>(q1 - q0) / 1e3);
      if (is_error(out)) ++query_failed;
    }
    const double scale = host.scale_since(before);
    report_ms.add_time(ms, scale);
    rps.add_rate(static_cast<double>(total_samples) / (ms / 1e3), scale);
    for (double us : round_us) query_us.add_time(us, scale);
    if (setup_due(setup_s.size(), kSetupReps, elapsed_s(), opt.seconds))
      res.check(set_up().overheads == in.overheads,
                "simulated cycles repeat exactly per seed");
  }
  res.set_timing("setup_s", setup_s, 0.5, 1.0, "s");
  res.count(query_us.size(), query_failed);
  res.check(query_us.size() >= 1000, "at least 1000 queries in the run");

  // ---- correctness (after the clock stops) ----
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Stages scratch;
    Spans off(false);
    const Report serial = build_report(sessions[i], 1, scratch, off, 0);
    res.check(serial.text == reports[i].text,
              sessions[i].name + ": report identical at 1 and nproc resolve threads");
    res.check(serial.profile.total(hw::EventKind::kGlobalPowerEvents) > 0,
              sessions[i].name + ": report has time samples");
    if (sessions[i].memprof) {
      const core::ArchiveResolver resolver(*sessions[i].vfs, "archive", true);
      const memprof::ObjectReport lib = memprof::build_object_report(
          *sessions[i].vfs, "samples", resolver.registrations());
      res.check(lib.samples > 0 && memprof::render_memprof(lib.sites, lib.profile, 20) ==
                                       memprof::render_memprof(serial.sites,
                                                               serial.objects, 20),
                "allocheavy: staged memprof section == build_object_report");
    }
  }

  res.set_timing("report_s", report_ms, 0.5, 1e-3, "s");
  res.set_timing("ingest_rps", rps, 0.5, 1.0, "1/s");
  res.set_timing("query_p50_us", query_us, 0.50, 1.0, "us");
  res.set_timing("query_p99_us", query_us, 0.99, 1.0, "us");
  res.note(fmt("capture: %.0f sessions, %.0f samples per report pass", sessions.size(),
               static_cast<double>(total_samples)));
  res.note(fmt("overhead_pct %.3f %% (VIProf@90K vs base, simulated cycles, mean of %.0f "
               "programs)",
               overhead, static_cast<double>(in.overheads.size())));
  res.note(fmt("report_s: median of %.0f passes over %.0f sessions; median host-speed "
               "scale %.3f",
               static_cast<double>(report_ms.size()), sessions.size(), host.median_scale()));
  res.note(fmt("query_p50_us, query_p99_us: %.0f closed-loop queries",
               static_cast<double>(query_us.size())));

  if (opt.trace) {
    const auto med = [&stages](auto field) {
      std::vector<double> v;
      for (const Stages& st : stages) v.push_back(field(st));
      return median(v);
    };
    const Stages& last = stages.back();
    res.set_layer("overhead_pct", overhead, "%");
    res.set_layer("core.nmi_cycles", in.nmi, "cycles");
    res.set_layer("core.daemon_cycles", in.daemon, "cycles");
    res.set_layer("core.agent_cycles", in.agent, "cycles");
    res.set_layer("memprof.agent_cycles", in.memprof_cycles, "cycles");
    res.set_layer("core.samples_logged", in.logged, "count");
    res.set_layer("core.maps_written", in.maps, "count");
    res.set_layer("core.map_load_ms", med([](const Stages& s) { return s.map_load_ms; }), "ms");
    res.set_layer("core.log_read_ms", med([](const Stages& s) { return s.log_read_ms; }), "ms");
    res.set_layer("core.resolve_ns_per_sample",
                  med([](const Stages& s) { return s.resolve_ms; }) * 1e6 /
                      static_cast<double>(last.pc_samples),
                  "ns");
    res.set_layer("core.walk_steps_per_sample",
                  static_cast<double>(last.walk_steps) / static_cast<double>(last.pc_samples),
                  "count");
    res.set_layer("core.callgraph_ms", med([](const Stages& s) { return s.callgraph_ms; }), "ms");
    res.set_layer("core.render_ms", med([](const Stages& s) { return s.render_ms; }), "ms");
    res.set_layer("memprof.omap_load_ms", med([](const Stages& s) { return s.omap_load_ms; }),
                  "ms");
    res.set_layer("memprof.resolve_ns_per_sample",
                  med([](const Stages& s) { return s.obj_resolve_ms; }) * 1e6 /
                      static_cast<double>(std::max<std::uint64_t>(last.obj_samples, 1)),
                  "ns");
    res.set_layer("memprof.fold_ms", med([](const Stages& s) { return s.fold_ms; }), "ms");
    res.set_layer("sim.run_ms.base", median(base_ms), "ms");
    res.set_layer("sim.run_ms.viprof", median(viprof_ms), "ms");
    res.set_layer("sim.run_ms.memprof", median(memprof_ms), "ms");
    res.note(fmt("per-sample bases: %.0f PC samples, %.0f object samples per pass",
                 static_cast<double>(last.pc_samples), static_cast<double>(last.obj_samples)));
  }
  return res;
}

}  // namespace vbench
