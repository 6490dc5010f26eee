// vbench — one workload of the repository benchmark, in its own process.
//
//   vbench --workload capture|ingest|history --seed N --seconds S
//          [--trace 0|1] [--out DIR] [--nproc N]
//
// Prints human-readable lines, then one JSON object as the last line:
//   {"correct":..,"attempted":..,"failed":..,"e2e":{..},"layer":{..}}
// vbench/run.py builds this binary, runs it and turns that line into the
// benchmark result. Exit status: 0 when every correctness check passed,
// 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace vbench {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HostSpeed::probe() {
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // the same walk every time
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      table_[(x >> 20) & (kWords - 1)] += x;
      sink_ += table_[(x >> 40) & (kWords - 1)];
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

HostSpeed::Mark HostSpeed::mark() {
  Mark m;
  m.kernel_ms = probe();
  // The aggregate line: cpu user nice system idle iowait irq softirq steal.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                steal = 0;
  if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal &&
      cpu == "cpu") {
    m.busy_ticks = user + nice + system + irq + softirq;
    m.steal_ticks = steal;
  }
  return m;
}

std::string Spans::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[384];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"vbench\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"ph\":\"X\",\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  first ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.begin_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1000.0,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

namespace {

void print_metrics(const char* key, const std::map<std::string, Metric>& metrics) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: vbench --workload capture|ingest|history --seed N "
               "--seconds S [--trace 0|1] [--out DIR] [--nproc N]\n");
  return 2;
}

}  // namespace
}  // namespace vbench

int main(int argc, char** argv) {
  using namespace vbench;
  Options opt;
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--out") opt.out_dir = value;
    else if (flag == "--nproc") opt.nproc = std::strtoull(value.c_str(), nullptr, 10);
    else return usage();
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0 || opt.nproc == 0) return usage();

  Spans spans(opt.trace);
  Result result;
  if (opt.workload == "capture") result = run_capture(opt, spans);
  else if (opt.workload == "ingest") result = run_ingest(opt, spans);
  else if (opt.workload == "history") result = run_history(opt, spans);
  else return usage();

  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  result.note(fmt("error_rate %.6f (%.0f failed of %.0f attempted operations)",
                  error_rate, static_cast<double>(result.failed),
                  static_cast<double>(result.attempted)));
  if (opt.trace) {
    result.set_layer("bench.spans", static_cast<double>(spans.size()), "count");
    if (!opt.out_dir.empty() &&
        !write_file(opt.out_dir + "/bench_trace.json", spans.to_chrome_json())) {
      result.note("warning: cannot write " + opt.out_dir + "/bench_trace.json");
    }
  }

  for (const auto& [name, m] : result.unscaled)
    result.note("unscaled " + name + fmt(" %.9g ", m.value) + m.unit +
                " (as measured, before the host-speed scale)");
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_metrics("e2e", result.e2e);
  print_metrics("unscaled", result.unscaled);
  print_metrics("layer", result.layer);
  std::printf("}\n");
  return result.correct ? 0 : 1;
}
