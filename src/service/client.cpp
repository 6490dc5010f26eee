#include "service/client.hpp"

#include <algorithm>
#include <sstream>

#include "core/code_map.hpp"
#include "core/sample_log.hpp"
#include "memprof/object_map.hpp"
#include "support/framed.hpp"
#include "support/str_scan.hpp"
#include "support/traced_mutex.hpp"

namespace viprof::service {

namespace {

constexpr const char* kManifestPath = "archive/manifest";

}  // namespace

ReplayClient::ReplayClient(const os::Vfs& world, std::string session_id, Transport& out,
                           ReplayOptions options)
    : world_(world), session_id_(std::move(session_id)), out_(out), options_(options) {}

bool ReplayClient::send(FrameType type, std::initializer_list<std::string_view> payload) {
  if (disconnected_) return false;
  if (options_.fault != nullptr &&
      options_.fault->should_kill(support::FaultComponent::kClient, frames_sent_)) {
    disconnected_ = true;
    return false;
  }
  support::TraceContext trace = options_.trace;
  trace.parent_span = frames_sent_;  // which client hop this frame was
  encode_frame(frame_, type, payload, trace);
  const std::uint64_t t0 = support::monotonic_ns();
  const bool sent = out_.send(frame_);
  send_ns_ += support::monotonic_ns() - t0;
  if (!sent) {
    disconnected_ = true;
    return false;
  }
  ++frames_sent_;
  bytes_sent_ += frame_.size();
  return true;
}

bool ReplayClient::send_file(const std::string& path) {
  const auto bytes = world_.read(path);
  if (!bytes) return true;  // nothing recorded under that path
  return send(FrameType::kFile, {path, "\n", *bytes});
}

bool ReplayClient::announce_maps(const std::map<hw::Pid, std::uint64_t>& needed) {
  for (VmInfo& vm : vms_) {
    const auto it = needed.find(vm.pid);
    if (it == needed.end()) continue;
    while (!vm.pending_maps.empty() && vm.pending_maps.front().first <= it->second) {
      if (!send_file(vm.pending_maps.front().second)) return false;
      vm.pending_maps.erase(vm.pending_maps.begin());
    }
  }
  return true;
}

bool ReplayClient::any_map_pending() const {
  return std::any_of(vms_.begin(), vms_.end(),
                     [](const VmInfo& vm) { return !vm.pending_maps.empty(); });
}

bool ReplayClient::stream_event_log(hw::EventKind event) {
  const auto raw = world_.read(core::SampleLogWriter::path_for("samples", event));
  if (!raw) return true;  // event not recorded
  const std::string_view log = *raw;

  const std::string header_prefix =
      "batch " + std::string(hw::to_string(event)) + " ";
  std::string header;
  std::size_t batch_begin = 0;  // the batch is log[batch_begin, end)
  std::size_t batch_lines = 0;
  std::map<hw::Pid, std::uint64_t> needed;  // per-pid max epoch in this batch

  // Reads pid and epoch through the server's own grammar: a line that does
  // not verify pulls no map forward (the server will discard it anyway).
  // Once every map is announced there is nothing left to pull, and no
  // line is read at all.
  bool maps_pending = any_map_pending();
  auto peek = [&](std::string_view line) {
    if (!maps_pending) return;
    support::framed::Frame frame;
    core::LoggedSample sample;
    if (!support::framed::verify_line(line, frame) ||
        !core::parse_record(frame.payload, sample))
      return;
    auto [it, inserted] = needed.emplace(sample.pid, sample.epoch);
    if (!inserted) it->second = std::max(it->second, sample.epoch);
  };

  auto flush = [&](std::size_t end) -> bool {
    if (batch_lines == 0) return true;
    if (!announce_maps(needed)) return false;
    header = header_prefix;
    header += std::to_string(batch_lines);
    header += '\n';
    // A torn final line goes out newline-terminated: the server counts it
    // as one torn line of its size + 1 bytes.
    const bool torn_tail = end == log.size() && log.back() != '\n';
    if (!send(FrameType::kSampleBatch,
              {header, log.substr(batch_begin, end - batch_begin), torn_tail ? "\n" : ""}))
      return false;
    ++batches_sent_;
    records_sent_ += batch_lines;
    batch_begin = end;
    batch_lines = 0;
    needed.clear();
    maps_pending = any_map_pending();
    return true;
  };

  support::LineCursor lines(log);
  std::string_view line;
  while (lines.next(line)) {
    peek(line);
    const std::size_t end = static_cast<std::size_t>(line.data() - log.data()) +
                            line.size() + 1;
    if (++batch_lines >= options_.batch_records && !flush(end)) return false;
  }
  if (!lines.tail().empty()) {
    peek(lines.tail());
    ++batch_lines;
  }
  return flush(log.size());
}

bool ReplayClient::run() {
  const std::uint64_t t0 = support::monotonic_ns();
  const std::uint64_t send_ns0 = send_ns_;
  const bool ok = stream_session();
  encode_ns_ += support::monotonic_ns() - t0 - (send_ns_ - send_ns0);
  return ok;
}

bool ReplayClient::stream_session() {
  if (!send(FrameType::kHello, {session_id_})) return false;
  if (!send(FrameType::kOpenSession, {session_id_})) return false;

  const auto manifest = world_.read(kManifestPath);
  if (manifest) {
    // Registrations first (live table), then the manifest itself (the
    // resolver world), then the boot maps it references.
    std::istringstream in(*manifest);
    std::string line;
    std::vector<std::string> boot_maps;
    while (std::getline(in, line)) {
      if (line.rfind("reg ", 0) != 0) continue;
      if (!send(FrameType::kRegisterVm, {line})) return false;

      std::istringstream ls(line);
      std::string tag, lo, hi, boot, map_path, jit_dir;
      std::uint64_t boot_size;
      VmInfo vm;
      ls >> tag >> vm.pid >> lo >> hi >> boot >> boot_size >> map_path >> jit_dir;
      if (ls.fail()) continue;
      // VMs sharing one boot image reference the same map: send it once.
      if (map_path != "-" &&
          std::find(boot_maps.begin(), boot_maps.end(), map_path) == boot_maps.end())
        boot_maps.push_back(map_path);
      if (jit_dir != "-") {
        vm.jit_map_dir = jit_dir;
        const std::string prefix = jit_dir + "/" + std::to_string(vm.pid) + "/";
        for (const std::string& path : world_.list(prefix)) {
          const auto epoch = core::CodeMapFile::epoch_from_path(path);
          if (epoch) vm.pending_maps.emplace_back(*epoch, path);
        }
      }
      // Optional 8th token (absent in old manifests): the object-map dir.
      // Object maps announce on the same epoch schedule as code maps — a
      // batch referencing epoch E needs both maps of E on the server first.
      std::string obj_dir;
      ls >> obj_dir;
      if (!obj_dir.empty() && obj_dir != "-") {
        const std::string prefix = obj_dir + "/" + std::to_string(vm.pid) + "/";
        for (const std::string& path : world_.list(prefix)) {
          const auto epoch = memprof::ObjectMapFile::epoch_from_path(path);
          if (epoch) vm.pending_maps.emplace_back(*epoch, path);
        }
      }
      std::sort(vm.pending_maps.begin(), vm.pending_maps.end());
      vms_.push_back(std::move(vm));
    }
    if (!send_file(kManifestPath)) return false;
    for (const std::string& path : boot_maps)
      if (!send_file(path)) return false;
  }

  for (hw::EventKind event : hw::kAllEventKinds)
    if (!stream_event_log(event)) return false;

  // Trailing maps no sample forced out (e.g. the final epoch's object map,
  // which may carry only death records) still belong to the session: flush
  // them so the server's world matches the recorded one exactly.
  for (VmInfo& vm : vms_)
    for (const auto& [epoch, path] : vm.pending_maps)
      if (!send_file(path)) return false;

  return send(FrameType::kEndStream, {});
}

}  // namespace viprof::service
