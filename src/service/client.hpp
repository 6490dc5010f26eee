// Replay client: streams a recorded session directory to the server.
//
// The recorded layout is exactly what offline viprof_report consumes —
// archive/manifest, the boot maps and epoch code maps it references, and
// the per-event sample logs. The client replays that world over the wire:
// session open, registrations, world files, then the raw (already
// checksummed) sample-log lines chunked into batches. Code maps are
// announced *incrementally*: before each batch the client ships every
// not-yet-sent map whose epoch the batch is about to reference, modelling
// a VM that emits maps as it compiles. Each batch is one contiguous slice
// of the raw log, forwarded byte for byte, damaged lines included: the
// server's stream parser, the same code the offline reader uses, is the
// single point that accepts or discards a line. The client reads a line's
// pid and epoch through that same grammar (verify, then parse_record)
// only to decide which maps to announce, so a line that fails its crc
// pulls no map forward.
//
// A FaultInjector with a kClient kill rule models a mid-stream
// disconnect: the client stops cold after N frames, without kEndStream.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hw/event.hpp"
#include "hw/types.hpp"
#include "os/vfs.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "support/fault.hpp"

namespace viprof::service {

struct ReplayOptions {
  std::size_t batch_records = 256;          // sample lines per kSampleBatch
  support::FaultInjector* fault = nullptr;  // kClient = disconnect after N frames
  /// When valid, every frame carries the trace extension: trace_id from
  /// here, parent_span = the frame's send ordinal (so the server can tell
  /// which client-side hop each ingest span descends from).
  support::TraceContext trace;
};

class ReplayClient {
 public:
  /// `world` holds the recorded session; `out` is the connection to
  /// stream it over (typically a ServerConnection).
  ReplayClient(const os::Vfs& world, std::string session_id, Transport& out,
               ReplayOptions options = {});

  /// Streams the whole session. False when a disconnect fault (or a
  /// closed transport) ended the stream early — kEndStream not sent.
  bool run();

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t batches_sent() const { return batches_sent_; }
  std::uint64_t records_sent() const { return records_sent_; }
  /// Frame bytes handed to the transport.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// The client's own cost in run(): wall time less the time spent inside
  /// the transport's send() (which, over a loopback connection, is the
  /// server's receive path).
  std::uint64_t encode_ns() const { return encode_ns_; }
  bool disconnected() const { return disconnected_; }

 private:
  struct VmInfo {
    hw::Pid pid = 0;
    std::string jit_map_dir;
    // Unsent epoch maps, ascending; announced once their epoch is needed.
    std::vector<std::pair<std::uint64_t, std::string>> pending_maps;
  };

  bool stream_session();
  /// Encodes one frame whose payload is the concatenation of `payload`
  /// into the reused frame buffer and sends it.
  bool send(FrameType type, std::initializer_list<std::string_view> payload);
  bool send_file(const std::string& path);
  bool announce_maps(const std::map<hw::Pid, std::uint64_t>& needed);
  bool any_map_pending() const;
  /// Walks the raw log once and sends each batch as one contiguous slice
  /// of it, behind its "batch <EVENT> <lines>" header.
  bool stream_event_log(hw::EventKind event);

  const os::Vfs& world_;
  const std::string session_id_;
  Transport& out_;
  const ReplayOptions options_;
  std::vector<VmInfo> vms_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t records_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t send_ns_ = 0;    // inside out_.send()
  std::uint64_t encode_ns_ = 0;  // run() wall less send_ns_
  std::string frame_;            // the frame being sent; capacity reused
  bool disconnected_ = false;
};

}  // namespace viprof::service
