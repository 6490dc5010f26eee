// Pins the replay client's wire output, frame by frame.
//
// For three recorded sessions the test lists every frame the client sends
// as (frame type, size, fnv1a of the frame bytes) and compares the list,
// plus frames_sent(), with a checked-in file under tests/golden/:
//
//   clean      a record_scenario session as recorded;
//   torn_tail  the same session with the last line of each sample log cut
//              mid-line (a torn final write: the client terminates that
//              line, and the server counts it as torn);
//   bit_flip   the same session with one byte of an early sample line
//              flipped, raising the epoch that line claims.
//
// A change to how the client reads or frames a log must leave every frame
// of every case unchanged. On a mismatch the produced list is written to
// golden_actual/ in the test's working directory, for diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sample_log.hpp"
#include "service/client.hpp"
#include "service/scenario.hpp"
#include "service/transport.hpp"
#include "support/hash.hpp"

namespace viprof::service {
namespace {

/// Records a one-line signature of every frame handed to send().
class CapturingTransport final : public Transport {
 public:
  bool send(const std::string& bytes) override {
    char line[64];
    std::snprintf(line, sizeof line, "%u %zu %08x\n",
                  static_cast<unsigned>(static_cast<unsigned char>(bytes[2])),
                  bytes.size(), support::fnv1a(bytes));
    frames += line;
    return true;
  }
  void close() override {}
  bool is_closed() const override { return false; }

  std::string frames;
};

std::unique_ptr<RecordedScenario> scenario() {
  ScenarioConfig config;
  config.vms = 2;
  config.samples_per_event = 64;
  config.epochs = 24;
  config.methods = 32;
  return record_scenario(config);
}

std::string log_path(hw::EventKind event) {
  return core::SampleLogWriter::path_for("samples", event);
}

const hw::EventKind kLogged[] = {hw::EventKind::kGlobalPowerEvents,
                                 hw::EventKind::kBsqCacheReference};

/// "frames <n>" then one "<type> <size> <fnv1a>" line per frame sent.
std::string frame_list(const os::Vfs& world) {
  CapturingTransport wire;
  ReplayOptions options;
  options.batch_records = 8;  // many batches, so maps announce between them
  ReplayClient client(world, "pinned", wire, options);
  EXPECT_TRUE(client.run());
  return "frames " + std::to_string(client.frames_sent()) + "\n" + wire.frames;
}

void expect_golden(const std::string& name, const std::string& actual) {
  std::ifstream in(std::string(VIPROF_GOLDEN_DIR) + "/" + name, std::ios::binary);
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str()) << "golden mismatch: " << name;
  if (actual != want.str()) {
    std::filesystem::create_directories("golden_actual");
    std::ofstream("golden_actual/" + name, std::ios::binary) << actual;
  }
}

TEST(ClientFrames, CleanSession) {
  auto sc = scenario();
  expect_golden("client_frames_clean.txt", frame_list(sc->vfs()));
}

TEST(ClientFrames, TornFinalLine) {
  auto sc = scenario();
  for (hw::EventKind event : kLogged) {
    std::string log = *sc->vfs().read(log_path(event));
    ASSERT_EQ(log.back(), '\n');
    // Cut inside the crc of the last line: every field but the crc intact.
    log.resize(log.size() - 4);
    sc->vfs().write(log_path(event), log);
  }
  expect_golden("client_frames_torn_tail.txt", frame_list(sc->vfs()));
}

TEST(ClientFrames, FlippedByteInEarlyLine) {
  auto sc = scenario();
  const std::string path = log_path(hw::EventKind::kGlobalPowerEvents);
  std::string log = *sc->vfs().read(path);
  // Line index 4 (of 64), field 6 (the epoch): its leading digit becomes '9'. The
  // line no longer verifies, but every field still scans as a number.
  std::size_t at = 0;
  for (int line = 0; line < 4; ++line) at = log.find('\n', at) + 1;
  for (int field = 0; field < 5; ++field) at = log.find(' ', at) + 1;
  ASSERT_NE(log[at], '9');
  log[at] = '9';
  sc->vfs().write(path, log);
  expect_golden("client_frames_bit_flip.txt", frame_list(sc->vfs()));
}

}  // namespace
}  // namespace viprof::service
