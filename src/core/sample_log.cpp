#include "core/sample_log.hpp"

#include <cstdio>

#include "support/arena.hpp"
#include "support/str_scan.hpp"

namespace viprof::core {

std::string SampleLogWriter::path_for(const std::string& dir, hw::EventKind event) {
  return dir + "/" + hw::to_string(event) + ".samples";
}

void SampleLogWriter::append(hw::EventKind event, const LoggedSample& s) {
  const std::size_t i = hw::event_index(event);
  char buf[192];
  const int body = std::snprintf(
      buf, sizeof buf, "%llu %llx %llx %c %u %llu %llu",
      static_cast<unsigned long long>(next_seq_[i]++),
      static_cast<unsigned long long>(s.pc),
      static_cast<unsigned long long>(s.caller_pc),
      s.mode == hw::CpuMode::kKernel
          ? 'k'
          : (s.mode == hw::CpuMode::kHypervisor ? 'h' : 'u'),
      s.pid,
      static_cast<unsigned long long>(s.epoch),
      static_cast<unsigned long long>(s.cycle));
  support::framed::append_frame(pending_[i],
                                std::string_view(buf, static_cast<std::size_t>(body)));
  ++pending_records_[i];
  ++written_[i];
}

LogFlushResult SampleLogWriter::flush() {
  LogFlushResult result;
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) {
    if (pending_[i].empty()) continue;
    const os::IoStatus status =
        vfs_->append(path_for(dir_, static_cast<hw::EventKind>(i)), pending_[i]);
    switch (status) {
      case os::IoStatus::kOk:
        pending_[i].clear();
        pending_records_[i] = 0;
        break;
      case os::IoStatus::kTorn:
        // A prefix landed; the writer (like a real daemon after a crashed
        // write) believes the batch is out. The reader's framing detects
        // and salvages around the tear.
        ++result.torn_writes;
        pending_[i].clear();
        pending_records_[i] = 0;
        break;
      case os::IoStatus::kIoError:
      case os::IoStatus::kNoSpace: {
        // Spill: keep the batch for a later retry, bounded. Drop whole
        // oldest records (never partial lines) beyond the bound so the
        // spill itself can never produce a torn record.
        ++result.write_errors;
        result.fully_flushed = false;
        while (pending_[i].size() > spill_capacity_ && pending_records_[i] > 0) {
          const std::size_t nl = pending_[i].find('\n');
          const std::size_t cut = nl == std::string::npos ? pending_[i].size() : nl + 1;
          result.bytes_dropped += cut;
          pending_[i].erase(0, cut);
          --pending_records_[i];
          ++result.records_dropped;
          ++spill_dropped_;
        }
        break;
      }
    }
  }
  return result;
}

std::uint64_t SampleLogWriter::discard_pending() {
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < hw::kEventKindCount; ++i) {
    lost += pending_records_[i];
    pending_[i].clear();
    pending_records_[i] = 0;
  }
  return lost;
}

std::size_t SampleLogWriter::pending_bytes() const {
  std::size_t total = 0;
  for (const std::string& p : pending_) total += p.size();
  return total;
}

std::vector<LoggedSample> SampleLogReader::read(const os::Vfs& vfs,
                                                const std::string& dir,
                                                hw::EventKind event) {
  SampleLogReadStatus status;
  return read_checked(vfs, dir, event, status);
}

bool parse_record(std::string_view line, LoggedSample& s) {
  std::uint64_t pc = 0, caller = 0, pid = 0, epoch = 0, cycle = 0;
  std::string_view mode;
  if (!support::scan_hex64(line, pc) || !support::scan_hex64(line, caller) ||
      !support::scan_token(line, mode) || mode.size() != 1 ||
      !support::scan_u64s(line, {&pid, &epoch, &cycle}) || pid > 0xffffffffull ||
      !support::at_end(line)) {
    return false;
  }
  s.pc = pc;
  s.caller_pc = caller;
  s.mode = mode[0] == 'k'   ? hw::CpuMode::kKernel
           : mode[0] == 'h' ? hw::CpuMode::kHypervisor
                            : hw::CpuMode::kUser;
  s.pid = static_cast<hw::Pid>(pid);
  s.epoch = epoch;
  s.cycle = cycle;
  return true;
}

template <typename Sink>
void SampleStreamParser::parse_into(std::string_view text, Sink& out) {
  // A torn or overwritten line is skipped and counted, never mis-parsed:
  // the checksum makes accepting a *wrong* record vanishingly unlikely. A
  // replayed batch that had partially landed shows as duplicate seqs.
  support::framed::for_each_frame(
      text, seq_, /*skip_empty=*/false, [&](const support::framed::Frame& f) {
        LoggedSample s;
        if (!parse_record(f.payload, s)) {
          seq_.torn(f.bytes);
        } else if (seq_.accept(f.seq)) {
          out.push_back(s);
        }
      });

  const support::framed::LineTally& t = seq_.tally();
  status_.corrupt = t.torn_lines != 0;
  status_.valid = t.verified;
  status_.salvaged = status_.corrupt ? t.verified : 0;
  status_.discarded_lines = t.torn_lines;
  status_.discarded_bytes = t.torn_bytes;
  status_.duplicate_records = t.dup;
  status_.missing_records = t.gap;
  status_.max_seq = t.verified != 0 ? seq_.next_expected() - 1 : 0;
}

template void SampleStreamParser::parse_into(std::string_view,
                                             std::vector<LoggedSample>&);
template void SampleStreamParser::parse_into(std::string_view,
                                             support::ArenaVector<LoggedSample>&);

std::vector<LoggedSample> SampleLogReader::read_checked(const os::Vfs& vfs,
                                                        const std::string& dir,
                                                        hw::EventKind event,
                                                        SampleLogReadStatus& status) {
  status = SampleLogReadStatus{};
  std::vector<LoggedSample> out;
  const auto contents = vfs.read(SampleLogWriter::path_for(dir, event));
  if (!contents) {
    status.missing = true;
    return out;
  }
  SampleStreamParser parser;
  parser.parse(*contents, out);
  status = parser.status();
  return out;
}

}  // namespace viprof::core
