// VM registration — the paper's key runtime mechanism (Section 3, "Runtime
// Profiler"): a virtual machine registers that it executes dynamically
// generated code and declares its heap boundaries. The daemon consults this
// table before logging a sample as anonymous; samples inside a registered
// heap become JIT.App samples instead. The table is written once at VM
// start-up and read on the sample-logging path, so lookups are O(#VMs) with
// a cheap range check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/types.hpp"

namespace viprof::core {

struct VmRegistration {
  hw::Pid pid = 0;
  hw::Address heap_lo = 0;
  hw::Address heap_hi = 0;
  hw::Address boot_base = 0;
  std::uint64_t boot_size = 0;
  std::string boot_map_path;  // RVM.map location (build product)
  std::string jit_map_dir;    // where the agent writes epoch code maps
  std::string obj_map_dir;    // where the memprof agent writes epoch object
                              // maps; empty = no object profiling

  bool heap_contains(hw::Address pc) const { return pc >= heap_lo && pc < heap_hi; }
  bool boot_contains(hw::Address pc) const {
    return pc >= boot_base && pc < boot_base + boot_size;
  }
};

/// Outcome of RegistrationTable::add. Anything but kOk leaves the table
/// unchanged; the caller decides whether that is fatal (the daemon logs and
/// drops, the profile server reports it back over the wire).
enum class RegisterStatus : std::uint8_t {
  kOk,
  kDuplicatePid,  // pid already registered; remove() first to re-register
  kBadRange,      // heap_lo >= heap_hi (an empty heap registers nothing)
  kOverlap,       // the VM's own heap and boot image ranges intersect
};

inline const char* to_string(RegisterStatus s) {
  switch (s) {
    case RegisterStatus::kOk: return "ok";
    case RegisterStatus::kDuplicatePid: return "duplicate-pid";
    case RegisterStatus::kBadRange: return "bad-range";
    case RegisterStatus::kOverlap: return "overlap";
  }
  return "?";
}

class RegistrationTable {
 public:
  /// Validates and inserts. Rejected registrations do not change the table
  /// or its version. Ranges of *different* pids may overlap freely — each
  /// pid is its own address space — but one VM's heap must not intersect
  /// its own boot image, or samples in the intersection would be
  /// double-claimable.
  RegisterStatus add(const VmRegistration& reg) {
    if (reg.heap_lo >= reg.heap_hi) return RegisterStatus::kBadRange;
    if (find_pid(reg.pid) != nullptr) return RegisterStatus::kDuplicatePid;
    if (reg.boot_size > 0 && reg.heap_lo < reg.boot_base + reg.boot_size &&
        reg.boot_base < reg.heap_hi)
      return RegisterStatus::kOverlap;
    regs_.push_back(reg);
    ++version_;
    return RegisterStatus::kOk;
  }

  /// Deregisters `pid`; false when it was not registered. After removal the
  /// same pid may register again (restart / re-exec of the VM).
  bool remove(hw::Pid pid) {
    for (auto it = regs_.begin(); it != regs_.end(); ++it) {
      if (it->pid == pid) {
        regs_.erase(it);
        ++version_;
        return true;
      }
    }
    return false;
  }

  void clear() {
    if (!regs_.empty()) ++version_;
    regs_.clear();
  }

  /// Bumped by every successful mutation; lets readers that cache derived
  /// state (resolvers) detect churn cheaply.
  std::uint64_t version() const { return version_; }

  /// Registration whose heap (or boot image) covers `pc` for `pid`.
  const VmRegistration* find_heap(hw::Pid pid, hw::Address pc) const {
    for (const auto& r : regs_)
      if (r.pid == pid && r.heap_contains(pc)) return &r;
    return nullptr;
  }

  const VmRegistration* find_pid(hw::Pid pid) const {
    for (const auto& r : regs_)
      if (r.pid == pid) return &r;
    return nullptr;
  }

  const std::vector<VmRegistration>& all() const { return regs_; }
  bool empty() const { return regs_.empty(); }

 private:
  std::vector<VmRegistration> regs_;
  std::uint64_t version_ = 0;
};

}  // namespace viprof::core
