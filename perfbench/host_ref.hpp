// A fixed reference kernel that measures how fast this host runs right now.
//
// On a shared VM the same binary's wall time drifts by ±25% over minutes
// (neighbours load the memory system and the cores), more than the changes
// the benchmark must detect. The kernel is benchmark code that no change to
// the program touches, so the ratio of an engine call's time to the
// kernel's time, taken just before and just after the call, keeps a real
// speed-up of the program and cancels much of the host's drift.
#pragma once

namespace perfbench {

/// Times one fixed burst of work with the mix the workloads stress:
/// independent random reads over a 32 MiB table (memory system), random
/// reads over a 1 MiB table (core caches) and a multiply chain (core clock).
/// Each burst runs in a forked child that maps its own tables, so the
/// kernel adds nothing to the benchmark process's peak RSS or heap.
class HostReference {
 public:
  /// Seconds the burst took (tables built before the clock starts); waits
  /// for the child to exit. Throws std::runtime_error if the burst failed.
  [[nodiscard]] double run();
};

}  // namespace perfbench
