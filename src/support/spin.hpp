// Spin-wait primitives for the lock-free parallel engine: a processor pause,
// bounded exponential backoff, and a tiny spinlock for rare critical
// sections. Workers coordinate through their own lock-free counters; these
// are what they do while waiting on one another.
#pragma once

#include <atomic>
#include <thread>

namespace ccref {

/// Processor-level pause for spin loops: keeps the core from speculating
/// through the loop and frees pipeline resources for the sibling
/// hyperthread that is doing the work we are waiting for.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // No portable pause instruction; an empty asm barrier at least stops the
  // compiler from collapsing the spin.
  asm volatile("" ::: "memory");
#endif
}

/// Bounded exponential backoff for contended atomic loops: short pause
/// bursts first (the common case resolves in nanoseconds — a publisher
/// finishing a store), then yields to the scheduler so a descheduled
/// publisher can run. Never sleeps: wakeup latency stays bounded by a
/// scheduling quantum, which the parallel checker's termination detector
/// relies on.
class SpinBackoff {
 public:
  void pause() {
    if (round_ < kSpinRounds) {
      for (int i = 0; i < (1 << (round_ < 5 ? round_ : 5)); ++i) cpu_relax();
      ++round_;
    } else {
      std::this_thread::yield();
    }
  }
  void reset() { round_ = 0; }

 private:
  static constexpr int kSpinRounds = 16;
  int round_ = 0;
};

/// Tiny test-and-set spinlock for short, rare critical sections (e.g. the
/// COLLAPSE dictionary miss path, which runs once per distinct component
/// value). Not fair, not reentrant; hot paths must stay lock-free.
class SpinLock {
 public:
  void lock() {
    SpinBackoff backoff;
    while (flag_.test_and_set(std::memory_order_acquire)) backoff.pause();
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace ccref
