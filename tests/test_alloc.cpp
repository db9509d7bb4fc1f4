// Allocation regression for the engines' hot path. This executable replaces
// the global operator new with a counting one and measures the heap
// allocations a whole verify::check() makes. A warm expansion (recycled edge
// buffer, state decoded in place, inline message payloads, stack-scratch
// canonicalization, recycled frontier items) allocates nothing, so what is
// left is amortized growth of the visited set, the frontier and the engine
// scratch: far below one allocation per transition. Expanding into fresh
// vectors instead costs 15-29 per transition on these runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array and nothrow forms forward to these two by default.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ccref {
namespace {

using runtime::AsyncSystem;

constexpr double kMaxPerTransition = 0.1;

struct Run {
  verify::CheckResult result;
  std::size_t allocations = 0;
};

Run counted_check(const AsyncSystem& sys,
                  const verify::CheckOptions<AsyncSystem>& opts,
                  unsigned jobs) {
  Run run;
  const std::size_t before = g_allocations.load();
  run.result = verify::check(sys, opts, jobs);
  run.allocations = g_allocations.load() - before;
  return run;
}

void expect_allocation_free(const AsyncSystem& sys,
                            const verify::CheckOptions<AsyncSystem>& opts,
                            const std::string& what) {
  for (unsigned jobs : {1u, 2u}) {
    const Run run = counted_check(sys, opts, jobs);
    ASSERT_EQ(run.result.status, verify::Status::Ok) << what;
    ASSERT_GT(run.result.transitions, 0u) << what;
    const double per_transition =
        static_cast<double>(run.allocations) /
        static_cast<double>(run.result.transitions);
    EXPECT_LE(per_transition, kMaxPerTransition)
        << what << " jobs=" << jobs << ": " << run.allocations
        << " allocations for " << run.result.transitions << " transitions";
  }
}

TEST(AllocPerTransition, CounterSeesHeapAllocations) {
  const std::size_t before = g_allocations.load();
  auto* v = new std::string(64, 'x');
  EXPECT_GT(g_allocations.load(), before);
  delete v;
}

TEST(AllocPerTransition, MigratoryN4FullStorage) {
  const auto p = protocols::make_migratory();
  const auto rp = refine::refine(p);
  const AsyncSystem sys(rp, 4);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 256u << 20;
  opts.want_trace = false;
  expect_allocation_free(sys, opts, "async migratory N=4, full storage");
}

TEST(AllocPerTransition, InvalidateN3SymmetryPorCollapse) {
  const auto p = protocols::make_invalidate();
  const auto rp = refine::refine(p);
  const AsyncSystem sys(rp, 3);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 256u << 20;
  opts.want_trace = false;
  opts.symmetry = verify::SymmetryMode::Canonical;
  opts.por = verify::PorMode::Ample;
  opts.compress = verify::CompressionMode::Collapse;
  expect_allocation_free(sys, opts,
                         "async invalidate N=3, symmetry + ample + collapse");
}

}  // namespace
}  // namespace ccref
