// The lock-free building blocks under direct attack: Chase–Lev deque
// owner/thief races, CAS insert-if-absent under contention, budget
// exhaustion mid-CAS (the budget == memory_used invariant), termination
// corner cases (single-state spaces), and a jobs=max fuzz agreement run
// on all four protocols — the pieces the par/seq agreement matrices
// exercise only indirectly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "support/atomic_table.hpp"
#include "support/hash.hpp"
#include "support/spin.hpp"
#include "support/work_steal_deque.hpp"
#include "verify/checker.hpp"
#include "verify/memory_budget.hpp"
#include "verify/par_checker.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::MemoryBudget;
using verify::ShardedStateSet;

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 16) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

// ---- Chase–Lev deque --------------------------------------------------------

TEST(WorkStealDeque, OwnerLifoThiefFifo) {
  WorkStealDeque<std::uint64_t*> dq;
  std::uint64_t vals[3] = {1, 2, 3};
  for (auto& v : vals) dq.push(&v);
  // Owner pops newest first...
  EXPECT_EQ(dq.pop(), &vals[2]);
  // ...thieves steal oldest first.
  EXPECT_EQ(dq.steal(), &vals[0]);
  EXPECT_EQ(dq.pop(), &vals[1]);
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(WorkStealDeque, GrowsPastInitialCapacity) {
  WorkStealDeque<std::uint64_t*> dq(8);
  std::vector<std::uint64_t> vals(1000);
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.size(), vals.size());
  for (std::size_t i = vals.size(); i-- > 0;) EXPECT_EQ(dq.pop(), &vals[i]);
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(WorkStealDeque, EveryItemTakenExactlyOnceUnderTheft) {
  // One owner pushes/pops while thieves hammer steal(); every pushed item
  // must surface exactly once across all takers — including the frontier
  // draining DURING a steal (the owner pops the deque dry while a thief
  // holds a stale top index; the CAS arbitration must not duplicate or
  // lose the last item).
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  WorkStealDeque<std::uint64_t*> dq(8);
  std::vector<std::uint64_t> vals(kItems);
  for (int i = 0; i < kItems; ++i) vals[i] = static_cast<std::uint64_t>(i);

  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t)
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (std::uint64_t* p = dq.steal())
          taken[static_cast<std::size_t>(*p)].fetch_add(1);
      }
      // Final sweep so nothing is stranded when the owner quits first.
      while (std::uint64_t* p = dq.steal())
        taken[static_cast<std::size_t>(*p)].fetch_add(1);
    });

  // Owner: push in bursts, pop between bursts to force last-item races.
  std::size_t next = 0;
  while (next < kItems) {
    for (int burst = 0; burst < 37 && next < kItems; ++burst)
      dq.push(&vals[next++]);
    for (int burst = 0; burst < 19; ++burst) {
      if (std::uint64_t* p = dq.pop())
        taken[static_cast<std::size_t>(*p)].fetch_add(1);
      else
        break;
    }
  }
  while (std::uint64_t* p = dq.pop())
    taken[static_cast<std::size_t>(*p)].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(taken[i].load(), 1) << "item " << i;
}

// ---- AtomicByteTable --------------------------------------------------------

TEST(AtomicByteTable, InsertLookupRoundTrip) {
  MemoryBudget budget(1 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096,
                                      /*track_parents=*/true);
  auto s1 = state_bytes(1), s2 = state_bytes(2);
  auto r1 = table.insert(s1, hash_bytes(s1), 7);
  ASSERT_EQ(r1.outcome, InsertOutcome::Inserted);
  auto r2 = table.insert(s2, hash_bytes(s2), 9);
  ASSERT_EQ(r2.outcome, InsertOutcome::Inserted);
  auto dup = table.insert(s1, hash_bytes(s1), 99);
  EXPECT_EQ(dup.outcome, InsertOutcome::AlreadyPresent);
  EXPECT_EQ(dup.ref, r1.ref);
  // Duplicate insert never overwrites the recorded parent.
  EXPECT_EQ(table.parent_at(r1.ref), 7u);
  auto stored = table.at(r2.ref);
  EXPECT_TRUE(std::equal(s2.begin(), s2.end(), stored.begin(), stored.end()));
  EXPECT_EQ(table.size(), 2u);
}

TEST(AtomicByteTable, ResizesThroughManyInserts) {
  MemoryBudget budget(8 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096, false);
  for (std::uint64_t id = 0; id < 20000; ++id) {
    auto s = state_bytes(id);
    ASSERT_EQ(table.insert(s, hash_bytes(s)).outcome,
              InsertOutcome::Inserted);
  }
  for (std::uint64_t id = 0; id < 20000; ++id) {
    auto s = state_bytes(id);
    ASSERT_EQ(table.insert(s, hash_bytes(s)).outcome,
              InsertOutcome::AlreadyPresent);
  }
}

TEST(AtomicByteTable, ContendedInsertsDedupeExactly) {
  // All threads insert the SAME key range concurrently: exactly one
  // Inserted per key, everyone agrees on the ref, and concurrent resizes
  // lose nothing.
  constexpr std::uint64_t kUniverse = 8000;
  constexpr int kThreads = 4;
  MemoryBudget budget(16 << 20);
  AtomicByteTable<MemoryBudget> table(budget, 64, 4096, false);
  std::atomic<std::size_t> inserted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      std::size_t mine = 0;
      for (std::uint64_t id = 0; id < kUniverse; ++id) {
        auto s = state_bytes(id);
        auto r = table.insert(s, hash_bytes(s));
        ASSERT_NE(r.outcome, InsertOutcome::Exhausted);
        if (r.outcome == InsertOutcome::Inserted) ++mine;
      }
      inserted.fetch_add(mine);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(inserted.load(), kUniverse);
  EXPECT_EQ(table.size(), kUniverse);
}

TEST(AtomicByteTable, BudgetEqualsChargedThroughExhaustion) {
  // The budget == memory-held invariant must hold at every step, INCLUDING
  // inserts that exhaust mid-CAS (claim made, pool refuses, claim rolled
  // back): chunks and slot arrays are charged exactly when allocated.
  MemoryBudget budget(64 << 10);
  AtomicByteTable<MemoryBudget> table(budget, 64, 1024, false);
  bool exhausted = false;
  for (std::uint64_t id = 0; id < 100000; ++id) {
    auto s = state_bytes(id);
    auto r = table.insert(s, hash_bytes(s));
    ASSERT_EQ(budget.used(), table.charged()) << "after id " << id;
    ASSERT_LE(budget.used(), budget.limit());
    if (r.outcome == InsertOutcome::Exhausted) {
      exhausted = true;
      break;
    }
  }
  ASSERT_TRUE(exhausted);
  // Accepted records survive a post-exhaustion dedupe sweep.
  const std::size_t n = table.size();
  EXPECT_GT(n, 100u);
  for (std::uint64_t id = 0; id < 10; ++id) {
    auto s = state_bytes(id);
    EXPECT_EQ(table.insert(s, hash_bytes(s)).outcome,
              InsertOutcome::AlreadyPresent);
  }
  EXPECT_EQ(table.size(), n);
}

TEST(AtomicByteTable, ConcurrentExhaustionKeepsBudgetExact) {
  // 4 threads race a tiny budget to exhaustion; whatever interleaving the
  // scheduler picks, charged bytes mirror the budget exactly afterwards
  // and the limit is never burst.
  constexpr int kThreads = 4;
  MemoryBudget budget(48 << 10);
  AtomicByteTable<MemoryBudget> table(budget, 64, 1024, false);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const std::uint64_t first = std::uint64_t{100000} * t;
      for (std::uint64_t id = first; id < first + 20000; ++id) {
        auto s = state_bytes(id);
        (void)table.insert(s, hash_bytes(s));
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(budget.used(), table.charged());
  EXPECT_LE(budget.used(), budget.limit());
  EXPECT_GT(table.size(), 100u);
}

// ---- ShardedStateSet over the lock-free core --------------------------------

TEST(LockFreeShardedSet, CollapseConcurrentInsertsAgree) {
  // Compressed shards under concurrent insertion: the dictionaries'
  // lock-free hit path and spinlocked miss path must still produce one
  // dense index per distinct component, so the set holds exactly the
  // union afterwards.
  constexpr std::uint64_t kUniverse = 3000;
  ShardedStateSet set(8 << 20, 4, /*track_parents=*/false,
                      {.compress = verify::CompressionMode::Collapse});
  std::vector<ComponentMark> marks{{8, 0}, {16, 1}, {24, 2}};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t id = 0; id < kUniverse; ++id)
        (void)set.insert(state_bytes(id, 32), marks);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(set.size(), kUniverse);
  for (std::uint64_t id = 0; id < kUniverse; ++id) {
    auto s = state_bytes(id, 32);
    auto r = set.insert(s, marks);
    ASSERT_EQ(r.outcome, ShardedStateSet::Outcome::AlreadyPresent) << id;
    auto stored = set.at(r.ref);
    ASSERT_TRUE(
        std::equal(s.begin(), s.end(), stored.begin(), stored.end()));
  }
}

// ---- termination corner cases ----------------------------------------------

TEST(LockFreeParChecker, SingleStateSpaceTerminates) {
  // A root whose only successors are itself: the frontier drains after one
  // expansion and every idle worker must observe in_flight == 0 and exit —
  // with many more workers than work, this is the pure termination-detector
  // path.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.want_trace = false;
  auto seq = verify::explore(sys, opts);
  for (unsigned jobs : {1u, 8u}) {
    auto par = verify::par_explore(sys, opts, jobs);
    EXPECT_EQ(par.status, seq.status) << "jobs=" << jobs;
    EXPECT_EQ(par.states, seq.states) << "jobs=" << jobs;
    EXPECT_EQ(par.transitions, seq.transitions) << "jobs=" << jobs;
  }
}

TEST(LockFreeParChecker, ViolationOnRootWithManyIdleWorkers) {
  // The root violates: no item is ever pushed, workers must all exit via
  // the stop flag / zero counter without touching a frontier.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = [](const sem::RvState&) { return "always broken"; };
  auto par = verify::par_explore(sys, opts, 8);
  EXPECT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.states, 1u);
}

TEST(LockFreeParChecker, ExhaustionRaceStillBoundsMemory) {
  // Many workers race one tiny budget; the run must end (no lost
  // decrement deadlock), report Unfinished, and never burst the limit.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 1u << 20;
  opts.want_trace = false;
  auto par = verify::par_explore(sys, opts, 8);
  EXPECT_EQ(par.status, verify::Status::Unfinished);
  EXPECT_GT(par.states, 0u);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

// ---- jobs=max fuzz: all four protocols, every reduction composed -----------

TEST(LockFreeParChecker, JobsMaxFuzzAgreementAllProtocols) {
  const unsigned jobs = std::max(2u, std::thread::hardware_concurrency());
  const ir::Protocol protos[] = {
      protocols::make_migratory(), protocols::make_invalidate(),
      protocols::make_write_update(), protocols::make_lock_server()};
  for (const auto& p : protos) {
    auto rp = refine::refine(p);
    AsyncSystem sys(rp, 2);
    for (auto compress :
         {verify::CompressionMode::Off, verify::CompressionMode::Collapse}) {
      for (auto por : {verify::PorMode::Off, verify::PorMode::Ample}) {
        verify::CheckOptions<AsyncSystem> opts;
        opts.want_trace = false;
        opts.compress = compress;
        opts.por = por;
        opts.symmetry = verify::SymmetryMode::Canonical;
        auto seq = verify::explore(sys, opts);
        auto par = verify::par_explore(sys, opts, jobs);
        ASSERT_EQ(par.status, seq.status)
            << p.name << " compress=" << static_cast<int>(compress)
            << " por=" << static_cast<int>(por);
        if (seq.status == verify::Status::Ok &&
            por == verify::PorMode::Off) {
          // Exact-count agreement holds only for the full state space;
          // under Ample the two engines pick different (equally sound)
          // reduced spaces because ample choices are order-dependent.
          ASSERT_EQ(par.states, seq.states) << p.name;
          ASSERT_EQ(par.transitions, seq.transitions) << p.name;
        } else if (seq.status == verify::Status::Ok) {
          ASSERT_GT(par.states, 0u) << p.name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ccref
