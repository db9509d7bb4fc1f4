// Hash-compaction storage tier (verify/fingerprint_set.hpp and the
// hash_compact routing in collapse.hpp / checker.hpp / par_checker.hpp):
// the fingerprint table's budget discipline, the birthday-bound omission
// estimate, verdict/count agreement with full storage across the engine x
// symmetry x POR x compression matrix, counterexample traces that stay
// exact under compaction, and — via a deliberately colliding fingerprint
// stub — proof that a collision degrades into a REPORTED omission
// probability, never a silently wrong count presented as exact.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/collapse.hpp"
#include "verify/fingerprint_set.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using verify::CollapsedStateSet;
using verify::CompressionMode;
using verify::FingerprintSet;
using verify::MemoryBudget;
using verify::PorMode;
using verify::StateSet;
using verify::StorageOptions;
using verify::SymmetryMode;

// ---- FingerprintSet unit ---------------------------------------------------

TEST(FingerprintSet, InsertDupAndGrowth) {
  MemoryBudget budget(4 << 20);
  FingerprintSet set(budget);
  // Enough inserts to force several doublings past the 1024-slot floor.
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    auto r = set.insert(i * 0x9e3779b97f4a7c15ull);
    ASSERT_EQ(r.outcome, FingerprintSet::Outcome::Inserted) << "i " << i;
    ASSERT_EQ(r.index, i - 1);
  }
  EXPECT_EQ(set.size(), 10000u);
  for (std::uint64_t i = 1; i <= 10000; ++i)
    EXPECT_EQ(set.insert(i * 0x9e3779b97f4a7c15ull).outcome,
              FingerprintSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_EQ(budget.used(), set.memory_used());
}

TEST(FingerprintSet, ZeroFingerprintFoldsOntoOne) {
  // 0 marks an empty slot, so fingerprint 0 costs one bit: it aliases 1.
  MemoryBudget budget(1 << 20);
  FingerprintSet set(budget);
  EXPECT_EQ(set.insert(0).outcome, FingerprintSet::Outcome::Inserted);
  EXPECT_EQ(set.insert(1).outcome, FingerprintSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.size(), 1u);
}

TEST(FingerprintSet, ExhaustionAtHardCapWhenGrowthRefused) {
  // Budget fits the 1024-slot floor but no doubling: inserts must keep
  // landing past the 70% growth trigger up to the 95% hard cap, then
  // report Exhausted without bursting the budget.
  MemoryBudget budget(12 << 10);
  FingerprintSet set(budget);
  std::size_t accepted = 0;
  for (std::uint64_t i = 1;; ++i) {
    auto r = set.insert(i * 0x9e3779b97f4a7c15ull);
    if (r.outcome == FingerprintSet::Outcome::Exhausted) break;
    ASSERT_EQ(r.outcome, FingerprintSet::Outcome::Inserted);
    ++accepted;
    ASSERT_LT(i, 100000u);
  }
  EXPECT_GT(accepted, 1024u * 7 / 10);  // past the growth trigger...
  EXPECT_LT(accepted, 1024u);           // ...but below a full table
  EXPECT_EQ(set.size(), accepted);
  EXPECT_LE(budget.used(), budget.limit());
  // Every accepted fingerprint is still findable after exhaustion.
  for (std::uint64_t i = 1; i <= accepted; ++i)
    EXPECT_EQ(set.insert(i * 0x9e3779b97f4a7c15ull).outcome,
              FingerprintSet::Outcome::AlreadyPresent);
}

TEST(FingerprintSet, GrowRacesSiblingChargeOnSharedBudget) {
  // Two sets drawing on one near-exhausted budget: A's grow-before-insert
  // (try_reserve of the doubled table) interleaves with B's charges. Any
  // outcome is legal per insert — what must hold is that growth is
  // admitted BEFORE the probe chain moves (a refused grow never corrupts
  // already-accepted entries), the budget never bursts, and every accepted
  // fingerprint stays findable afterwards.
  MemoryBudget budget(40 << 10);
  FingerprintSet a(budget);
  FingerprintSet b(budget);
  std::size_t accepted_a = 0, accepted_b = 0;
  bool full_a = false, full_b = false;
  for (std::uint64_t i = 1; !(full_a && full_b); ++i) {
    ASSERT_LT(i, 100000u);
    if (!full_a) {
      auto r = a.insert(i * 0x9e3779b97f4a7c15ull);
      if (r.outcome == FingerprintSet::Outcome::Exhausted)
        full_a = true;
      else
        ++accepted_a;
    }
    if (!full_b) {
      auto r = b.insert(i * 0xc2b2ae3d27d4eb4full);
      if (r.outcome == FingerprintSet::Outcome::Exhausted)
        full_b = true;
      else
        ++accepted_b;
    }
    ASSERT_LE(budget.used(), budget.limit());
  }
  EXPECT_GT(accepted_a, 0u);
  EXPECT_GT(accepted_b, 0u);
  EXPECT_EQ(a.size(), accepted_a);
  EXPECT_EQ(b.size(), accepted_b);
  EXPECT_EQ(budget.used(), a.memory_used() + b.memory_used());
  for (std::uint64_t i = 1; i <= accepted_a; ++i)
    ASSERT_EQ(a.insert(i * 0x9e3779b97f4a7c15ull).outcome,
              FingerprintSet::Outcome::AlreadyPresent);
  for (std::uint64_t i = 1; i <= accepted_b; ++i)
    ASSERT_EQ(b.insert(i * 0xc2b2ae3d27d4eb4full).outcome,
              FingerprintSet::Outcome::AlreadyPresent);
}

TEST(FingerprintSet, ShardedGrowUnderSharedBudgetIsRaceFree) {
  // The parallel engine's shape, run under TSan in CI: four shard-owned
  // sets hammering one atomic MemoryBudget, so every grow's try_reserve
  // races the other shards' charges. Per-set state is shard-local (no
  // locks needed); the shared budget must end exactly balanced against
  // the per-set books and never burst its limit.
  MemoryBudget budget(160 << 10);
  constexpr int kShards = 4;
  std::vector<std::unique_ptr<FingerprintSet>> shards;
  for (int s = 0; s < kShards; ++s)
    shards.push_back(std::make_unique<FingerprintSet>(budget));
  std::vector<std::size_t> accepted(kShards, 0);
  std::vector<std::thread> workers;
  for (int s = 0; s < kShards; ++s)
    workers.emplace_back([&, s] {
      FingerprintSet& set = *shards[static_cast<std::size_t>(s)];
      for (std::uint64_t i = 1; i <= 50000; ++i) {
        auto r = set.insert((i * kShards + static_cast<std::uint64_t>(s)) *
                            0x9e3779b97f4a7c15ull);
        if (r.outcome == FingerprintSet::Outcome::Exhausted) break;
        ++accepted[static_cast<std::size_t>(s)];
      }
    });
  for (auto& w : workers) w.join();
  std::size_t charged = 0, total = 0;
  for (int s = 0; s < kShards; ++s) {
    const auto& set = *shards[static_cast<std::size_t>(s)];
    EXPECT_GT(accepted[static_cast<std::size_t>(s)], 0u) << "shard " << s;
    EXPECT_EQ(set.size(), accepted[static_cast<std::size_t>(s)]);
    charged += set.memory_used();
    total += set.size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(budget.used(), charged);
  EXPECT_LE(budget.used(), budget.limit());
  // Acceptance is a membership promise: re-probes must all hit.
  for (int s = 0; s < kShards; ++s)
    for (std::uint64_t i = 1; i <= accepted[static_cast<std::size_t>(s)]; ++i)
      ASSERT_EQ(shards[static_cast<std::size_t>(s)]
                    ->insert((i * kShards + static_cast<std::uint64_t>(s)) *
                             0x9e3779b97f4a7c15ull)
                    .outcome,
                FingerprintSet::Outcome::AlreadyPresent)
          << "shard " << s;
}

TEST(OmissionBound, BirthdayEstimate) {
  EXPECT_EQ(verify::omission_bound(0), 0.0);
  EXPECT_EQ(verify::omission_bound(1), 0.0);
  // n=2: one pair at 2^-64.
  EXPECT_NEAR(verify::omission_bound(2), 5.42101086242752e-20, 1e-33);
  EXPECT_LT(verify::omission_bound(1000), verify::omission_bound(2000));
  // ~2^33 states drive the bound past 1; it must clamp, not overflow.
  EXPECT_EQ(verify::omission_bound(std::size_t{1} << 40), 1.0);
}

// ---- CollapsedStateSet window semantics ------------------------------------

std::vector<std::byte> state_bytes(std::uint64_t id, std::size_t len = 24) {
  std::vector<std::byte> b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::byte>((id >> ((i % 8) * 8)) & 0xff);
  return b;
}

TEST(HashCompactWindow, FifoConsumptionReleasesBudget) {
  // Under compaction at() serves exactly the BFS cursor: reads must walk
  // the window head in insertion order, and each consumed state hands its
  // bytes back to the budget — the window never outlives the frontier.
  StorageOptions st;
  st.hash_compact = true;
  CollapsedStateSet set(1 << 20, st);
  std::vector<std::uint32_t> indices;
  for (std::uint64_t id = 0; id < 200; ++id) {
    auto r = set.insert(state_bytes(id));
    ASSERT_EQ(r.outcome, StateSet::Outcome::Inserted);
    ASSERT_EQ(r.index, id);
    indices.push_back(r.index);
  }
  EXPECT_EQ(set.size(), 200u);
  EXPECT_EQ(set.insert(state_bytes(7)).outcome,
            StateSet::Outcome::AlreadyPresent);
  const std::size_t before = set.budget().used();
  for (std::uint64_t id = 0; id < 200; ++id) {
    auto stored = set.at(indices[id]);
    auto bytes = state_bytes(id);
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), stored.begin(),
                           stored.end()))
        << "id " << id;
  }
  EXPECT_LT(set.budget().used(), before);
  EXPECT_EQ(set.memory_used(), set.budget().used());
}

// ---- agreement with full storage across the matrix -------------------------

template <class Sys>
verify::CheckResult check(const Sys& sys, bool hc, CompressionMode compress,
                          PorMode por, SymmetryMode symmetry,
                          unsigned jobs = 1) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.hash_compact = hc;
  opts.compress = compress;
  opts.por = por;
  opts.symmetry = symmetry;
  opts.memory_limit = 512u << 20;
  return verify::check(sys, opts, jobs);
}

template <class Sys>
void expect_hc_agreement(const Sys& sys, const char* what,
                         bool compare_memory = true) {
  // At these sizes the birthday bound is ~1e-14, so a 64-bit fingerprint
  // collision in-test would be a hash bug, not bad luck: counts must match
  // full storage exactly, and the run must carry the omission caveat.
  for (unsigned jobs : {1u, 4u}) {
    for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
      for (auto por : {PorMode::Off, PorMode::Ample}) {
        auto full = check(sys, false, CompressionMode::Off, por, sym, jobs);
        auto hc = check(sys, true, CompressionMode::Off, por, sym, jobs);
        ASSERT_EQ(full.status, verify::Status::Ok)
            << what << " jobs=" << jobs;
        EXPECT_EQ(hc.status, full.status) << what << " jobs=" << jobs;
        EXPECT_GT(hc.omission_probability, 0.0) << what;
        EXPECT_LT(hc.omission_probability, 1e-9) << what;
        EXPECT_EQ(full.omission_probability, 0.0) << what;
        if (jobs > 1 && por == PorMode::Ample) {
          // Parallel ample-set counts are scheduling-dependent (see the C3
          // note in par_checker.hpp): agreement only up to the full bound.
          auto cap =
              check(sys, false, CompressionMode::Off, PorMode::Off, sym,
                    jobs);
          EXPECT_LE(hc.states, cap.states) << what << " jobs=" << jobs;
          continue;
        }
        EXPECT_EQ(hc.states, full.states) << what << " jobs=" << jobs;
        EXPECT_EQ(hc.transitions, full.transitions)
            << what << " jobs=" << jobs;
        // The tier's point: fingerprints beat full vectors on memory.
        if (jobs == 1 && compare_memory) {
          EXPECT_LT(hc.memory_bytes, full.memory_bytes)
              << what << " jobs=" << jobs;
        }
      }
    }
  }
}

void expect_hc_agreement(const ir::Protocol& p, int n, const char* what) {
  auto rp = refine::refine(p);
  expect_hc_agreement(AsyncSystem(rp, n), what);
}

TEST(HashCompact, AgreesMigratory) {
  expect_hc_agreement(protocols::make_migratory(), 3, "migratory");
}

TEST(HashCompact, AgreesInvalidate) {
  expect_hc_agreement(protocols::make_invalidate(), 2, "invalidate");
}

TEST(HashCompact, AgreesWriteUpdate) {
  expect_hc_agreement(protocols::make_write_update(), 2, "writeupdate");
}

TEST(HashCompact, AgreesLockServer) {
  expect_hc_agreement(protocols::make_lock_server(), 3, "lockserver");
}

TEST(HashCompact, AgreesRendezvousMigratory) {
  // The rendezvous level too, from one remote up (it has no POR hook, so
  // its ample rows run unreduced). These spaces hold tens of states, below
  // the fingerprint table's 1024-slot floor, so memory is not compared.
  auto p = protocols::make_migratory();
  for (int n : {1, 2, 3}) {
    const std::string what = "rendezvous migratory n=" + std::to_string(n);
    expect_hc_agreement(sem::RendezvousSystem(p, n), what.c_str(),
                        /*compare_memory=*/false);
  }
}

TEST(HashCompact, CompressRequestIsNotedAndIgnored) {
  // Compaction stores no byte vectors, so COLLAPSE has nothing to work on;
  // asking for both must still verify but record the conflict.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto r = check(sys, true, CompressionMode::Collapse, PorMode::Off,
                 SymmetryMode::Off);
  EXPECT_EQ(r.status, verify::Status::Ok);
  EXPECT_NE(r.note.find("hash"), std::string::npos) << "note: " << r.note;
}

// ---- adversarial: a colliding fingerprint must degrade loudly --------------

/// Deliberately terrible fingerprint: 64 buckets. Any non-trivial state
/// space collides immediately — the worst case the birthday bound warns
/// about, forced deterministically.
std::uint64_t folded_fingerprint(std::span<const std::byte> s) {
  return verify::default_fingerprint(s) & 0x3f;
}

TEST(HashCompact, ForcedCollisionIsReportedNotSilent) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  auto full = check(sys, false, CompressionMode::Off, PorMode::Off,
                    SymmetryMode::Off);
  ASSERT_EQ(full.status, verify::Status::Ok);
  ASSERT_GT(full.states, 64u);

  for (unsigned jobs : {1u, 4u}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.want_trace = false;
    opts.hash_compact = true;
    opts.fingerprint = &folded_fingerprint;
    opts.memory_limit = 512u << 20;
    auto r = verify::check(sys, opts, jobs);
    // States were omitted (64 buckets cap the count), and the result SAYS
    // so: the omission probability is reported, not buried.
    EXPECT_LE(r.states, 64u) << "jobs=" << jobs;
    EXPECT_LT(r.states, full.states) << "jobs=" << jobs;
    EXPECT_GT(r.omission_probability, 0.0) << "jobs=" << jobs;
  }
}

// ---- traces stay exact under compaction ------------------------------------

TEST(HashCompact, ViolationTraceMatchesFullStorage) {
  // Same deterministic violation as the collapse trace test: compaction
  // re-concretizes the counterexample by replaying real transitions whose
  // fingerprints match the logged chain, so the labels must be identical
  // to the full-storage trace, step for step.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckResult results[2];
  int i = 0;
  for (bool hc : {false, true}) {
    verify::CheckOptions<AsyncSystem> opts;
    opts.hash_compact = hc;
    opts.want_trace = true;
    opts.invariant = [&sys](const runtime::AsyncState& s) {
      return s.remotes[0].state != sys.initial().remotes[0].state
                 ? "remote 0 left its initial state"
                 : std::string();
    };
    results[i++] = verify::explore(sys, opts);
  }
  ASSERT_EQ(results[0].status, verify::Status::InvariantViolated);
  EXPECT_EQ(results[1].status, results[0].status);
  EXPECT_EQ(results[1].violation, results[0].violation);
  ASSERT_FALSE(results[0].trace.empty());
  EXPECT_EQ(results[1].trace, results[0].trace);
}

TEST(HashCompact, ParallelViolationTraceIsValid) {
  // The parallel engine's BFS order is nondeterministic, so the trace may
  // differ from the sequential one — but it must exist, start at the
  // initial state, and end in the reported violation.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckOptions<AsyncSystem> opts;
  opts.hash_compact = true;
  opts.want_trace = true;
  opts.invariant = [&sys](const runtime::AsyncState& s) {
    return s.remotes[0].state != sys.initial().remotes[0].state
               ? "remote 0 left its initial state"
               : std::string();
  };
  auto r = verify::par_explore(sys, opts, 4);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  EXPECT_EQ(r.violation, "remote 0 left its initial state");
  ASSERT_FALSE(r.trace.empty());
  EXPECT_NE(r.trace.front().find("initial"), std::string::npos)
      << "trace head: " << r.trace.front();
}

// ---- the payoff: compaction finishes where full storage cannot -------------

TEST(HashCompact, FinishesInsideBudgetThatWallsFullStorage) {
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 4);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.detect_deadlock = false;
  opts.memory_limit = 2u << 20;
  auto walled = verify::explore(sys, opts);
  ASSERT_EQ(walled.status, verify::Status::Unfinished)
      << "wall gone — shrink the limit so the test still bites";

  verify::CheckOptions<AsyncSystem> ref_opts = opts;
  ref_opts.memory_limit = 512u << 20;
  auto reference = verify::explore(sys, ref_opts);
  ASSERT_EQ(reference.status, verify::Status::Ok);

  opts.hash_compact = true;
  auto hc = verify::explore(sys, opts);
  EXPECT_EQ(hc.status, verify::Status::Ok);
  EXPECT_EQ(hc.states, reference.states);
  EXPECT_LE(hc.memory_bytes, opts.memory_limit);

  auto par = verify::par_explore(sys, opts, 4);
  EXPECT_EQ(par.status, verify::Status::Ok);
  EXPECT_EQ(par.states, reference.states);
}

TEST(HashCompact, CoversAsyncMigratoryN5In16MB) {
  // The Table-3 wall config that once needed a supertrace (sampling)
  // search: full storage walls at 16 MB, fingerprints give the exact
  // reachable count with a stated omission bound.
  auto p = protocols::make_migratory();  // RefinedProtocol points into it
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 5);
  verify::CheckOptions<AsyncSystem> opts;
  opts.want_trace = false;
  opts.memory_limit = 16u << 20;
  auto walled = verify::explore(sys, opts);
  ASSERT_EQ(walled.status, verify::Status::Unfinished);

  opts.hash_compact = true;
  auto hc = verify::explore(sys, opts);
  EXPECT_EQ(hc.status, verify::Status::Ok);
  EXPECT_EQ(hc.states, 436825u);
  EXPECT_LE(hc.memory_bytes, opts.memory_limit);
  EXPECT_GT(hc.omission_probability, 0.0);
  EXPECT_LT(hc.omission_probability, 1e-8);
}

}  // namespace
}  // namespace ccref
