// Ample-set partial-order reduction: the reduced search must reach the same
// verdicts as the full one — across engines, with and without the symmetry
// quotient, on the shipped protocols and on random §2.4 fragment protocols —
// while storing at most (and on the async Table-3 configs strictly fewer
// than) the full state count. Analyses that must see every state or edge
// (invariants, the Equation-1 edge check, fairness-constrained lassos,
// X-containing formulas) downgrade to the unreduced search and say so.
//
// Also pins down the StateSet budget-accounting fix: after any insert
// outcome, including rollback on exhaustion, the bytes charged to the budget
// equal the bytes the set actually holds.
#include <gtest/gtest.h>

#include "ltl/check.hpp"
#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "random_protocol.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"
#include "verify/progress.hpp"
#include "verify/sharded_state_set.hpp"
#include "verify/state_set.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using verify::PorMode;
using verify::SymmetryMode;

template <class Sys>
verify::CheckResult check(const Sys& sys, PorMode por, SymmetryMode symmetry,
                          unsigned jobs = 1) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  opts.por = por;
  opts.symmetry = symmetry;
  opts.memory_limit = 512u << 20;
  return verify::check(sys, opts, jobs);
}

// ---- verdict agreement: {seq,par} x {sym off,on} x {por off,ample} --------

void expect_agreement_matrix(const ir::Protocol& p, int n, const char* what) {
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, n);
  auto baseline = check(sys, PorMode::Off, SymmetryMode::Off);
  for (unsigned jobs : {1u, 4u}) {
    for (auto sym : {SymmetryMode::Off, SymmetryMode::Canonical}) {
      auto full = check(sys, PorMode::Off, sym, jobs);
      auto reduced = check(sys, PorMode::Ample, sym, jobs);
      EXPECT_EQ(full.status, baseline.status)
          << what << " jobs=" << jobs << " sym=" << static_cast<int>(sym);
      EXPECT_EQ(reduced.status, baseline.status)
          << what << " jobs=" << jobs << " sym=" << static_cast<int>(sym);
      EXPECT_LE(reduced.states, full.states)
          << what << " jobs=" << jobs << " sym=" << static_cast<int>(sym);
    }
  }
}

TEST(Por, VerdictAgreesMigratory) {
  expect_agreement_matrix(protocols::make_migratory(), 3, "migratory");
}

TEST(Por, VerdictAgreesInvalidate) {
  expect_agreement_matrix(protocols::make_invalidate(), 2, "invalidate");
}

TEST(Por, VerdictAgreesWriteUpdate) {
  expect_agreement_matrix(protocols::make_write_update(), 2, "writeupdate");
}

TEST(Por, VerdictAgreesLockServer) {
  expect_agreement_matrix(protocols::make_lock_server(), 3, "lockserver");
}

// ---- strict reduction on the paper's asynchronous configurations ----------

TEST(Por, StrictReductionAsyncTable3Configs) {
  for (const auto& [p, n, what] :
       {std::tuple{protocols::make_migratory(), 2, "migratory n=2"},
        std::tuple{protocols::make_migratory(), 3, "migratory n=3"},
        std::tuple{protocols::make_invalidate(), 2, "invalidate n=2"}}) {
    auto rp = refine::refine(p);
    AsyncSystem sys(rp, n);
    auto full = check(sys, PorMode::Off, SymmetryMode::Off);
    auto reduced = check(sys, PorMode::Ample, SymmetryMode::Off);
    ASSERT_EQ(full.status, verify::Status::Ok) << what;
    EXPECT_EQ(reduced.status, verify::Status::Ok) << what;
    EXPECT_LT(reduced.states, full.states) << what;
  }
}

TEST(Por, NoOpOnRendezvousSemantics) {
  // The rendezvous system exposes no per-edge footprints (no
  // successors_por), so --por ample must change nothing there.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 3);
  auto full = check(sys, PorMode::Off, SymmetryMode::Off);
  auto reduced = check(sys, PorMode::Ample, SymmetryMode::Off);
  EXPECT_EQ(reduced.status, full.status);
  EXPECT_EQ(reduced.states, full.states);
  EXPECT_EQ(reduced.transitions, full.transitions);
}

// ---- analyses that must see everything downgrade and say so ---------------

TEST(Por, InvariantRunsDowngradeWithNote) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::CheckOptions<AsyncSystem> opts;
  opts.por = PorMode::Ample;
  opts.invariant = [](const runtime::AsyncState&) { return std::string(); };
  for (unsigned jobs : {1u, 4u}) {
    auto r = verify::check(sys, opts, jobs);
    EXPECT_EQ(r.status, verify::Status::Ok) << "jobs=" << jobs;
    EXPECT_NE(r.note.find("por downgraded to off"), std::string::npos)
        << "jobs=" << jobs;
    // Downgraded means the full graph: counts match the por-off run.
    EXPECT_EQ(r.states, check(sys, PorMode::Off, SymmetryMode::Off).states)
        << "jobs=" << jobs;
  }
}

TEST(Por, DowngradedTraceStillReplaysConcretely) {
  // A seeded invariant violation with --por ample: the engine downgrades
  // (invariants must see every state) and the produced counterexample must
  // still walk through the concrete transition relation.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 3);
  const ir::StateId rV = p.remote.find_state("V");
  verify::CheckOptions<AsyncSystem> opts;
  opts.por = PorMode::Ample;
  opts.symmetry = SymmetryMode::Canonical;
  opts.invariant = [&](const runtime::AsyncState& s) -> std::string {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "seeded bug: a remote reached V";
    return "";
  };
  auto r = verify::explore(sys, opts);
  ASSERT_EQ(r.status, verify::Status::InvariantViolated);
  EXPECT_NE(r.note.find("por downgraded to off"), std::string::npos);
  ASSERT_GE(r.trace.size(), 2u);
  auto cur = sys.initial();
  sys.canonicalize(cur);
  EXPECT_EQ(r.trace.front(), "initial: " + sys.describe(cur));
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    bool advanced = false;
    for (auto& [succ, label] : sys.successors(cur)) {
      if (label.text + "  =>  " + sys.describe(succ) != r.trace[i]) continue;
      cur = std::move(succ);
      advanced = true;
      break;
    }
    ASSERT_TRUE(advanced) << "step " << i
                          << " is not a concrete transition: " << r.trace[i];
  }
  EXPECT_FALSE(opts.invariant(cur).empty());
}

// ---- random protocols from the §2.4 fragment ------------------------------

TEST(Por, VerdictAgreesOnRandomProtocols) {
  for (std::uint64_t seed : {1u, 2u, 5u, 9u, 13u, 21u, 34u, 55u}) {
    auto p = fuzz::random_protocol(seed);
    auto rp = refine::refine(p);
    AsyncSystem sys(rp, 2);
    auto full = check(sys, PorMode::Off, SymmetryMode::Off);
    for (unsigned jobs : {1u, 4u}) {
      auto reduced = check(sys, PorMode::Ample, SymmetryMode::Off, jobs);
      EXPECT_EQ(reduced.status, full.status)
          << "seed=" << seed << " jobs=" << jobs;
      EXPECT_LE(reduced.states, full.states)
          << "seed=" << seed << " jobs=" << jobs;
    }
  }
}

// ---- progress analysis under POR ------------------------------------------

TEST(Por, ProgressVerdictAgrees) {
  for (const auto& [p, n] : {std::pair{protocols::make_migratory(), 3},
                             std::pair{protocols::make_invalidate(), 2}}) {
    auto rp = refine::refine(p);
    AsyncSystem sys(rp, n);
    verify::ProgressOptions off;
    off.memory_limit = 512u << 20;
    verify::ProgressOptions ample = off;
    ample.por = PorMode::Ample;
    auto full = verify::check_progress(sys, off);
    auto reduced = verify::check_progress(sys, ample);
    ASSERT_EQ(full.status, verify::Status::Ok);
    EXPECT_EQ(reduced.status, full.status);
    // Doomed-state counts are graph-relative, but the *verdict* — does a
    // livelock exist — must agree between the full and reduced graphs.
    EXPECT_EQ(reduced.doomed == 0, full.doomed == 0);
    EXPECT_LE(reduced.states, full.states);
  }
}

TEST(Por, ProgressDetectsSeededLivelockUnderReduction) {
  // Dropping the §3.2 progress-buffer reservation livelocks the migratory
  // protocol; the reduced search must still find doomed states.
  auto p = protocols::make_migratory();
  refine::Options ropts;
  ropts.progress_buffer = false;
  ropts.ack_buffer = false;
  auto rp = refine::refine(p, ropts);
  AsyncSystem sys(rp, 4);
  verify::ProgressOptions off;
  off.memory_limit = 512u << 20;
  verify::ProgressOptions ample = off;
  ample.por = PorMode::Ample;
  auto full = verify::check_progress(sys, off);
  auto reduced = verify::check_progress(sys, ample);
  ASSERT_EQ(full.status, verify::Status::Ok);
  ASSERT_EQ(reduced.status, verify::Status::Ok);
  EXPECT_GT(full.doomed, 0u);
  EXPECT_GT(reduced.doomed, 0u);
}

// ---- LTL: POR only for next-free formulas without fairness ----------------

TEST(Por, LtlVerdictAgreesWithoutFairness) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  for (const char* prop :
       {"G F completion", "G (requested(0) -> F granted(0))"}) {
    verify::LivenessOptions off;
    off.fairness = verify::FairnessMode::None;
    verify::LivenessOptions ample = off;
    ample.por = PorMode::Ample;
    auto full = ltl::check_ltl(sys, prop, off);
    auto reduced = ltl::check_ltl(sys, prop, ample);
    EXPECT_EQ(reduced.status, full.status) << prop;
    EXPECT_TRUE(reduced.note.empty()) << prop << ": " << reduced.note;
    EXPECT_LE(reduced.states, full.states) << prop;
  }
}

TEST(Por, LtlNextFormulaDowngradesWithNote) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::LivenessOptions opts;
  opts.fairness = verify::FairnessMode::None;
  opts.por = PorMode::Ample;
  auto r = ltl::check_ltl(sys, "G (completion -> X true)", opts);
  EXPECT_NE(r.note.find("por downgraded to off"), std::string::npos)
      << r.note;
  EXPECT_NE(r.note.find("X"), std::string::npos) << r.note;
}

TEST(Por, LtlFairnessDowngradesWithNote) {
  // Fairness marks live on product frames the ample reduction does not
  // preserve; the engine falls back and reports the same verdict as the
  // unreduced fair search.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  verify::LivenessOptions off;
  off.fairness = verify::FairnessMode::Weak;
  verify::LivenessOptions ample = off;
  ample.por = PorMode::Ample;
  auto full = ltl::check_ltl(sys, "G F completion", off);
  auto reduced = ltl::check_ltl(sys, "G F completion", ample);
  EXPECT_EQ(reduced.status, full.status);
  EXPECT_EQ(reduced.states, full.states);
  EXPECT_NE(reduced.note.find("por downgraded to off"), std::string::npos)
      << reduced.note;
}

// ---- StateSet budget accounting (the PR's bugfix) -------------------------

TEST(Por, StateSetBudgetMatchesUsageThroughExhaustion) {
  // Regression for the reservation leak: the admission check used to keep
  // its projected reservation when the insert was rejected, so repeated
  // rejected inserts inflated budget().used() past memory_used() and
  // starved sibling shards. The invariant now holds after every outcome.
  verify::StateSet set(24 << 10);
  std::uint64_t id = 0;
  auto bytes = [](std::uint64_t v) {
    std::vector<std::byte> b(16);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = static_cast<std::byte>((v >> ((i % 8) * 8)) & 0xff);
    return b;
  };
  for (;; ++id) {
    auto r = set.insert(bytes(id));
    ASSERT_EQ(set.budget().used(), set.memory_used()) << "after id " << id;
    if (r.outcome == verify::StateSet::Outcome::Exhausted) break;
    ASSERT_LT(id, 100000u);
  }
  // The leak showed up on *repeated* exhaustion: each rejected insert left
  // its projected bytes reserved. Hammer the full set and re-check.
  for (int k = 0; k < 100; ++k) {
    auto r = set.insert(bytes(id + 1 + static_cast<std::uint64_t>(k)));
    EXPECT_EQ(r.outcome, verify::StateSet::Outcome::Exhausted);
    ASSERT_EQ(set.budget().used(), set.memory_used()) << "retry " << k;
  }
  // Lookups of resident states keep the invariant too.
  auto hit = set.insert(bytes(0));
  EXPECT_EQ(hit.outcome, verify::StateSet::Outcome::AlreadyPresent);
  EXPECT_EQ(set.budget().used(), set.memory_used());
}

TEST(Por, SharedBudgetShardsStayReconciled) {
  // Two shards on one budget: after one shard exhausts the pool, the
  // budget's used() must equal the sum of what the shards actually hold —
  // otherwise the sibling is starved by phantom charges.
  verify::MemoryBudget budget(24 << 10);
  verify::StateSet a(budget);
  verify::StateSet b(budget);
  auto bytes = [](std::uint64_t v, std::byte tag) {
    std::vector<std::byte> out(16, tag);
    for (std::size_t i = 0; i < 8; ++i)
      out[i] = static_cast<std::byte>((v >> (i * 8)) & 0xff);
    return out;
  };
  std::uint64_t id = 0;
  while (true) {
    auto r = a.insert(bytes(id++, std::byte{0xaa}));
    ASSERT_EQ(budget.used(), a.memory_used() + b.memory_used());
    if (r.outcome == verify::StateSet::Outcome::Exhausted) break;
    ASSERT_LT(id, 100000u);
  }
  for (int k = 0; k < 50; ++k) {
    (void)a.insert(bytes(id + static_cast<std::uint64_t>(k), std::byte{0xaa}));
    (void)b.insert(bytes(static_cast<std::uint64_t>(k), std::byte{0xbb}));
    ASSERT_EQ(budget.used(), a.memory_used() + b.memory_used())
        << "retry " << k;
  }
}

}  // namespace
}  // namespace ccref
