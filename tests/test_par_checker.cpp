// The parallel engine must agree with the sequential one: identical status,
// state count, and transition count on every Ok run (exploration order is
// the only thing that differs), and identical status on violation /
// exhaustion runs (the offending state may legitimately differ).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/writeupdate.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"
#include "verify/par_checker.hpp"

namespace ccref {
namespace {

using runtime::AsyncSystem;
using sem::RendezvousSystem;
using sem::RvState;

constexpr unsigned kJobs = 4;

template <class Sys>
void expect_engines_agree(const Sys& sys, const char* what) {
  verify::CheckOptions<Sys> opts;
  opts.want_trace = false;
  auto seq = verify::explore(sys, opts);
  const unsigned max_jobs =
      std::max(2u, std::thread::hardware_concurrency());
  for (unsigned jobs : {1u, kJobs, max_jobs}) {
    auto par = verify::par_explore(sys, opts, jobs);
    EXPECT_EQ(par.status, seq.status) << what << " jobs=" << jobs;
    EXPECT_EQ(par.states, seq.states) << what << " jobs=" << jobs;
    EXPECT_EQ(par.transitions, seq.transitions) << what << " jobs=" << jobs;
  }
}

void expect_both_semantics_agree(const ir::Protocol& p, int n,
                                 const char* what) {
  expect_engines_agree(RendezvousSystem(p, n), what);
  auto rp = refine::refine(p);
  expect_engines_agree(AsyncSystem(rp, n), what);
}

TEST(ParChecker, MatchesSequentialMigratory) {
  expect_both_semantics_agree(protocols::make_migratory(), 2, "migratory");
}

TEST(ParChecker, MatchesSequentialInvalidate) {
  expect_both_semantics_agree(protocols::make_invalidate(), 2, "invalidate");
}

TEST(ParChecker, MatchesSequentialWriteUpdate) {
  expect_both_semantics_agree(protocols::make_write_update(), 2,
                              "writeupdate");
}

TEST(ParChecker, MatchesSequentialLockServer) {
  expect_both_semantics_agree(protocols::make_lock_server(), 2, "lockserver");
}

TEST(ParChecker, RendezvousAtLargerN) {
  // More states, more stealing: the parallel totals must still be exact.
  expect_engines_agree(RendezvousSystem(protocols::make_migratory(), 6),
                       "migratory n=6");
}

TEST(ParChecker, UnfinishedStatusMatchesUnderTightBudget) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  verify::CheckOptions<AsyncSystem> opts;
  opts.memory_limit = 1u << 20;
  opts.want_trace = false;
  AsyncSystem sys(rp, 4);
  auto seq = verify::explore(sys, opts);
  auto par = verify::par_explore(sys, opts, kJobs);
  EXPECT_EQ(seq.status, verify::Status::Unfinished);
  EXPECT_EQ(par.status, verify::Status::Unfinished);
  EXPECT_GT(par.states, 0u);
  EXPECT_LE(par.memory_bytes, opts.memory_limit);
}

TEST(ParChecker, InvariantViolationDetectedWithTrace) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  ir::StateId rV = p.remote.find_state("V");
  opts.invariant = [rV](const RvState& s) {
    for (const auto& r : s.remotes)
      if (r.state == rV) return "someone reached V";
    return "";
  };
  auto par = verify::par_explore(sys, opts, kJobs);
  ASSERT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.violation, "someone reached V");
  // The parallel trace is a real path (possibly non-minimal): it starts at
  // the root and every step reconstructs.
  ASSERT_GE(par.trace.size(), 2u);
  EXPECT_NE(par.trace[0].find("initial"), std::string::npos);
  for (const auto& step : par.trace)
    EXPECT_EQ(step.find("<trace reconstruction failed>"), std::string::npos)
        << step;
}

TEST(ParChecker, InvariantViolationOnInitialState) {
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 1);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.invariant = [](const RvState&) { return "always broken"; };
  auto par = verify::par_explore(sys, opts, kJobs);
  EXPECT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.states, 1u);
  ASSERT_EQ(par.trace.size(), 1u);
}

TEST(ParChecker, EdgeCheckRuns) {
  // An edge check that rejects every completing rendezvous must fire in both
  // engines; labels must be materialized for its diagnostic.
  auto p = protocols::make_migratory();
  RendezvousSystem sys(p, 2);
  verify::CheckOptions<RendezvousSystem> opts;
  opts.edge_check = [](const RvState&, const RvState&, const sem::Label& l) {
    return l.completes_rendezvous ? "rendezvous forbidden" : "";
  };
  auto seq = verify::explore(sys, opts);
  auto par = verify::par_explore(sys, opts, kJobs);
  EXPECT_EQ(seq.status, verify::Status::InvariantViolated);
  EXPECT_EQ(par.status, verify::Status::InvariantViolated);
  EXPECT_NE(par.violation.find("edge '"), std::string::npos);
  EXPECT_NE(par.violation.find("rendezvous forbidden"), std::string::npos);
}

TEST(ParChecker, QuietLabelsStillCountMessages) {
  // LabelMode::Quiet must not change enumeration, only skip text.
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto s = sys.initial();
  auto full = sys.successors(s, sem::LabelMode::Full);
  auto quiet = sys.successors(s, sem::LabelMode::Quiet);
  ASSERT_EQ(full.size(), quiet.size());
  ASSERT_FALSE(full.empty());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].first, quiet[i].first);
    EXPECT_FALSE(full[i].second.text.empty());
    EXPECT_TRUE(quiet[i].second.text.empty());
    EXPECT_EQ(full[i].second.decision, quiet[i].second.decision);
    EXPECT_EQ(full[i].second.messages_sent(),
              quiet[i].second.messages_sent());
    EXPECT_EQ(full[i].second.completes_rendezvous,
              quiet[i].second.completes_rendezvous);
  }
}

}  // namespace
}  // namespace ccref
