// Tests for the asynchronous semantics (Tables 1 and 2), the §4 abstraction
// function and Equation-1 simulation relation, and the behavioural
// differences between refinement variants.
#include <gtest/gtest.h>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/abstraction.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"
#include "sem/rendezvous.hpp"
#include "verify/checker.hpp"

namespace ccref {
namespace {

using refine::Options;
using runtime::AsyncState;
using runtime::AsyncSystem;
using runtime::Meta;
using sem::RendezvousSystem;

TEST(Async, InitialStateMirrorsProtocol) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  AsyncState s = sys.initial();
  EXPECT_FALSE(s.home.transient);
  EXPECT_EQ(s.home.state, p.home.initial);
  EXPECT_TRUE(s.home.buffer.empty());
  for (const auto& r : s.remotes) {
    EXPECT_FALSE(r.transient);
    EXPECT_FALSE(r.buffer.has_value());
  }
}

TEST(Async, EncodeDecodeRoundTrip) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  // Walk a few deterministic steps, round-tripping each state.
  AsyncState s = sys.initial();
  for (int step = 0; step < 20; ++step) {
    ByteSink sink;
    sys.encode(s, sink);
    ByteSource src(sink.bytes());
    AsyncState back = sys.decode(src);
    ASSERT_TRUE(src.exhausted());
    ASSERT_EQ(s, back) << "step " << step << ": " << sys.describe(s);
    auto succs = sys.successors(s);
    if (succs.empty()) break;
    s = succs[step % succs.size()].first;
  }
}

TEST(Async, FirstStepsAreRemoteRequests) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  auto succs = sys.successors(sys.initial());
  // Initially: each remote can initiate its fused req; nothing else.
  ASSERT_EQ(succs.size(), 2u);
  for (const auto& [next, label] : succs) {
    EXPECT_EQ(label.sent_req, 1);
    EXPECT_EQ(label.decision, "req");
    EXPECT_FALSE(label.completes_rendezvous);
  }
  // After sending, the remote is transient and its request is in flight.
  const AsyncState& s1 = succs[0].first;
  EXPECT_TRUE(s1.remotes[0].transient);
  ASSERT_EQ(s1.up[0].size(), 1u);
  EXPECT_EQ(s1.up[0].front().meta, Meta::Req);
}

/// Drive one full fused req/gr transaction by hand and count messages:
/// exactly 2 (the §3.3 result), with no acks.
TEST(Async, FusedGrantTakesTwoMessages) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 1);
  AsyncState s = sys.initial();
  int req = 0, ack = 0, nack = 0, repl = 0, steps = 0;
  // Deterministically follow the only enabled transition until r0 is in V.
  const ir::StateId rV = p.remote.find_state("V");
  while (s.remotes[0].state != rV || s.remotes[0].transient) {
    auto succs = sys.successors(s);
    ASSERT_EQ(succs.size(), 1u) << sys.describe(s);
    req += succs[0].second.sent_req;
    ack += succs[0].second.sent_ack;
    nack += succs[0].second.sent_nack;
    repl += succs[0].second.sent_repl;
    s = succs[0].first;
    ASSERT_LT(++steps, 20);
  }
  EXPECT_EQ(req, 1);   // the fused req
  EXPECT_EQ(repl, 1);  // gr doubles as the ack
  EXPECT_EQ(ack, 0);
  EXPECT_EQ(nack, 0);
}

/// Without fusion the same transaction costs 4 messages (req+ack, gr+ack).
TEST(Async, UnfusedGrantTakesFourMessages) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.request_reply_fusion = false;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 1);
  AsyncState s = sys.initial();
  int req = 0, ack = 0, repl = 0, steps = 0;
  const ir::StateId rV = p.remote.find_state("V");
  while (s.remotes[0].state != rV || s.remotes[0].transient) {
    auto succs = sys.successors(s);
    ASSERT_GE(succs.size(), 1u) << sys.describe(s);
    req += succs[0].second.sent_req;
    ack += succs[0].second.sent_ack;
    repl += succs[0].second.sent_repl;
    s = succs[0].first;
    ASSERT_LT(++steps, 30);
  }
  EXPECT_EQ(req, 2);
  EXPECT_EQ(ack, 2);
  EXPECT_EQ(repl, 0);
}

// ---- full exploration -------------------------------------------------------

struct AsyncCase {
  int n;
  bool fusion;
  // gtest names each case with a byte dump of this struct. Spell the padding
  // out as zeroed bytes so the dump, and so the test name, is the same on
  // every build instead of echoing leftover stack contents.
  char pad[3];
  const char* name;
};

class AsyncMigratory : public testing::TestWithParam<AsyncCase> {};

TEST_P(AsyncMigratory, SafeDeadlockFreeAndSound) {
  const auto& param = GetParam();
  auto p = protocols::make_migratory();
  Options opts;
  opts.request_reply_fusion = param.fusion;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, param.n);
  RendezvousSystem rv(p, param.n);

  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 256u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, param.n);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << verify::to_string(result.status) << ": " << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
  EXPECT_GT(result.states, param.n >= 2 ? 100u : 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AsyncMigratory,
    testing::Values(AsyncCase{1, true, {}, "n1"}, AsyncCase{2, true, {}, "n2"},
                    AsyncCase{1, false, {}, "n1nofuse"},
                    AsyncCase{2, false, {}, "n2nofuse"}),
    [](const auto& info) { return info.param.name; });

TEST(AsyncExplore, InvalidateN2SoundAndSafe) {
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 512u << 20;
  copts.invariant = protocols::invalidate_async_invariant(p, 2);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

TEST(AsyncExplore, AsyncBlowsUpRelativeToRendezvous) {
  // The essence of Table 3: the asynchronous state space dwarfs the
  // rendezvous one for the same protocol and N.
  auto p = protocols::make_migratory();
  auto rv_result = verify::explore(RendezvousSystem(p, 2));
  auto rp = refine::refine(p);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 256u << 20;
  auto as_result = verify::explore(AsyncSystem(rp, 2), copts);
  ASSERT_EQ(rv_result.status, verify::Status::Ok);
  ASSERT_EQ(as_result.status, verify::Status::Ok);
  EXPECT_GT(as_result.states, rv_result.states * 10);
}

TEST(AsyncExplore, HandDesignElideAckSafe) {
  // The Avalanche hand design (no ack after LR) is still safe, verified
  // directly on the asynchronous state space.
  auto p = protocols::make_migratory();
  Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 256u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, 2);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

TEST(AsyncExplore, LargerBufferStillSound) {
  auto p = protocols::make_migratory();
  Options opts;
  opts.home_buffer_capacity = 4;
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 512u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, 2);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

TEST(AsyncExplore, DataDomainPropagatesValues) {
  auto p = protocols::make_migratory({.data_domain = 2});
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  verify::CheckOptions<AsyncSystem> copts;
  copts.memory_limit = 512u << 20;
  copts.invariant = protocols::migratory_async_invariant(p, 2);
  copts.edge_check = refine::make_simulation_checker(sys, rv);
  auto result = verify::explore(sys, copts);
  EXPECT_EQ(result.status, verify::Status::Ok)
      << result.violation
      << (result.trace.empty() ? "" : "\n" + result.trace.back());
}

// ---- abstraction ------------------------------------------------------------

TEST(Abstraction, InitialMapsToInitial) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 2);
  RendezvousSystem rv(p, 2);
  auto a = refine::abstract(sys, sys.initial());
  ByteSink sa, sb;
  rv.encode(a, sa);
  rv.encode(rv.initial(), sb);
  EXPECT_TRUE(std::equal(sa.bytes().begin(), sa.bytes().end(),
                         sb.bytes().begin(), sb.bytes().end()));
}

TEST(Abstraction, InFlightRequestIsDiscarded) {
  auto p = protocols::make_migratory();
  auto rp = refine::refine(p);
  AsyncSystem sys(rp, 1);
  // r0 sends its req: concrete state has r0 transient; abs maps it back.
  auto succs = sys.successors(sys.initial());
  ASSERT_EQ(succs.size(), 1u);
  auto a = refine::abstract(sys, succs[0].first);
  EXPECT_EQ(a.remotes[0].state, p.remote.find_state("I"));
  EXPECT_EQ(a.home.state, p.home.find_state("F"));
}

TEST(Abstraction, RejectsElideAckVariants) {
  auto p = protocols::make_migratory();
  refine::Options opts;
  opts.elide_ack = {"LR"};
  auto rp = refine::refine(p, opts);
  AsyncSystem sys(rp, 1);
  EXPECT_DEATH((void)refine::abstract(sys, sys.initial()), "elide-ack");
}

}  // namespace
}  // namespace ccref
