// Tests for the asynchronous semantics (Tables 1 and 2), the §4 abstraction
// function and Equation-1 simulation relation, and the behavioural
// differences between refinement variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "protocols/invalidate.hpp"
#include "protocols/lockserver.hpp"
#include "protocols/migratory.hpp"
#include "protocols/snoop.hpp"
#include "protocols/writeupdate.hpp"
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
using runtime::ExecResult;
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

// ---- pinned enumeration -----------------------------------------------------

std::string encoding(const AsyncSystem& sys, const AsyncState& s) {
  ByteSink sink;
  sys.encode(s, sink);
  return {reinterpret_cast<const char*>(sink.bytes().data()),
          sink.bytes().size()};
}

/// Every state reachable from the initial one, in BFS order.
std::vector<AsyncState> reachable(const AsyncSystem& sys) {
  std::unordered_set<std::string> seen;
  std::vector<AsyncState> order;
  auto visit = [&](const AsyncState& s) {
    if (seen.insert(encoding(sys, s)).second) order.push_back(s);
  };
  visit(sys.initial());
  for (std::size_t k = 0; k < order.size(); ++k)
    for (auto& [next, label] : sys.successors(order[k], sem::LabelMode::Quiet))
      visit(next);
  return order;
}

/// FNV-1a over everything successors() and successors_por() expose on the
/// reachable graph: edge order, successor encodings, label text and fields,
/// and the POR candidate ranges.
std::uint64_t enumeration_digest(const AsyncSystem& sys) {
  std::uint64_t h = 14695981039346656037ull;
  auto bytes = [&](const void* p, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      h ^= static_cast<const unsigned char*>(p)[k];
      h *= 1099511628211ull;
    }
  };
  auto num = [&](std::int64_t v) { bytes(&v, sizeof v); };
  auto str = [&](const std::string& s) {
    num(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  };
  auto edges = [&](const std::vector<std::pair<AsyncState, sem::Label>>& es) {
    num(static_cast<std::int64_t>(es.size()));
    for (const auto& [next, l] : es) {
      str(encoding(sys, next));
      str(l.text);
      str(l.decision);
      for (int v : {int{l.completes_rendezvous}, int{l.sent_req},
                    int{l.sent_ack}, int{l.sent_nack}, int{l.sent_repl},
                    l.actor, l.granted_to})
        num(v);
    }
  };
  for (const AsyncState& s : reachable(sys)) {
    edges(sys.successors(s, sem::LabelMode::Full));
    const auto por = sys.successors_por(s, sem::LabelMode::Full);
    edges(por.all);
    num(static_cast<std::int64_t>(por.candidates.size()));
    for (const auto& c : por.candidates)
      for (std::int64_t v : {std::int64_t{c.process}, std::int64_t{c.delivery},
                             std::int64_t{c.local_begin},
                             std::int64_t{c.local_end}})
        num(v);
  }
  return h;
}

// Constants recorded before the rule code was shared with the in-place
// simulator steps; any change to successor order, encodings, label text or
// POR candidates shows up here.
TEST(Async, EnumerationDigest) {
  const auto mig = protocols::make_migratory();
  const auto inv = protocols::make_invalidate();
  const auto mesi = protocols::make_mesi();
  const auto rmig = refine::refine(mig);
  const auto rinv = refine::refine(inv);
  const auto rmesi = refine::refine(mesi);
  EXPECT_EQ(enumeration_digest(AsyncSystem(rmig, 3)), 0xdd5e44481f658cfeull)
      << "migratory n=3";
  EXPECT_EQ(enumeration_digest(AsyncSystem(rinv, 3)), 0x2c2ee5aae773572dull)
      << "invalidate n=3";
  EXPECT_EQ(enumeration_digest(AsyncSystem(rmesi, 2)), 0x5a44ba3aae9f9d90ull)
      << "mesi n=2";
}

// ---- in-place steps ----------------------------------------------------------

/// One wire message pushed by a step: its channel and kind.
struct Push {
  bool up;
  int node;
  Meta meta;
  ir::MsgId msg;
  friend auto operator<=>(const Push&, const Push&) = default;
};

/// The messages `to` holds beyond what `from` had at each channel's tail,
/// given that the step popped the head of up[i] (`popped` == 1) or down[i]
/// (`popped` == 2), or neither (0).
std::vector<Push> tail_pushes(const AsyncState& from, const AsyncState& to,
                              int popped, int i) {
  std::vector<Push> out;
  for (bool up : {true, false})
    for (std::size_t j = 0; j < from.up.size(); ++j) {
      const auto& a = (up ? from.up : from.down)[j].q;
      const auto& b = (up ? to.up : to.down)[j].q;
      const bool head = static_cast<int>(j) == i && popped == (up ? 1 : 2);
      for (std::size_t k = a.size() - (head ? 1 : 0); k < b.size(); ++k)
        out.push_back({up, static_cast<int>(j), b[k].meta, b[k].msg});
    }
  std::sort(out.begin(), out.end());
  return out;
}

bool same_flags(const sem::Label& a, const sem::Label& b) {
  return a.completes_rendezvous == b.completes_rendezvous &&
         a.sent_req == b.sent_req && a.sent_ack == b.sent_ack &&
         a.sent_nack == b.sent_nack && a.sent_repl == b.sent_repl &&
         a.actor == b.actor && a.granted_to == b.granted_to &&
         a.decision == b.decision;
}

struct StepCounts {
  std::size_t applied = 0;
  std::size_t blocked = 0;
  std::size_t r3_nacks = 0;  // a request from the home's pending target, nacked
};

/// Run every in-place step on every reachable state and hold it to
/// successors(): an Applied step is one of the enumerated edges (state and
/// label flags, starting from a stale label as the simulator's reused one
/// is) and logs exactly that edge's channel-tail pushes; Blocked and None
/// leave the state alone, and a system with one more channel slot turns
/// Blocked into Applied but leaves None alone — so Blocked means a
/// capacity-blocked edge exists.
StepCounts expect_in_place_matches_enumeration(const ir::Protocol& p,
                                               Options opts, int n,
                                               const std::string& what) {
  const auto rp = refine::refine(p, opts);
  ++opts.channel_capacity;
  const auto roomy_rp = refine::refine(p, opts);
  const AsyncSystem sys(rp, n);
  const AsyncSystem roomy(roomy_rp, n);
  const runtime::AllowAllGate gate;
  sem::Label stale;
  stale.text = stale.decision = "stale";
  stale.completes_rendezvous = true;
  stale.sent_req = stale.sent_ack = stale.sent_nack = stale.sent_repl = 9;
  stale.actor = stale.granted_to = 7;
  StepCounts counts;
  for (const AsyncState& s : reachable(sys)) {
    const auto edges = sys.successors(s, sem::LabelMode::Quiet);
    auto check = [&](const char* step_name, int i, int popped, auto step) {
      AsyncState t = s;
      sem::Label l = stale;
      runtime::SendLog log;
      const ExecResult r = step(sys, t, l, &log);
      AsyncState u = s;
      sem::Label ul;
      const ExecResult with_room = step(roomy, u, ul, nullptr);
      auto where = [&] {
        return what + " " + step_name + "(" + std::to_string(i) + ") at " +
               sys.describe(s);
      };
      if (r != ExecResult::Applied) {
        EXPECT_TRUE(t == s) << where();
        EXPECT_EQ(log.count, 0) << where();
        EXPECT_EQ(with_room == ExecResult::Applied, r == ExecResult::Blocked)
            << where();
        if (r == ExecResult::Blocked) ++counts.blocked;
        return;
      }
      ++counts.applied;
      EXPECT_EQ(with_room, ExecResult::Applied) << where();
      EXPECT_TRUE(l.text.empty()) << where();
      const bool enumerated =
          std::any_of(edges.begin(), edges.end(), [&](const auto& e) {
            return e.first == t && same_flags(e.second, l);
          });
      EXPECT_TRUE(enumerated) << where() << " -> " << sys.describe(t);
      std::vector<Push> logged;
      for (int k = 0; k < log.count; ++k)
        logged.push_back({log.e[k].up, log.e[k].node, log.e[k].meta,
                          log.e[k].msg});
      std::sort(logged.begin(), logged.end());
      EXPECT_TRUE(logged == tail_pushes(s, t, popped, i)) << where();
      if (popped == 1 && l.sent_nack && s.home.transient &&
          s.home.t_target == i)
        ++counts.r3_nacks;
    };
    for (int i = 0; i < n; ++i) {
      check("deliver_up", i, 1,
            [i](const AsyncSystem& y, AsyncState& t, sem::Label& l,
                runtime::SendLog* log) { return y.deliver_up(t, i, l, log); });
      check("deliver_down", i, 2,
            [i](const AsyncSystem& y, AsyncState& t, sem::Label& l,
                runtime::SendLog* log) {
              return y.deliver_down(t, i, l, log);
            });
      check("remote_step", i, 0,
            [i, &gate](const AsyncSystem& y, AsyncState& t, sem::Label& l,
                       runtime::SendLog* log) {
              return y.remote_step(t, i, gate, l, log);
            });
    }
    check("home_step", -1, 0,
          [](const AsyncSystem& y, AsyncState& t, sem::Label& l,
             runtime::SendLog* log) { return y.home_step(t, l, log); });
  }
  EXPECT_GT(counts.applied, 0u) << what;
  return counts;
}

TEST(AsyncInPlace, StepsAreEnumeratedEdges) {
  const auto mig = protocols::make_migratory();
  const auto inv = protocols::make_invalidate();
  const auto lock = protocols::make_lock_server();
  for (int n : {2, 3}) {
    const std::string at = " n=" + std::to_string(n);
    expect_in_place_matches_enumeration(mig, {}, n, "migratory" + at);
    expect_in_place_matches_enumeration(inv, {}, n, "invalidate" + at);
    expect_in_place_matches_enumeration(lock, {}, n, "lockserver" + at);
  }
  // Write-update at n=3 has 1.1M reachable states; n=2 (10k) covers its
  // data-carrying updates.
  expect_in_place_matches_enumeration(protocols::make_write_update(), {}, 2,
                                      "writeupdate n=2");
}

TEST(AsyncInPlace, FullChannelsBlock) {
  // One-slot channels fill up in reachable states, so every rule's
  // capacity checks run before its first write or report Blocked.
  Options tight;
  tight.channel_capacity = 1;
  struct Case {
    ir::Protocol protocol;
    int n;
    const char* what;
  };
  for (const Case& c : {Case{protocols::make_migratory(), 3, "migratory"},
                        Case{protocols::make_invalidate(), 3, "invalidate"},
                        Case{protocols::make_mesi(), 2, "mesi"}})
    EXPECT_GT(
        expect_in_place_matches_enumeration(c.protocol, tight, c.n, c.what)
            .blocked,
        0u)
        << c.what;
}

TEST(AsyncInPlace, AblatedBuffers) {
  // Without the §3.2 ack buffer the home can be transient with a full
  // buffer.
  Options no_ack;
  no_ack.ack_buffer = false;
  expect_in_place_matches_enumeration(protocols::make_invalidate(), no_ack,
                                      3, "invalidate no-ack n=3");
  // With the progress buffer off as well, two rival requests can fill it
  // while the home waits on the owner; the owner's own request then meets
  // rule R3 with no room and is nacked (row T3's nack path, n >= 4).
  Options no_buffers = no_ack;
  no_buffers.progress_buffer = false;
  EXPECT_GT(expect_in_place_matches_enumeration(protocols::make_migratory(),
                                                no_buffers, 4,
                                                "migratory no-buffers n=4")
                .r3_nacks,
            0u);
}

TEST(AsyncInPlace, SnoopingBusSteps) {
  // The rules carry the split bus transaction (Snoop/SnoopAck) too, so the
  // in-place steps need no topology gate of their own.
  expect_in_place_matches_enumeration(protocols::make_mesi(), {}, 3,
                                      "mesi n=3");
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
