// Row-by-row scenario tests for the paper's Table 1 (remote rules) and
// Table 2 (home rules). Each test constructs the exact situation a row
// describes and asserts that precisely that rule fires, with the effects
// the table specifies. States are built by mutating AsyncSystem::initial().
#include <gtest/gtest.h>

#include "protocols/invalidate.hpp"
#include "protocols/migratory.hpp"
#include "refine/refined.hpp"
#include "runtime/async_system.hpp"

namespace ccref {
namespace {

using refine::Options;
using runtime::AsyncState;
using runtime::AsyncSystem;
using runtime::Meta;
using runtime::Msg;
using runtime::Payload;
using sem::Label;

/// Migratory with fusion disabled: every rendezvous uses the generic
/// request/ack scheme, which is what Tables 1 and 2 describe.
struct Generic {
  ir::Protocol p = protocols::make_migratory();
  refine::RefinedProtocol rp;
  AsyncSystem sys;

  Generic()
      : rp(refine::refine(p, plain())), sys(rp, 3) {}

  static Options plain() {
    Options o;
    o.request_reply_fusion = false;
    return o;
  }

  ir::StateId rs(const char* name) const { return p.remote.find_state(name); }
  ir::StateId hs(const char* name) const { return p.home.find_state(name); }
  ir::MsgId msg(const char* name) const { return p.find_message(name); }

  Msg req_from(int src, const char* m, Payload pay = {}) const {
    Msg out;
    out.meta = Meta::Req;
    out.msg = msg(m);
    out.src = static_cast<std::uint8_t>(src);
    out.payload = std::move(pay);
    return out;
  }
  Msg home_req(const char* m, Payload pay = {}) const {
    Msg out;
    out.meta = Meta::Req;
    out.msg = msg(m);
    out.src = Msg::kHomeSrc;
    out.payload = std::move(pay);
    return out;
  }
  Msg ctrl(Meta meta, int src) const {
    Msg out;
    out.meta = meta;
    out.src = src < 0 ? Msg::kHomeSrc : static_cast<std::uint8_t>(src);
    return out;
  }

  /// The unique successor whose label contains `needle`.
  std::pair<AsyncState, Label> only(const AsyncState& s,
                                    const std::string& needle) const {
    auto succs = sys.successors(s);
    const std::pair<AsyncState, Label>* found = nullptr;
    int hits = 0;
    for (const auto& sl : succs)
      if (sl.second.text.find(needle) != std::string::npos) {
        found = &sl;
        ++hits;
      }
    EXPECT_EQ(hits, 1) << "needle '" << needle << "' in "
                       << sys.describe(s);
    if (!found) return {s, {}};
    return *found;
  }

  bool has(const AsyncState& s, const std::string& needle) const {
    for (const auto& [next, label] : sys.successors(s))
      if (label.text.find(needle) != std::string::npos) return true;
    return false;
  }
};

// ---- Table 1: remote node ------------------------------------------------------

TEST(Table1, C1_ActiveWithEmptyBufferSendsRequest) {
  Generic f;
  AsyncState s = f.sys.initial();  // r0 in I (active), empty buffer
  auto [next, label] = f.only(s, "r0 C1: request req");
  EXPECT_EQ(label.sent_req, 1);
  EXPECT_TRUE(next.remotes[0].transient);
  ASSERT_EQ(next.up[0].size(), 1u);
  EXPECT_EQ(next.up[0].front().meta, Meta::Req);
  EXPECT_EQ(next.up[0].front().msg, f.msg("req"));
}

TEST(Table1, C2_ActiveWithBufferedRequestDeletesIt) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.remotes[0].buffer = f.home_req("inv");  // stale request from the home
  auto [next, label] = f.only(s, "r0 C2: request req");
  EXPECT_FALSE(next.remotes[0].buffer.has_value())
      << "row C2: the buffered request must be deleted";
  EXPECT_TRUE(next.remotes[0].transient);
}

TEST(Table1, C3_PassiveMatchingRequestIsAcked) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.remotes[0].state = f.rs("W");
  s.remotes[0].buffer = f.req_from(-1, "gr", {0});
  s.remotes[0].buffer->src = Msg::kHomeSrc;
  auto [next, label] = f.only(s, "r0 C3: ack gr");
  EXPECT_EQ(label.sent_ack, 1);
  EXPECT_TRUE(label.completes_rendezvous);
  EXPECT_EQ(next.remotes[0].state, f.rs("V"));
  EXPECT_FALSE(next.remotes[0].buffer.has_value());
  ASSERT_EQ(next.up[0].size(), 1u);
  EXPECT_EQ(next.up[0].front().meta, Meta::Ack);
}

TEST(Table1, C3_PassiveNonMatchingRequestIsNacked) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.remotes[0].state = f.rs("W");         // W only accepts gr
  s.remotes[0].buffer = f.home_req("inv");
  auto [next, label] = f.only(s, "r0 C3: nack inv");
  EXPECT_EQ(label.sent_nack, 1);
  EXPECT_EQ(next.remotes[0].state, f.rs("W")) << "continues to wait";
  EXPECT_FALSE(next.remotes[0].buffer.has_value());
}

TEST(Table1, T1_AckCompletesTheRendezvous) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.remotes[0].state = f.rs("I");
  s.remotes[0].transient = true;  // sent req, awaiting response
  s.down[0].push(f.ctrl(Meta::Ack, -1));
  auto [next, label] = f.only(s, "r0 T1: ack completes req");
  EXPECT_FALSE(next.remotes[0].transient);
  EXPECT_EQ(next.remotes[0].state, f.rs("W"));
}

TEST(Table1, T2_NackReturnsToCommunicationStateAndRetries) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.remotes[0].state = f.rs("I");
  s.remotes[0].transient = true;
  s.down[0].push(f.ctrl(Meta::Nack, -1));
  auto [next, label] = f.only(s, "r0 T2: nack");
  EXPECT_FALSE(next.remotes[0].transient);
  EXPECT_EQ(next.remotes[0].state, f.rs("I"));
  // Retransmission is now enabled again.
  EXPECT_TRUE(f.has(next, "r0 C1: request req"));
}

TEST(Table1, T3_RequestDuringTransientIsIgnored) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.remotes[0].state = f.rs("I");
  s.remotes[0].transient = true;
  s.down[0].push(f.home_req("inv"));
  auto [next, label] = f.only(s, "r0 T3: ignore inv");
  EXPECT_TRUE(next.remotes[0].transient) << "still waiting for ack/nack";
  EXPECT_TRUE(next.down[0].empty()) << "the request is deleted";
  EXPECT_FALSE(next.remotes[0].buffer.has_value());
  EXPECT_TRUE(next.up[0].empty()) << "no ack/nack is ever generated (R3)";
}

// ---- Table 2: home node --------------------------------------------------------

TEST(Table2, C1_SatisfyingBufferedRequestIsAcked) {
  Generic f;
  AsyncState s = f.sys.initial();  // home in F, accepts req from any
  s.home.buffer.push_back(f.req_from(1, "req"));
  auto [next, label] = f.only(s, "h C1: ack req from r1");
  EXPECT_EQ(label.sent_ack, 1);
  EXPECT_TRUE(label.completes_rendezvous);
  EXPECT_EQ(next.home.state, f.hs("GRANT"));
  EXPECT_TRUE(next.home.buffer.empty());
  EXPECT_EQ(next.home.store.get(f.p.home.find_var("j")), 1u)
      << "generalized input binds the sender";
}

TEST(Table2, C2_InitiatesRendezvousAndEntersTransient) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("I1");  // wants to send inv to the owner
  s.home.store.set(f.p.home.find_var("o"), 2);
  auto [next, label] = f.only(s, "h C2: request inv -> r2");
  EXPECT_EQ(label.sent_req, 1);
  EXPECT_TRUE(next.home.transient);
  EXPECT_EQ(next.home.t_target, 2);
  ASSERT_EQ(next.down[2].size(), 1u);
  EXPECT_EQ(next.down[2].front().msg, f.msg("inv"));
}

TEST(Table2, C2_ConditionA_BlockedWhileC1Possible) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("I1");
  s.home.store.set(f.p.home.find_var("o"), 2);
  // A buffered LR from the owner satisfies I1's guard: C2 must not fire.
  s.home.buffer.push_back(f.req_from(2, "LR", {0}));
  EXPECT_FALSE(f.has(s, "h C2")) << "condition (a) violated";
  EXPECT_TRUE(f.has(s, "h C1: ack LR from r2"));
}

TEST(Table2, C2_ConditionC_SkipsTargetWithPendingRequest) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("I1");
  s.home.store.set(f.p.home.find_var("o"), 2);
  // The owner's own req is pending (it cannot satisfy our inv): wasteful to
  // send. (A req can't complete in I1, so condition (a) is met.)
  s.home.buffer.push_back(f.req_from(2, "req"));
  EXPECT_FALSE(f.has(s, "h C2: request inv -> r2"))
      << "condition (c) violated";
}

TEST(Table2, C2_FullBufferEvictsAVictimIntoAckBuffer) {
  Generic f;  // k = 2
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("I1");
  s.home.store.set(f.p.home.find_var("o"), 0);
  // Two reqs fill the buffer; neither satisfies I1 (which wants LR/inv).
  s.home.buffer.push_back(f.req_from(1, "req"));
  s.home.buffer.push_back(f.req_from(2, "req"));
  auto [next, label] = f.only(s, "h C2: request inv -> r0");
  EXPECT_EQ(label.sent_nack, 1) << "one buffered request must be nacked to "
                                   "free the ack buffer";
  EXPECT_EQ(label.sent_req, 1);
  EXPECT_EQ(next.home.buffer.size(), 1u);
}

TEST(Table2, T1_AckCompletesHomeRendezvous) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("GRANT");
  s.home.store.set(f.p.home.find_var("j"), 1);
  s.home.transient = true;
  s.home.t_guard = 0;  // gr
  s.home.t_target = 1;
  s.up[1].push(f.ctrl(Meta::Ack, 1));
  auto [next, label] = f.only(s, "h T1: ack from r1 completes gr");
  EXPECT_FALSE(next.home.transient);
  EXPECT_EQ(next.home.state, f.hs("E"));
  EXPECT_EQ(next.home.store.get(f.p.home.find_var("o")), 1u)
      << "the output action runs at completion";
}

TEST(Table2, T2_NackReturnsToCommunicationState) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("GRANT");
  s.home.store.set(f.p.home.find_var("j"), 1);
  s.home.transient = true;
  s.home.t_guard = 0;
  s.home.t_target = 1;
  s.up[1].push(f.ctrl(Meta::Nack, 1));
  auto [next, label] = f.only(s, "h T2: nack from r1");
  EXPECT_FALSE(next.home.transient);
  EXPECT_EQ(next.home.state, f.hs("GRANT"));
  EXPECT_EQ(next.home.store.get(f.p.home.find_var("o")), ir::kNoNode)
      << "the output action must NOT have run";
}

TEST(Table2, T3_RequestFromPendingTargetIsImplicitNack) {
  Generic f;
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("I1");
  s.home.store.set(f.p.home.find_var("o"), 0);
  s.home.transient = true;  // inv sent to r0
  s.home.t_guard = 0;
  s.home.t_target = 0;
  s.up[0].push(f.req_from(0, "LR", {0}));  // r0 evicted concurrently
  auto [next, label] = f.only(s, "h T3: implicit nack; buffered LR");
  EXPECT_FALSE(next.home.transient) << "back to the communication state";
  ASSERT_EQ(next.home.buffer.size(), 1u);
  EXPECT_EQ(next.home.buffer[0].msg, f.msg("LR"));
  // The buffered LR now completes via C1.
  EXPECT_TRUE(f.has(next, "h C1: ack LR from r0"));
}

TEST(Table2, T4_RequestBufferedWhenSpaceAmple) {
  Generic f;
  Options o = Generic::plain();
  o.home_buffer_capacity = 4;  // free > 2 even with the ack reservation
  auto rp = refine::refine(f.p, o);
  AsyncSystem sys(rp, 3);
  AsyncState s = sys.initial();
  s.home.state = f.hs("I1");
  s.home.store.set(f.p.home.find_var("o"), 0);
  s.home.transient = true;
  s.home.t_guard = 0;
  s.home.t_target = 0;
  s.up[1].push(f.req_from(1, "req"));
  bool buffered = false;
  for (const auto& [next, label] : sys.successors(s))
    if (label.text.find("h buffer: req from r1") != std::string::npos) {
      buffered = true;
      EXPECT_EQ(next.home.buffer.size(), 1u);
      EXPECT_TRUE(next.home.transient) << "T4 does not leave the transient";
    }
  EXPECT_TRUE(buffered);
}

TEST(Table2, T5_LastSlotReservedForSatisfyingRequests) {
  // Uses the invalidate protocol: its INV state accepts drop from anyone,
  // so a drop satisfies the progress buffer while a reqS does not.
  auto p = protocols::make_invalidate();
  auto rp = refine::refine(p);  // k = 2
  AsyncSystem sys(rp, 3);
  AsyncState s = sys.initial();
  s.home.state = p.home.find_state("INV");
  NodeSet cs;
  cs.add(0);
  s.home.store.set(p.home.find_var("cs"), cs.bits());
  s.home.transient = true;  // inv outstanding to r0
  s.home.t_guard = 0;
  s.home.t_target = 0;
  s.remotes[0].state = p.remote.find_state("S");

  // avail = k - used - ackbuf = 2 - 0 - 1 = 1: only satisfying requests.
  {
    AsyncState t = s;
    Msg drop;
    drop.meta = Meta::Req;
    drop.msg = p.find_message("drop");
    drop.src = 1;
    t.up[1].push(drop);
    bool buffered = false, nacked = false;
    for (const auto& [next, label] : sys.successors(t)) {
      if (label.text.find("h buffer: drop from r1") != std::string::npos)
        buffered = true;
      if (label.text.find("h T6: nack drop from r1") != std::string::npos)
        nacked = true;
    }
    EXPECT_TRUE(buffered) << "drop satisfies INV's guard: progress buffer";
    EXPECT_FALSE(nacked);
  }
  {
    AsyncState t = s;
    Msg reqs;
    reqs.meta = Meta::Req;
    reqs.msg = p.find_message("reqS");
    reqs.src = 1;
    t.up[1].push(reqs);
    bool buffered = false, nacked = false;
    for (const auto& [next, label] : sys.successors(t)) {
      if (label.text.find("h buffer: reqS from r1") != std::string::npos)
        buffered = true;
      if (label.text.find("h T6: nack reqS from r1") != std::string::npos)
        nacked = true;
    }
    EXPECT_FALSE(buffered) << "reqS cannot complete in INV: not admitted";
    EXPECT_TRUE(nacked) << "row T6";
  }
}

TEST(Table2, T6_RequestNackedWhenNoSpace) {
  Generic f;  // k = 2
  AsyncState s = f.sys.initial();
  s.home.state = f.hs("I1");
  s.home.store.set(f.p.home.find_var("o"), 0);
  s.home.transient = true;
  s.home.t_guard = 0;
  s.home.t_target = 0;
  s.home.buffer.push_back(f.req_from(2, "req"));  // one slot taken
  // avail = 2 - 1 - 1 = 0: everything from r1 bounces.
  s.up[1].push(f.req_from(1, "req"));
  auto [next, label] = f.only(s, "h T6: nack req from r1");
  EXPECT_EQ(label.sent_nack, 1);
  EXPECT_EQ(next.home.buffer.size(), 1u);
  ASSERT_EQ(next.down[1].size(), 1u);
  EXPECT_EQ(next.down[1].front().meta, Meta::Nack);
}

// ---- §3.3 fusion behaviours -----------------------------------------------------

struct Fused {
  ir::Protocol p = protocols::make_migratory();
  refine::RefinedProtocol rp = refine::refine(p);
  AsyncSystem sys{rp, 3};
};

TEST(Fusion, HomeConsumesFusedRequestWithoutAck) {
  Fused f;
  AsyncState s = f.sys.initial();
  Msg req;
  req.meta = Meta::Req;
  req.msg = f.p.find_message("req");
  req.src = 1;
  s.home.buffer.push_back(req);
  for (const auto& [next, label] : f.sys.successors(s)) {
    if (label.text.find("h C1: consume req from r1") == std::string::npos)
      continue;
    EXPECT_EQ(label.sent_ack, 0) << "§3.3: the later reply is the ack";
    EXPECT_TRUE(label.completes_rendezvous);
    EXPECT_EQ(next.home.state, f.p.home.find_state("GRANT"));
    return;
  }
  FAIL() << "fused consume not found";
}

TEST(Fusion, HomeRepliesFireAndForget) {
  Fused f;
  AsyncState s = f.sys.initial();
  s.home.state = f.p.home.find_state("GRANT");
  s.home.store.set(f.p.home.find_var("j"), 1);
  s.remotes[1].state = f.p.remote.find_state("I");
  s.remotes[1].transient = true;  // r1 is waiting for the grant
  bool found = false;
  for (const auto& [next, label] : f.sys.successors(s)) {
    if (label.text.find("h C2: repl gr -> r1") == std::string::npos)
      continue;
    found = true;
    EXPECT_EQ(label.sent_repl, 1);
    EXPECT_FALSE(next.home.transient) << "no ack expected for a reply";
    EXPECT_EQ(next.home.state, f.p.home.find_state("E"));
    ASSERT_EQ(next.down[1].size(), 1u);
    EXPECT_EQ(next.down[1].front().meta, Meta::Repl);
  }
  EXPECT_TRUE(found);
}

TEST(Fusion, RemoteReplCompletesBothRendezvous) {
  Fused f;
  AsyncState s = f.sys.initial();
  s.remotes[1].state = f.p.remote.find_state("I");
  s.remotes[1].transient = true;
  Msg repl;
  repl.meta = Meta::Repl;
  repl.msg = f.p.find_message("gr");
  repl.src = Msg::kHomeSrc;
  repl.payload = {0};
  s.down[1].push(repl);
  bool found = false;
  for (const auto& [next, label] : f.sys.successors(s)) {
    if (label.text.find("r1 T1: repl gr") == std::string::npos) continue;
    found = true;
    EXPECT_EQ(next.remotes[1].state, f.p.remote.find_state("V"))
        << "lands past the wait state in one step";
    EXPECT_FALSE(next.remotes[1].transient);
  }
  EXPECT_TRUE(found);
}

TEST(Fusion, RemoteAnswersFusedInvWithReply) {
  Fused f;
  AsyncState s = f.sys.initial();
  s.remotes[0].state = f.p.remote.find_state("V");
  Msg inv;
  inv.meta = Meta::Req;
  inv.msg = f.p.find_message("inv");
  inv.src = Msg::kHomeSrc;
  s.remotes[0].buffer = inv;
  bool found = false;
  for (const auto& [next, label] : f.sys.successors(s)) {
    if (label.text.find("r0 C3: inv answered with repl ID") ==
        std::string::npos)
      continue;
    found = true;
    EXPECT_EQ(label.sent_repl, 1);
    EXPECT_EQ(label.sent_ack, 0);
    EXPECT_EQ(next.remotes[0].state, f.p.remote.find_state("I"))
        << "passes straight through D1";
    ASSERT_EQ(next.up[0].size(), 1u);
    EXPECT_EQ(next.up[0].front().meta, Meta::Repl);
    EXPECT_EQ(next.up[0].front().msg, f.p.find_message("ID"));
  }
  EXPECT_TRUE(found);
}

// ---- elide-ack (hand design) -----------------------------------------------------

TEST(ElideAck, SenderCommitsAtSendTime) {
  auto p = protocols::make_migratory();
  Options o;
  o.elide_ack = {"LR"};
  auto rp = refine::refine(p, o);
  AsyncSystem sys(rp, 2);
  AsyncState s = sys.initial();
  s.remotes[0].state = p.remote.find_state("A2");
  bool found = false;
  for (const auto& [next, label] : sys.successors(s)) {
    if (label.text.find("r0: send LR (no ack)") == std::string::npos)
      continue;
    found = true;
    EXPECT_TRUE(label.completes_rendezvous);
    EXPECT_EQ(next.remotes[0].state, p.remote.find_state("I"))
        << "no transient: the sender moved on";
    EXPECT_FALSE(next.remotes[0].transient);
  }
  EXPECT_TRUE(found);
}

TEST(ElideAck, HomeAlwaysAdmitsElidedMessages) {
  auto p = protocols::make_migratory();
  Options o;
  o.elide_ack = {"LR"};
  auto rp = refine::refine(p, o);
  AsyncSystem sys(rp, 3);
  AsyncState s = sys.initial();
  s.home.state = p.home.find_state("E");
  s.home.store.set(p.home.find_var("o"), 0);
  // Buffer already full of reqs.
  for (int src : {1, 2}) {
    Msg m;
    m.meta = Meta::Req;
    m.msg = p.find_message("req");
    m.src = static_cast<std::uint8_t>(src);
    s.home.buffer.push_back(m);
  }
  Msg lr;
  lr.meta = Meta::Req;
  lr.msg = p.find_message("LR");
  lr.src = 0;
  lr.payload = {0};
  s.up[0].push(lr);
  bool buffered = false;
  for (const auto& [next, label] : sys.successors(s))
    if (label.text.find("h buffer: LR from r0") != std::string::npos) {
      buffered = true;
      EXPECT_EQ(next.home.buffer.size(), 3u) << "admitted beyond k";
    }
  EXPECT_TRUE(buffered)
      << "the hand design commits to always accepting writebacks";
}

}  // namespace
}  // namespace ccref
