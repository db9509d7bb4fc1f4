#include "runtime/async_system.hpp"

#include <algorithm>
#include <array>
#include <compare>
#include <memory_resource>

#include "support/strings.hpp"

namespace ccref::runtime {

using ir::EvalCtx;
using ir::InputGuard;
using ir::OutputGuard;
using ir::PeerSel;
using ir::PeerSrc;
using ir::StateKind;
using refine::MsgClass;
using sem::Label;
using sem::LabelMode;

namespace {

constexpr int kHome = -1;

/// successors(): every enabled edge patches its own copy of the source
/// state, and the rules keep enumerating. The copy lands in a recycled slot
/// of the caller's buffer, whose containers keep their capacity.
struct Enumerate {
  const AsyncState& from;
  LabelMode mode;
  AsyncSystem::Edges& out;

  static bool allows(int, const std::string&) { return true; }
  static void blocked() {}
  AsyncState& target() {
    auto& [next, label] = out.next_slot();
    next = from;
    label.reset();
    return next;
  }
  Label& label(int actor) {
    Label& l = out.back().second;
    l.actor = actor;
    return l;
  }
  [[nodiscard]] bool text() const { return mode == LabelMode::Full; }
  static void send(AsyncState& next, bool up, int node, Msg m) {
    (up ? next.up : next.down)[node].push(std::move(m));
  }
  static bool close() { return false; }
};

/// The in-place steps: the first enabled, unblocked edge patches the
/// caller's state and ends the rule.
struct InPlace {
  AsyncState& s;
  Label& l;
  SendLog* log;
  const DecisionGate* gate = nullptr;  // null: every decision allowed
  ExecResult result = ExecResult::None;

  [[nodiscard]] bool allows(int actor, const std::string& decision) const {
    return !gate || gate->allows(actor, decision);
  }
  void blocked() { result = ExecResult::Blocked; }
  AsyncState& target() {
    l.reset();
    return s;
  }
  Label& label(int actor) {
    l.actor = actor;
    return l;
  }
  static bool text() { return false; }
  void send(AsyncState& next, bool up, int node, Msg m) {
    if (log) log->add(up, static_cast<std::uint8_t>(node), m.meta, m.msg);
    (up ? next.up : next.down)[node].push(std::move(m));
  }
  bool close() {
    result = ExecResult::Applied;
    return true;
  }
};

}  // namespace

AsyncSystem::AsyncSystem(const refine::RefinedProtocol& refined,
                         int num_remotes)
    : refined_(&refined),
      n_(num_remotes),
      k_(refined.options.home_buffer_capacity),
      cap_(refined.options.channel_capacity) {
  CCREF_REQUIRE(num_remotes >= 1 && num_remotes <= kMaxNodes);
}

AsyncState AsyncSystem::initial() const {
  const ir::Protocol& p = protocol();
  AsyncState s;
  s.home.state = p.home.initial;
  s.home.store = ir::Store(p.home.vars);
  s.remotes.resize(n_);
  for (auto& r : s.remotes) {
    r.state = p.remote.initial;
    r.store = ir::Store(p.remote.vars);
  }
  s.up.resize(n_);
  s.down.resize(n_);
  return s;
}

std::vector<std::pair<AsyncState, Label>> AsyncSystem::successors(
    const AsyncState& s, LabelMode mode) const {
  Edges out;
  successors(s, mode, out);
  return out.take();
}

void AsyncSystem::successors(const AsyncState& s, LabelMode mode,
                             Edges& out) const {
  out.clear();
  Enumerate sink{s, mode, out};
  for (int i = 0; i < n_; ++i)
    if (!s.up[i].empty()) deliver_to_home(s, i, sink);
  for (int i = 0; i < n_; ++i)
    if (!s.down[i].empty()) deliver_to_remote(s, i, sink);
  home_local(s, sink);
  for (int i = 0; i < n_; ++i) remote_local(s, i, sink);
}

AsyncSystem::PorSuccessors AsyncSystem::successors_por(const AsyncState& s,
                                                       LabelMode mode) const {
  PorSuccessors out;
  Edges all;
  successors_por(s, mode, all, out.candidates);
  out.all = all.take();
  return out;
}

void AsyncSystem::successors_por(const AsyncState& s, LabelMode mode,
                                 Edges& all,
                                 std::vector<PorCandidate>& candidates) const {
  all.clear();
  candidates.clear();
  Enumerate sink{s, mode, all};
  for (int i = 0; i < n_; ++i)
    if (!s.up[i].empty()) deliver_to_home(s, i, sink);
  std::array<std::uint32_t, kMaxNodes> delivery{};
  for (int i = 0; i < n_; ++i)
    if (!s.down[i].empty()) {
      delivery[i] = static_cast<std::uint32_t>(all.size());
      deliver_to_remote(s, i, sink);
      // Candidacy below relies on the down-head delivery being exactly one
      // edge: every deliver_to_remote case consumes the head one way.
      CCREF_ASSERT(all.size() == delivery[i] + std::size_t{1});
    }
  home_local(s, sink);
  for (int i = 0; i < n_; ++i) {
    auto first = static_cast<std::uint32_t>(all.size());
    remote_local(s, i, sink);
    if (!s.down[i].empty() && !full(s.up[i]))
      candidates.push_back(
          {i, delivery[i], first, static_cast<std::uint32_t>(all.size())});
  }
}

// ---- in-place steps -----------------------------------------------------------

ExecResult AsyncSystem::deliver_up(AsyncState& s, int i, Label& l,
                                   SendLog* log) const {
  InPlace sink{s, l, log};
  if (!s.up[i].empty()) deliver_to_home(s, i, sink);
  return sink.result;
}

ExecResult AsyncSystem::deliver_down(AsyncState& s, int i, Label& l,
                                     SendLog* log) const {
  InPlace sink{s, l, log};
  if (!s.down[i].empty()) deliver_to_remote(s, i, sink);
  return sink.result;
}

ExecResult AsyncSystem::home_step(AsyncState& s, Label& l,
                                  SendLog* log) const {
  InPlace sink{s, l, log};
  home_local(s, sink);
  return sink.result;
}

ExecResult AsyncSystem::remote_step(AsyncState& s, int i,
                                    const DecisionGate& gate, Label& l,
                                    SendLog* log) const {
  InPlace sink{s, l, log, &gate};
  // Answering the home is obligatory, so it outranks the controllable
  // moves. (The enumeration exposes both orders; a simulator that always
  // lets a gated τ preempt the answer can livelock — e.g. a migratory owner
  // whose pending `evict` keeps crossing the home's revocation forever.) An
  // applicable answer ends Applied or Blocked; None means there was none.
  if (!remote_answer(s, i, sink) && sink.result == ExecResult::None)
    remote_local(s, i, sink);
  return sink.result;
}

// ---- helpers ----------------------------------------------------------------

bool AsyncSystem::input_source_matches(const InputGuard& ig,
                                       const ir::Store& home_store,
                                       std::uint8_t src) const {
  switch (ig.from.kind) {
    case PeerSrc::Kind::Any:
      return src != Msg::kHomeSrc;
    case PeerSrc::Kind::Expr:
      return ir::eval(*ig.from.expr, home_store, EvalCtx{kHome}) == src;
    case PeerSrc::Kind::Home:
    case PeerSrc::Kind::Bcast:
      return false;  // only remote guards have Home/Bcast sources
  }
  return false;
}

bool AsyncSystem::satisfies_home_guard(const AsyncState& s, ir::StateId sid,
                                       const Msg& m) const {
  const ir::State& st = protocol().home.state(sid);
  if (st.kind != StateKind::Comm) return false;
  for (const auto& ig : st.inputs) {
    if (ig.msg != m.msg) continue;
    if (!input_source_matches(ig, s.home.store, m.src)) continue;
    if (ig.cond && !ir::eval(*ig.cond, s.home.store, EvalCtx{kHome})) continue;
    return true;
  }
  return false;
}

bool AsyncSystem::admit(const HomeMachine& hm, const AsyncState& s,
                        const Msg& m, bool in_transient) const {
  // Hand-design deviation: elide-ack messages must always be accepted — the
  // sender already committed its transition.
  if (refined_->cls(m.msg) == MsgClass::ElideAck) return true;

  const auto& opts = refined_->options;
  int free = k_ - static_cast<int>(hm.buffer.size());
  int reserved = (in_transient && opts.ack_buffer) ? 1 : 0;  // §3.2 ack buffer
  int avail = free - reserved;
  if (!opts.progress_buffer) return avail >= 1;
  if (avail >= 2) return true;                               // row T4
  if (avail == 1)                                            // row T5
    return satisfies_home_guard(s, hm.state, m);
  return false;                                              // row T6
}

Payload AsyncSystem::eval_payload(const OutputGuard& og,
                                  const ir::Store& store, int actor,
                                  int target) const {
  // The chosen target must be visible to payload expressions, but the live
  // store may not be mutated before the rendezvous completes (the request
  // can still be nacked and the §4 abstraction maps the transient state
  // back to the unmutated communication state): the binder reads through
  // the evaluation context instead.
  const EvalCtx ctx{.self = actor,
                    .bound = og.bind_peer,
                    .bound_value = static_cast<ir::Value>(target)};
  Payload payload;
  for (const auto& e : og.payload)
    payload.push_back(static_cast<ir::Value>(ir::eval(*e, store, ctx)));
  return payload;
}

void AsyncSystem::apply_home_output(HomeMachine& hm, const OutputGuard& og,
                                    int target) const {
  if (og.bind_peer != ir::kNoVar)
    hm.store.set(og.bind_peer, static_cast<ir::Value>(target));
  if (og.action)
    ir::exec(*og.action, hm.store, protocol().home.vars, EvalCtx{kHome});
  hm.state = og.next;
  hm.transient = false;
}

void AsyncSystem::apply_input(const ir::Process& proc, ir::Store& store,
                              ir::StateId& state, const InputGuard& ig,
                              const Msg& m, int self) const {
  if (ig.bind_peer != ir::kNoVar)
    store.set(ig.bind_peer, static_cast<ir::Value>(m.src));
  for (std::size_t f = 0; f < ig.bind_payload.size(); ++f)
    if (ig.bind_payload[f] != ir::kNoVar)
      store.set(ig.bind_payload[f], m.payload[f]);
  if (ig.action) ir::exec(*ig.action, store, proc.vars, EvalCtx{self});
  state = ig.next;
}

// ---- deliveries to the home --------------------------------------------------
//
// The LTL layer's weak-fairness constraints partition transitions by
// Label::actor, so deliveries need an owner. Both directions are charged to
// the *remote* of the channel: down-deliveries because the remote is the
// receiver, up-deliveries because weak fairness on them is how we encode
// reliable delivery of remote i's traffic — if they belonged to the home, a
// "fair" run could leave remote i's request in the channel forever and §6's
// per-node starvation would hold at every buffer size.

template <class Sink>
bool AsyncSystem::deliver_to_home(const AsyncState& s, int i,
                                  Sink& sink) const {
  const ir::Process& home = protocol().home;
  const HomeMachine& hm = s.home;
  const Msg& m = s.up[i].front();
  const ir::MsgId msg = m.msg;  // in place, `m` dies with the pop

  switch (m.meta) {
    case Meta::Ack: {
      // Row T1: the pending rendezvous succeeded.
      CCREF_ASSERT_MSG(hm.transient && hm.t_target == i,
                       "stray ACK at the home");
      const OutputGuard& og = home.state(hm.state).outputs[hm.t_guard];
      CCREF_ASSERT(refined_->cls(og.msg) != MsgClass::FusedRequest ||
                   !refined_->home_fusion_at(hm.state, hm.t_guard));
      AsyncState& next = sink.target();
      next.up[i].pop();
      apply_home_output(next.home, og, i);
      Label& l = sink.label(i);
      if (sink.text())
        l.text = strf("h T1: ack from r%d completes %s", i,
                      protocol().message(og.msg).name.c_str());
      return sink.close();
    }
    case Meta::Nack: {
      // Row T2: rendezvous failed; return to the communication state.
      CCREF_ASSERT_MSG(hm.transient && hm.t_target == i,
                       "stray NACK at the home");
      AsyncState& next = sink.target();
      next.up[i].pop();
      next.home.transient = false;
      Label& l = sink.label(i);
      if (sink.text()) l.text = strf("h T2: nack from r%d", i);
      return sink.close();
    }
    case Meta::Repl: {
      // Fused pair completion (§3.3): the reply acks the pending request and
      // carries the second rendezvous of the pair.
      CCREF_ASSERT_MSG(hm.transient && hm.t_target == i,
                       "stray REPL at the home");
      const auto* fusion = refined_->home_fusion_at(hm.state, hm.t_guard);
      CCREF_ASSERT_MSG(fusion && fusion->reply == msg,
                       "REPL does not match the pending fusion");
      const OutputGuard& og = home.state(hm.state).outputs[hm.t_guard];
      AsyncState& next = sink.target();
      const Msg reply = next.up[i].take();
      HomeMachine& nhm = next.home;
      apply_home_output(nhm, og, i);
      // Consume the reply in the successor state.
      bool applied = false;
      for (const auto& ig : home.state(nhm.state).inputs) {
        if (ig.msg != reply.msg) continue;
        if (!input_source_matches(ig, nhm.store, reply.src)) continue;
        if (ig.cond && !ir::eval(*ig.cond, nhm.store, EvalCtx{kHome}))
          continue;
        apply_input(home, nhm.store, nhm.state, ig, reply, kHome);
        applied = true;
        break;
      }
      CCREF_ASSERT_MSG(applied, "no guard consumed the fused reply");
      Label& l = sink.label(i);
      if (sink.text())
        l.text = strf("h T1: repl %s from r%d completes fused pair",
                      protocol().message(msg).name.c_str(), i);
      return sink.close();
    }
    case Meta::Snoop:
      CCREF_ASSERT_MSG(false, "SNOOP delivered to the home");
      return false;
    case Meta::SnoopAck: {
      CCREF_ASSERT_MSG(hm.txn && hm.txn->snooping == i,
                       "stray SNOOPACK at the home");
      const bool cancelled = msg == 1;
      AsyncState& next = sink.target();
      next.up[i].pop();
      BusTxn& txn = *next.home.txn;
      txn.snooping = BusTxn::kNoSnoop;
      txn.pending.remove(static_cast<NodeId>(i));
      bool purged = false;
      if (cancelled) {
        // Answering the snoop cancelled r(i)'s own in-flight request. FIFO
        // order means that request reached the home before this SnoopAck:
        // purge it from the buffer if it was admitted (if it was nacked
        // instead, r(i) drops the stale nack on arrival).
        auto& buffer = next.home.buffer;
        for (std::size_t b = 0; b < buffer.size(); ++b) {
          if (buffer[b].meta != Meta::Req || buffer[b].src != i) continue;
          buffer.erase(buffer.begin() + b);
          purged = true;
          break;
        }
      }
      Label& l = sink.label(i);
      if (sink.text())
        l.text = strf("h bus: snoop-ack from r%d%s%s", i,
                      cancelled ? " (cancelled own request)" : "",
                      purged ? ", purged it" : "");
      return sink.close();
    }
    case Meta::Req: {
      // Row T3 (rule R3): a request from the remote the home is waiting on
      // is an implicit nack plus a request; the ack-buffer reservation
      // guarantees space for it. Otherwise rows T4/T5/T6 (and the analogous
      // communication-state admission).
      const bool r3 = hm.transient && hm.t_target == i;
      const bool buffered = admit(hm, s, m, hm.transient && !r3);
      // An R3 nack is only reachable with the ack buffer disabled (ablation).
      if (!buffered && full(s.down[i])) {
        sink.blocked();
        return false;
      }
      AsyncState& next = sink.target();
      Msg req = next.up[i].take();
      if (r3) next.home.transient = false;
      Label& l = sink.label(i);
      if (buffered) {
        next.home.buffer.push_back(std::move(req));
      } else {
        sink.send(next, false, i,
                  Msg{.meta = Meta::Nack, .src = Msg::kHomeSrc});
        l.sent_nack = 1;
      }
      if (sink.text()) {
        const char* name = protocol().message(msg).name.c_str();
        if (r3)
          l.text = strf(buffered ? "h T3: implicit nack; buffered %s from r%d"
                                 : "h T3: implicit nack; nacked %s from r%d "
                                   "(no space)",
                        name, i);
        else
          l.text = strf(buffered ? "h buffer: %s from r%d"
                                 : "h T6: nack %s from r%d",
                        name, i);
      }
      return sink.close();
    }
  }
  return false;
}

// ---- deliveries to a remote ---------------------------------------------------

template <class Sink>
bool AsyncSystem::deliver_to_remote(const AsyncState& s, int i,
                                    Sink& sink) const {
  const ir::Process& remote = protocol().remote;
  const RemoteMachine& rm = s.remotes[i];
  const Msg& m = s.down[i].front();
  // In place, `m` dies with the pop.
  const Meta meta = m.meta;
  const ir::MsgId msg = m.msg;
  const int src = m.src;

  if (meta == Meta::Snoop) {
    // A snoop parks in the one-slot buffer (kept one edge for the POR
    // footprint) and is answered with priority by remote_answer — even by a
    // transient remote, which is what lets a cache waiting to win the bus
    // observe the transaction that just beat it. The home never snoops a
    // remote with an unresolved point-to-point request, so the slot is free.
    CCREF_ASSERT_MSG(!rm.buffer.has_value(),
                     "snoop arrived while a request was buffered");
    AsyncState& next = sink.target();
    next.remotes[i].buffer = next.down[i].take();
    Label& l = sink.label(i);
    if (sink.text())
      l.text = strf("r%d buffer: snoop %s(r%d)", i,
                    protocol().message(msg).name.c_str(), src);
    return sink.close();
  }

  if (rm.transient) {
    const OutputGuard& og = remote.state(rm.state).outputs[0];
    switch (meta) {
      case Meta::Ack: {
        // Row T1.
        CCREF_ASSERT_MSG(!refined_->remote_fusion_at(rm.state),
                         "ACK for a fused request");
        AsyncState& next = sink.target();
        next.down[i].pop();
        RemoteMachine& nrm = next.remotes[i];
        if (og.action)
          ir::exec(*og.action, nrm.store, remote.vars, EvalCtx{i});
        nrm.state = og.next;
        nrm.transient = false;
        Label& l = sink.label(i);
        if (sink.text())
          l.text = strf("r%d T1: ack completes %s", i,
                        protocol().message(og.msg).name.c_str());
        return sink.close();
      }
      case Meta::Nack: {
        // Row T2: go back and retransmit (the active send re-enables).
        AsyncState& next = sink.target();
        next.down[i].pop();
        next.remotes[i].transient = false;
        Label& l = sink.label(i);
        if (sink.text()) l.text = strf("r%d T2: nack; will retry", i);
        return sink.close();
      }
      case Meta::Repl: {
        const auto* fusion = refined_->remote_fusion_at(rm.state);
        CCREF_ASSERT_MSG(fusion && fusion->reply == msg,
                         "REPL does not match the remote fusion");
        const InputGuard& ig = remote.state(fusion->wait_state).inputs[0];
        AsyncState& next = sink.target();
        const Msg reply = next.down[i].take();
        RemoteMachine& nrm = next.remotes[i];
        if (og.action)
          ir::exec(*og.action, nrm.store, remote.vars, EvalCtx{i});
        nrm.state = og.next;  // W
        apply_input(remote, nrm.store, nrm.state, ig, reply, i);
        nrm.transient = false;
        Label& l = sink.label(i);
        if (sink.text())
          l.text = strf("r%d T1: repl %s completes fused pair", i,
                        protocol().message(msg).name.c_str());
        return sink.close();
      }
      case Meta::Req: {
        // Row T3: the remote knows the home will treat its own pending
        // request as an implicit nack, so this request is simply dropped.
        AsyncState& next = sink.target();
        next.down[i].pop();
        Label& l = sink.label(i);
        if (sink.text())
          l.text = strf("r%d T3: ignore %s from home", i,
                        protocol().message(msg).name.c_str());
        return sink.close();
      }
      case Meta::Snoop:
      case Meta::SnoopAck:
        CCREF_ASSERT_MSG(false, "unreachable meta at a transient remote");
        return false;
    }
    return false;
  }

  if (meta == Meta::Nack && protocol().topology == ir::Topology::Bus) {
    // Stale nack: the remote's request was rejected after the remote had
    // already cancelled it by answering a snoop. Drop it.
    AsyncState& next = sink.target();
    next.down[i].pop();
    Label& l = sink.label(i);
    if (sink.text()) l.text = strf("r%d: drop stale nack", i);
    return sink.close();
  }

  // Not transient: only requests can arrive; hold in the one-slot buffer.
  CCREF_ASSERT_MSG(meta == Meta::Req, "non-request at an idle remote");
  CCREF_ASSERT_MSG(!rm.buffer.has_value(),
                   "home sent two outstanding requests to one remote");
  AsyncState& next = sink.target();
  next.remotes[i].buffer = next.down[i].take();
  Label& l = sink.label(i);
  if (sink.text())
    l.text = strf("r%d buffer: %s from home", i,
                  protocol().message(msg).name.c_str());
  return sink.close();
}

// ---- home local steps ----------------------------------------------------------

template <class Sink>
bool AsyncSystem::home_local(const AsyncState& s, Sink& sink) const {
  const ir::Process& home = protocol().home;
  const HomeMachine& hm = s.home;
  if (hm.transient) return false;  // waiting for an ack/nack/reply
  const ir::State& st = home.state(hm.state);
  const EvalCtx hctx{kHome};

  if (hm.txn) {
    // An open bus transaction serializes the home: no taus, no other C1/C2
    // until it commits. Snoop the pending remotes one at a time, then apply
    // the recorded guard and ack the requester.
    const BusTxn& txn = *hm.txn;
    if (txn.snooping != BusTxn::kNoSnoop) return false;  // awaiting SnoopAck
    if (!txn.pending.empty()) {
      const NodeId j = txn.pending.first();
      if (full(s.down[j])) {
        sink.blocked();
        return false;
      }
      AsyncState& next = sink.target();
      BusTxn& ntxn = *next.home.txn;
      ntxn.snooping = j;
      // Snoop guards bind the original requester.
      sink.send(next, false, j,
                Msg{.meta = Meta::Snoop, .msg = ntxn.msg, .src = ntxn.src,
                    .payload = ntxn.payload});
      Label& l = sink.label(kHome);
      if (sink.text())
        l.text = strf("h bus: snoop %s(r%d) -> r%d",
                      protocol().message(ntxn.msg).name.c_str(), ntxn.src, j);
      return sink.close();
    }
    // Every other remote has answered: commit. The home store is untouched
    // since the open (the transaction blocks every store-writing home step),
    // so the guard condition checked at open still holds.
    if (full(s.down[txn.src])) {
      sink.blocked();
      return false;
    }
    const InputGuard& ig = st.inputs[txn.guard];
    AsyncState& next = sink.target();
    BusTxn done = std::move(*next.home.txn);
    next.home.txn.reset();
    const Msg taken{.meta = Meta::Req, .msg = done.msg, .src = done.src,
                    .payload = std::move(done.payload)};
    sink.send(next, false, taken.src,
              Msg{.meta = Meta::Ack, .src = Msg::kHomeSrc});
    apply_input(home, next.home.store, next.home.state, ig, taken, kHome);
    Label& l = sink.label(kHome);
    if (sink.text())
      l.text = strf("h bus: commit %s from r%d",
                    protocol().message(taken.msg).name.c_str(), taken.src);
    l.sent_ack = 1;
    l.completes_rendezvous = true;
    l.granted_to = taken.src;
    l.decision = protocol().message(taken.msg).name;
    return sink.close();
  }

  // τ moves (internal states, and autonomous decisions in comm states such
  // as the invalidate protocol's "copyset swept").
  for (const auto& g : st.taus) {
    if (g.cond && !ir::eval(*g.cond, hm.store, hctx)) continue;
    AsyncState& next = sink.target();
    if (g.action) ir::exec(*g.action, next.home.store, home.vars, hctx);
    next.home.state = g.next;
    Label& l = sink.label(kHome);
    if (sink.text())
      l.text = strf("h: tau %s", g.label.empty() ? "-" : g.label.c_str());
    l.decision = g.label;
    if (sink.close()) return true;
  }
  if (st.kind != StateKind::Comm) return false;

  // ---- row C1: complete a rendezvous from the buffer ----
  bool any_c1 = false;
  for (std::size_t b = 0; b < hm.buffer.size(); ++b) {
    const Msg& m = hm.buffer[b];
    for (std::size_t gi = 0; gi < st.inputs.size(); ++gi) {
      const InputGuard& ig = st.inputs[gi];
      if (ig.msg != m.msg) continue;
      if (!input_source_matches(ig, hm.store, m.src)) continue;
      if (ig.cond && !ir::eval(*ig.cond, hm.store, hctx)) continue;
      any_c1 = true;
      const MsgClass cls = refined_->cls(m.msg);
      if (cls == MsgClass::Normal && full(s.down[m.src])) {
        sink.blocked();  // no room for the ack right now
        continue;
      }
      AsyncState& next = sink.target();
      Msg taken = std::move(next.home.buffer[b]);
      next.home.buffer.erase(next.home.buffer.begin() + b);
      Label& l = sink.label(kHome);
      if (cls == MsgClass::Broadcast) {
        // Open a split bus transaction instead of completing on the spot:
        // the guard is recorded and applied only after every other remote
        // has been snooped.
        BusTxn txn;
        txn.src = taken.src;
        txn.guard = static_cast<std::uint8_t>(gi);
        txn.msg = taken.msg;
        txn.pending = NodeSet::all(n_);
        txn.pending.remove(taken.src);
        txn.payload = std::move(taken.payload);
        next.home.txn = std::move(txn);
        if (sink.text())
          l.text = strf("h bus: open %s from r%d",
                        protocol().message(taken.msg).name.c_str(), taken.src);
        if (sink.close()) return true;
        continue;
      }
      if (cls == MsgClass::Normal) {
        sink.send(next, false, taken.src,
                  Msg{.meta = Meta::Ack, .src = Msg::kHomeSrc});
        l.sent_ack = 1;
        l.completes_rendezvous = true;
        l.granted_to = taken.src;
      } else if (cls == MsgClass::FusedRequest) {
        // §3.3: no ack — the later reply acts as the ack.
        l.completes_rendezvous = true;
        l.granted_to = taken.src;
      } else {
        // ElideAck: the sender already committed at send time.
        CCREF_ASSERT(cls == MsgClass::ElideAck);
      }
      apply_input(home, next.home.store, next.home.state, ig, taken, kHome);
      if (sink.text())
        l.text = strf("h C1: %s %s from r%d",
                      cls == MsgClass::Normal ? "ack" : "consume",
                      protocol().message(taken.msg).name.c_str(), taken.src);
      if (sink.close()) return true;
    }
  }

  // ---- row C2: initiate a rendezvous (only when no buffered request can
  // complete one — condition (a)) ----
  if (any_c1) return false;
  for (std::size_t gi = 0; gi < st.outputs.size(); ++gi) {
    const OutputGuard& og = st.outputs[gi];
    if (og.cond && !ir::eval(*og.cond, hm.store, hctx)) continue;
    NodeSet targets;
    if (og.to.kind == PeerSel::Kind::Expr) {
      std::int64_t j = ir::eval(*og.to.expr, hm.store, hctx);
      CCREF_ASSERT(j >= 0 && j < n_);
      targets.add(static_cast<NodeId>(j));
    } else if (og.to.kind == PeerSel::Kind::AnyInSet) {
      targets = NodeSet(
          static_cast<std::uint64_t>(ir::eval(*og.to.expr, hm.store, hctx)));
    }
    const MsgClass cls = refined_->cls(og.msg);
    for (NodeId ri : targets) {
      if (ri >= n_) continue;
      // Condition (c): a pending request from ri means ri is active and
      // cannot satisfy our request — sending would be wasted.
      bool pending = false;
      for (const auto& bm : hm.buffer)
        if (bm.src == ri) pending = true;
      if (pending) continue;
      // Generic requests allocate the ack buffer first (§3.2), nacking one
      // buffered request if the buffer is full (condition (a) already told
      // us none of them satisfies a rendezvous here). The victim's channel
      // is never down[ri]: condition (c) skipped ri's buffered requests.
      const bool evict = cls != MsgClass::Reply &&
                         refined_->options.ack_buffer &&
                         hm.buffer.size() >= static_cast<std::size_t>(k_);
      int victim = -1;
      if (evict) {
        for (int v = static_cast<int>(hm.buffer.size()) - 1; v >= 0; --v)
          if (refined_->cls(hm.buffer[v].msg) != MsgClass::ElideAck) {
            victim = v;
            break;
          }
        if (victim < 0) continue;  // nothing nackable
      }
      if ((evict && full(s.down[hm.buffer[victim].src])) ||
          full(s.down[ri])) {
        sink.blocked();
        continue;
      }
      const Payload payload = eval_payload(og, hm.store, kHome, ri);
      AsyncState& next = sink.target();
      Label& l = sink.label(kHome);
      l.decision = protocol().message(og.msg).name;
      if (cls == MsgClass::Reply) {
        // Fire-and-forget reply of a fused pair: the §3.3 conditions
        // guarantee the remote is waiting, so no ack and no transient.
        sink.send(next, false, ri,
                  Msg{.meta = Meta::Repl, .msg = og.msg,
                      .src = Msg::kHomeSrc, .payload = payload});
        apply_home_output(next.home, og, ri);
        if (sink.text())
          l.text = strf("h C2: repl %s -> r%d",
                        protocol().message(og.msg).name.c_str(), ri);
        l.sent_repl = 1;
        l.completes_rendezvous = true;
        l.granted_to = kHome;
        if (sink.close()) return true;
        continue;
      }
      if (evict) {
        const std::uint8_t vsrc = next.home.buffer[victim].src;
        next.home.buffer.erase(next.home.buffer.begin() + victim);
        sink.send(next, false, vsrc,
                  Msg{.meta = Meta::Nack, .src = Msg::kHomeSrc});
        l.sent_nack = 1;
      }
      sink.send(next, false, ri,
                Msg{.meta = Meta::Req, .msg = og.msg, .src = Msg::kHomeSrc,
                    .payload = payload});
      next.home.transient = true;
      next.home.t_guard = static_cast<std::uint8_t>(gi);
      next.home.t_target = ri;
      if (sink.text())
        l.text = strf("h C2: request %s -> r%d",
                      protocol().message(og.msg).name.c_str(), ri);
      l.sent_req = 1;
      if (sink.close()) return true;
    }
  }
  return false;
}

// ---- remote local steps ---------------------------------------------------------

template <class Sink>
bool AsyncSystem::remote_local(const AsyncState& s, int i, Sink& sink) const {
  const RemoteMachine& rm = s.remotes[i];
  // A parked snoop is answered before anything else, even by a transient
  // remote.
  if (rm.buffer && rm.buffer->meta == Meta::Snoop)
    return remote_answer(s, i, sink);
  if (rm.transient) return false;
  return remote_tau(s, i, sink) || remote_send(s, i, sink) ||
         remote_answer(s, i, sink);
}

template <class Sink>
bool AsyncSystem::remote_answer(const AsyncState& s, int i, Sink& sink) const {
  const ir::Process& remote = protocol().remote;
  const RemoteMachine& rm = s.remotes[i];
  if (!rm.buffer) return false;
  const Msg& m = *rm.buffer;
  const ir::State& cur = remote.state(rm.state);
  const EvalCtx rctx{i};

  if (m.meta == Meta::Snoop) {
    // A transient remote answers too: its active state's `bcast?` guards
    // are exactly the snoops it may consume while waiting for the bus.
    // First enabled guard wins, mirroring sem::fire_bcast; no guard means
    // the snoop is ignored.
    if (full(s.up[i])) {
      sink.blocked();
      return false;
    }
    const InputGuard* hit = nullptr;
    if (cur.kind == StateKind::Comm) {
      for (const auto& ig : cur.inputs) {
        if (ig.msg != m.msg || ig.from.kind != PeerSrc::Kind::Bcast) continue;
        if (ig.cond && !ir::eval(*ig.cond, rm.store, rctx)) continue;
        hit = &ig;
        break;
      }
    }
    const bool cancelled = hit && rm.transient;
    AsyncState& next = sink.target();
    RemoteMachine& nrm = next.remotes[i];
    const Msg snoop = std::move(*nrm.buffer);
    nrm.buffer.reset();
    if (hit) {
      apply_input(remote, nrm.store, nrm.state, *hit, snoop, i);
      nrm.transient = false;
    }
    // The flag: own in-flight request cancelled.
    sink.send(next, true, i,
              Msg{.meta = Meta::SnoopAck,
                  .msg = static_cast<ir::MsgId>(cancelled ? 1 : 0),
                  .src = static_cast<std::uint8_t>(i)});
    Label& l = sink.label(i);
    if (sink.text())
      l.text = strf("r%d: snoop %s(r%d) %s", i,
                    protocol().message(snoop.msg).name.c_str(), snoop.src,
                    cancelled  ? "applied, cancelling own request"
                    : hit      ? "applied"
                               : "ignored");
    return sink.close();
  }

  // Passive state — row C3: answer the buffered request.
  if (rm.transient || cur.kind != StateKind::Comm || !cur.outputs.empty())
    return false;
  const ir::MsgId msg = m.msg;  // in place, `m` dies with the answer
  const bool fused = refined_->cls(msg) == MsgClass::FusedRequest;
  bool matched = false;
  for (const auto& ig : cur.inputs) {
    if (ig.msg != msg) continue;
    // Stable bus states mix `h?` inputs with `bcast?` snoop guards; a
    // buffered point-to-point request only answers through the former.
    if (ig.from.kind != PeerSrc::Kind::Home) continue;
    if (ig.cond && !ir::eval(*ig.cond, rm.store, rctx)) continue;
    matched = true;
    if (full(s.up[i])) {
      sink.blocked();
      continue;
    }
    AsyncState& next = sink.target();
    RemoteMachine& nrm = next.remotes[i];
    const Msg taken = std::move(*nrm.buffer);
    nrm.buffer.reset();
    Label& l = sink.label(i);
    if (fused && refined_->remote_replies_through(ig)) {
      // §3.3 reverse direction: apply the input, then immediately answer
      // with the reply — it doubles as the ack.
      apply_input(remote, nrm.store, nrm.state, ig, taken, i);
      const OutputGuard& og = remote.state(nrm.state).outputs[0];
      sink.send(next, true, i,
                Msg{.meta = Meta::Repl, .msg = og.msg,
                    .src = static_cast<std::uint8_t>(i),
                    .payload = eval_payload(og, nrm.store, i, kHome)});
      if (og.action) ir::exec(*og.action, nrm.store, remote.vars, rctx);
      nrm.state = og.next;
      if (sink.text())
        l.text = strf("r%d C3: %s answered with repl %s", i,
                      protocol().message(taken.msg).name.c_str(),
                      protocol().message(og.msg).name.c_str());
      l.sent_repl = 1;
    } else {
      sink.send(next, true, i,
                Msg{.meta = Meta::Ack, .src = static_cast<std::uint8_t>(i)});
      apply_input(remote, nrm.store, nrm.state, ig, taken, i);
      if (sink.text())
        l.text = strf("r%d C3: ack %s", i,
                      protocol().message(taken.msg).name.c_str());
      l.sent_ack = 1;
    }
    l.completes_rendezvous = true;
    l.granted_to = kHome;
    if (sink.close()) return true;
  }
  if (matched) return false;
  // Row C3, no guard satisfied: nack and keep waiting.
  if (full(s.up[i])) {
    sink.blocked();
    return false;
  }
  AsyncState& next = sink.target();
  next.remotes[i].buffer.reset();
  sink.send(next, true, i,
            Msg{.meta = Meta::Nack, .src = static_cast<std::uint8_t>(i)});
  Label& l = sink.label(i);
  if (sink.text())
    l.text = strf("r%d C3: nack %s", i, protocol().message(msg).name.c_str());
  l.sent_nack = 1;
  return sink.close();
}

template <class Sink>
bool AsyncSystem::remote_tau(const AsyncState& s, int i, Sink& sink) const {
  const ir::Process& remote = protocol().remote;
  const RemoteMachine& rm = s.remotes[i];
  const EvalCtx rctx{i};
  // τ moves; the one-slot buffer rides along.
  for (const auto& g : remote.state(rm.state).taus) {
    if (g.cond && !ir::eval(*g.cond, rm.store, rctx)) continue;
    if (!sink.allows(i, g.label)) continue;
    AsyncState& next = sink.target();
    RemoteMachine& nrm = next.remotes[i];
    if (g.action) ir::exec(*g.action, nrm.store, remote.vars, rctx);
    nrm.state = g.next;
    Label& l = sink.label(i);
    if (sink.text())
      l.text = strf("r%d: tau %s", i, g.label.empty() ? "-" : g.label.c_str());
    l.decision = g.label;
    if (sink.close()) return true;
  }
  return false;
}

template <class Sink>
bool AsyncSystem::remote_send(const AsyncState& s, int i, Sink& sink) const {
  const ir::Process& remote = protocol().remote;
  const RemoteMachine& rm = s.remotes[i];
  const ir::State& st = remote.state(rm.state);
  if (st.kind != StateKind::Comm || st.outputs.empty()) return false;
  // Active state (§2.4: exactly one output guard) — rows C1/C2 of Table 1.
  const OutputGuard& og = st.outputs[0];
  const EvalCtx rctx{i};
  if (og.cond && !ir::eval(*og.cond, rm.store, rctx)) return false;
  const std::string& name = protocol().message(og.msg).name;
  if (!sink.allows(i, name)) return false;
  if (full(s.up[i])) {
    sink.blocked();
    return false;
  }
  const Payload payload = eval_payload(og, rm.store, i, kHome);
  AsyncState& next = sink.target();
  RemoteMachine& nrm = next.remotes[i];
  // Row C2: a buffered request from the home is deleted; the home will
  // interpret our request as an implicit nack for it (rule R3).
  const bool deleted = nrm.buffer.has_value();
  nrm.buffer.reset();
  sink.send(next, true, i,
            Msg{.meta = Meta::Req, .msg = og.msg,
                .src = static_cast<std::uint8_t>(i), .payload = payload});
  Label& l = sink.label(i);
  l.decision = name;
  l.sent_req = 1;
  if (refined_->cls(og.msg) == MsgClass::ElideAck) {
    // Hand-design deviation: send and commit immediately, no handshake.
    if (og.action) ir::exec(*og.action, nrm.store, remote.vars, rctx);
    nrm.state = og.next;
    if (sink.text())
      l.text = strf("r%d: send %s (no ack)%s", i, name.c_str(),
                    deleted ? ", dropped buffered request" : "");
    l.completes_rendezvous = true;
    l.granted_to = i;
  } else {
    nrm.transient = true;
    if (sink.text())
      l.text = strf("r%d C%d: request %s", i, deleted ? 2 : 1, name.c_str());
  }
  return sink.close();
}

// ---- encode / decode / describe ------------------------------------------------

void AsyncSystem::encode(const AsyncState& s, ByteSink& sink) const {
  sink.u8(s.home.transient ? 1 : 0);
  sink.varint(s.home.state);
  sink.u8(s.home.t_guard);
  sink.u8(s.home.t_target);
  s.home.store.encode(sink);
  sink.u8(static_cast<std::uint8_t>(s.home.buffer.size()));
  for (const Msg& m : s.home.buffer) m.encode(sink);
  sink.u8(s.home.txn.has_value() ? 1 : 0);
  if (s.home.txn) {
    const BusTxn& t = *s.home.txn;
    sink.u8(t.src);
    sink.u8(t.guard);
    sink.u8(t.msg);
    sink.u8(t.snooping);
    sink.varint(t.pending.bits());
    sink.u8(static_cast<std::uint8_t>(t.payload.size()));
    for (ir::Value v : t.payload) sink.varint(v);
  }
  sink.boundary(kCompHome);
  for (const auto& r : s.remotes) {
    sink.u8(r.transient ? 1 : 0);
    sink.varint(r.state);
    r.store.encode(sink);
    sink.u8(r.buffer.has_value() ? 1 : 0);
    if (r.buffer) r.buffer->encode(sink);
    sink.boundary(kCompRemote);
  }
  for (const auto& c : s.up) {
    c.encode(sink);
    sink.boundary(kCompUp);
  }
  for (const auto& c : s.down) {
    c.encode(sink);
    sink.boundary(kCompDown);
  }
}

AsyncState AsyncSystem::decode(ByteSource& src) const {
  AsyncState s;
  decode(src, s);
  return s;
}

void AsyncSystem::decode(ByteSource& src, AsyncState& s) const {
  const ir::Protocol& p = protocol();
  // Stores are only (re)built when `s` has none of the right size yet;
  // Store::decode overwrites every value.
  auto store_for = [](ir::Store& store, const std::vector<ir::VarDecl>& vars)
      -> ir::Store& {
    if (store.size() != vars.size()) store = ir::Store(vars);
    return store;
  };
  s.home.transient = src.u8() != 0;
  s.home.state = static_cast<ir::StateId>(src.varint());
  s.home.t_guard = src.u8();
  s.home.t_target = src.u8();
  store_for(s.home.store, p.home.vars).decode(src);
  s.home.buffer.resize(src.u8());
  for (Msg& m : s.home.buffer) m = Msg::decode(src);
  if (src.u8()) {
    BusTxn& t = s.home.txn.emplace();
    t.src = src.u8();
    t.guard = src.u8();
    t.msg = src.u8();
    t.snooping = src.u8();
    t.pending = NodeSet(src.varint());
    t.payload.resize(src.u8());
    for (ir::Value& v : t.payload) v = src.varint();
  } else {
    s.home.txn.reset();
  }
  s.remotes.resize(n_);
  for (auto& r : s.remotes) {
    r.transient = src.u8() != 0;
    r.state = static_cast<ir::StateId>(src.varint());
    store_for(r.store, p.remote.vars).decode(src);
    if (src.u8())
      r.buffer = Msg::decode(src);
    else
      r.buffer.reset();
  }
  s.up.resize(n_);
  for (auto& c : s.up) c.decode(src);
  s.down.resize(n_);
  for (auto& c : s.down) c.decode(src);
}

std::string AsyncSystem::describe(const AsyncState& s) const {
  const ir::Protocol& p = protocol();
  auto msg_str = [&](const Msg& m) {
    std::string out = to_string(m.meta);
    if (m.meta == Meta::Req || m.meta == Meta::Repl ||
        m.meta == Meta::Snoop)
      out += "." + p.message(m.msg).name;
    if (m.meta == Meta::SnoopAck && m.msg == 1) out += ".cancel";
    out += m.src == Msg::kHomeSrc ? "<h" : strf("<r%d", m.src);
    return out;
  };
  std::string out = "h=" + p.home.state(s.home.state).name;
  if (s.home.transient)
    out += strf("*[g%d->r%d]", s.home.t_guard, s.home.t_target);
  out += "(";
  for (std::size_t v = 0; v < p.home.vars.size(); ++v) {
    if (v) out += ",";
    out += strf("%s=%llu", p.home.vars[v].name.c_str(),
                static_cast<unsigned long long>(
                    s.home.store.get(static_cast<ir::VarId>(v))));
  }
  out += ") buf[";
  for (std::size_t b = 0; b < s.home.buffer.size(); ++b) {
    if (b) out += " ";
    out += msg_str(s.home.buffer[b]);
  }
  out += "]";
  if (s.home.txn) {
    const BusTxn& t = *s.home.txn;
    out += strf(" txn[%s<r%d pend=%llx", p.message(t.msg).name.c_str(),
                t.src, static_cast<unsigned long long>(t.pending.bits()));
    if (t.snooping != BusTxn::kNoSnoop) out += strf(" snooping=r%d", t.snooping);
    out += "]";
  }
  for (int i = 0; i < n_; ++i) {
    const auto& r = s.remotes[i];
    out += strf(" r%d=%s%s", i, p.remote.state(r.state).name.c_str(),
                r.transient ? "*" : "");
    if (r.buffer) out += "[" + msg_str(*r.buffer) + "]";
  }
  for (int i = 0; i < n_; ++i) {
    if (!s.up[i].empty()) {
      out += strf(" up%d:", i);
      for (const Msg& m : s.up[i].q) out += " " + msg_str(m);
    }
    if (!s.down[i].empty()) {
      out += strf(" down%d:", i);
      for (const Msg& m : s.down[i].q) out += " " + msg_str(m);
    }
  }
  return out;
}

// ---- symmetry ------------------------------------------------------------------

void AsyncSystem::permute(AsyncState& s, ir::NodePermView perm) const {
  CCREF_REQUIRE(perm.size() == static_cast<std::size_t>(n_));
  const ir::Protocol& p = protocol();

  // Move element i to perm[i] in place, one cycle of the permutation at a
  // time: each swap settles the slot it writes.
  auto reorder = [&](auto& vec) {
    std::uint64_t settled = 0;
    for (int start = 0; start < n_; ++start) {
      if ((settled >> start) & 1) continue;
      for (int j = perm[start]; j != start; j = perm[j]) {
        std::swap(vec[start], vec[j]);
        settled |= std::uint64_t{1} << j;
      }
    }
  };
  reorder(s.remotes);
  reorder(s.up);
  reorder(s.down);

  auto remap_msg = [&](Msg& m) {
    if (m.src != Msg::kHomeSrc && m.src < n_) m.src = perm[m.src];
    if (m.meta != Meta::Req && m.meta != Meta::Repl &&
        m.meta != Meta::Snoop)
      return;
    const auto& types = p.message(m.msg).payload;
    for (std::size_t f = 0; f < m.payload.size() && f < types.size(); ++f)
      m.payload[f] = ir::remap_value(types[f], m.payload[f], perm);
  };

  ir::remap_store(s.home.store, p.home.vars, perm);
  // The transient target is remapped even when the home is back in a stable
  // state: the stale value is still part of the encoding, and a group action
  // must rename it consistently or two permutations of one state would stop
  // being equal.
  if (s.home.t_target < n_) s.home.t_target = perm[s.home.t_target];
  if (s.home.txn) {
    BusTxn& t = *s.home.txn;
    if (t.src < n_) t.src = perm[t.src];
    if (t.snooping != BusTxn::kNoSnoop && t.snooping < n_)
      t.snooping = perm[t.snooping];
    t.pending = NodeSet(static_cast<std::uint64_t>(ir::remap_value(
        ir::Type::NodeSet, static_cast<ir::Value>(t.pending.bits()), perm)));
    const auto& types = p.message(t.msg).payload;
    for (std::size_t f = 0; f < t.payload.size() && f < types.size(); ++f)
      t.payload[f] = ir::remap_value(types[f], t.payload[f], perm);
  }
  for (Msg& m : s.home.buffer) remap_msg(m);
  for (auto& r : s.remotes) {
    ir::remap_store(r.store, p.remote.vars, perm);
    if (r.buffer) remap_msg(*r.buffer);
  }
  for (auto& c : s.up)
    for (Msg& m : c.q) remap_msg(m);
  for (auto& c : s.down)
    for (Msg& m : c.q) remap_msg(m);
}

void AsyncSystem::canonicalize(AsyncState& s) const {
  if (n_ <= 1) return;
  const ir::Protocol& p = protocol();
  const auto& hvars = p.home.vars;
  const auto& rvars = p.remote.vars;

  // Per-remote signature: the remote machine, its two channels, and the
  // home's view of it (Node/NodeSet references, pending transient target,
  // which buffer slots hold its requests) — each fact written so that two
  // interchangeable remotes produce byte-identical signatures. Node values
  // naming *other* remotes stay raw: sound, but only partially canonical
  // for protocols with cross-remote references (the shipped ones have none).
  //
  // Every signature goes into one scratch, back to back (remote i's bytes
  // end at sig_end[i]). Par workers canonicalize concurrently, so the
  // scratch lives on this stack frame; only an oversized state spills it to
  // the heap.
  std::array<std::byte, 4096> stack_bytes;
  std::pmr::monotonic_buffer_resource arena(stack_bytes.data(),
                                            stack_bytes.size());
  std::pmr::vector<std::byte> sig(&arena);
  sig.reserve(stack_bytes.size());
  std::array<std::uint32_t, kMaxNodes> sig_end;
  auto u8 = [&](std::uint64_t v) {
    sig.push_back(static_cast<std::byte>(static_cast<std::uint8_t>(v)));
  };
  auto varint = [&](std::uint64_t v) {  // the ByteSink::varint encoding
    for (; v >= 0x80; v >>= 7) u8((v & 0x7f) | 0x80);
    u8(v);
  };
  auto sig_value = [&](ir::Type t, ir::Value val, int self) {
    switch (t) {
      case ir::Type::Node:
        varint(val == static_cast<ir::Value>(self) ? static_cast<ir::Value>(n_)
                                                   : val);
        break;
      case ir::Type::NodeSet:
        u8((val >> self) & 1u);
        varint(val & ~(ir::Value{1} << self));
        break;
      default:
        varint(val);
    }
  };
  auto sig_msg = [&](const Msg& m, int self) {
    u8(static_cast<std::uint8_t>(m.meta));
    u8(m.msg);
    // 0xfe tags "sent by this remote": raw src values are node ids < 64.
    u8(m.src == static_cast<std::uint8_t>(self) ? 0xfe : m.src);
    if (m.meta != Meta::Req && m.meta != Meta::Repl &&
        m.meta != Meta::Snoop)
      return;
    const auto& types = p.message(m.msg).payload;
    for (std::size_t f = 0; f < m.payload.size(); ++f)
      sig_value(f < types.size() ? types[f] : ir::Type::Int, m.payload[f],
                self);
  };

  for (int i = 0; i < n_; ++i) {
    const RemoteMachine& r = s.remotes[i];
    u8(r.transient ? 1 : 0);
    varint(r.state);
    for (std::size_t v = 0; v < rvars.size(); ++v)
      sig_value(rvars[v].type, r.store.get(static_cast<ir::VarId>(v)), i);
    u8(r.buffer.has_value() ? 1 : 0);
    if (r.buffer) sig_msg(*r.buffer, i);
    for (const Channel* c : {&s.up[i], &s.down[i]}) {
      u8(c->size());
      for (const Msg& m : c->q) sig_msg(m, i);
    }
    for (std::size_t v = 0; v < hvars.size(); ++v) {
      const ir::Value val = s.home.store.get(static_cast<ir::VarId>(v));
      if (hvars[v].type == ir::Type::Node)
        u8(val == static_cast<ir::Value>(i) ? 1 : 0);
      else if (hvars[v].type == ir::Type::NodeSet)
        u8((val >> i) & 1u);
    }
    u8(s.home.t_target == static_cast<std::uint8_t>(i) ? 1 : 0);
    if (s.home.txn) {
      const BusTxn& t = *s.home.txn;
      u8(t.src == static_cast<std::uint8_t>(i) ? 1 : 0);
      u8(t.snooping == static_cast<std::uint8_t>(i) ? 1 : 0);
      u8(t.pending.contains(static_cast<NodeId>(i)) ? 1 : 0);
      const auto& types = p.message(t.msg).payload;
      for (std::size_t f = 0; f < t.payload.size(); ++f)
        sig_value(f < types.size() ? types[f] : ir::Type::Int, t.payload[f],
                  i);
    }
    for (const Msg& m : s.home.buffer)
      u8(m.src == static_cast<std::uint8_t>(i) ? 1 : 0);
    sig_end[i] = static_cast<std::uint32_t>(sig.size());
  }

  auto sig_of = [&](int i) {
    const std::uint32_t begin = i == 0 ? 0 : sig_end[i - 1];
    return std::span<const std::byte>(sig.data() + begin, sig_end[i] - begin);
  };
  std::array<std::uint8_t, kMaxNodes> order;
  for (int i = 0; i < n_; ++i) order[i] = static_cast<std::uint8_t>(i);
  std::sort(order.begin(), order.begin() + n_, [&](int a, int b) {
    const auto sa = sig_of(a), sb = sig_of(b);
    const auto c = std::lexicographical_compare_three_way(
        sa.begin(), sa.end(), sb.begin(), sb.end());
    return c != 0 ? c < 0 : a < b;
  });

  std::array<std::uint8_t, kMaxNodes> perm;
  for (int pos = 0; pos < n_; ++pos)
    perm[order[pos]] = static_cast<std::uint8_t>(pos);
  const ir::NodePermView view(perm.data(), static_cast<std::size_t>(n_));
  if (!ir::is_identity(view)) permute(s, view);
}

}  // namespace ccref::runtime
