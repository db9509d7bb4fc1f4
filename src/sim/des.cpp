#include "sim/des.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#ifdef CCREF_DES_DEBUG_WEDGE
#include <cstdio>
#endif
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/async_system.hpp"
#include "support/calendar_queue.hpp"
#include "support/event_pool.hpp"
#include "support/node_set.hpp"

namespace ccref::sim {

using runtime::AsyncState;
using runtime::AsyncSystem;
using runtime::ExecResult;
using runtime::Meta;
using runtime::SendLog;

namespace {

constexpr std::uint64_t kNever = ~std::uint64_t{0};
constexpr int kSlotCap = 64;                       // bound nodes per address
constexpr std::uint32_t kWriteBufferCapacity = 8;  // stores before a drain
constexpr std::uint64_t kBaseWindow = 1024;        // cross-lane sync (cycles)

struct Event {
  enum Kind : std::uint8_t {
    kIssue,        // a = node: its current op becomes eligible
    kDeliverUp,    // a = instance, b = channel: one up message arrived
    kDeliverDown,  // a = instance, b = channel: one down message arrived
    kService,      // a = instance: the busy home directory frees up
  };
  Kind kind;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

struct Instance {
  std::uint64_t addr = 0;
  std::uint32_t idx = 0;  // index within the owning lane
  AsyncState st;
  std::uint64_t busy_until = 0;  // home directory occupancy
  std::uint64_t blocked_up = 0;  // deliver_up blocked: needs down[i] slack
  std::uint64_t dirty = 0;       // slots needing remote_step attempts
  // Slots whose bound node has an op in flight HERE. This mask is the only
  // liveness source the lane consults: a node's NodeState is owned by
  // whichever lane runs its current op, so peeking at it through a stale
  // slot binding would race with that lane. The mask is maintained entirely
  // by the owning lane (set in bind(), cleared at completion).
  std::uint64_t bound = 0;
  std::vector<std::uint64_t> up_free, down_free;  // channel next-free time
  std::vector<std::uint16_t> up_pending;  // arrived-but-undelivered counts
  std::vector<std::int32_t> slot_node;    // bound node per slot, -1 free
  std::deque<std::uint32_t> waiting;      // nodes parked for a slot
  std::uint8_t rr_next = 0;               // round-robin home service cursor
  bool service_scheduled = false;         // a kService event is pending
#ifdef CCREF_DES_DEBUG_WEDGE
  std::vector<std::uint64_t> dbg_push_down, dbg_pop_down;
#endif
};

struct NodeState {
  DesOp op;
  std::uint64_t activated = 0;   // issue (or park) time of the current op
  std::uint64_t bound_addr = 0;
  std::uint64_t wbuf_penalty = 0;  // drain cycles charged to the next issue
  std::int32_t slot = -1;
  std::uint32_t wbuf = 0;  // retired stores in the write buffer
  bool active = false;     // an op is fetched and incomplete
  bool issued = false;     // bound and visible to the decision gate
  bool parked = false;     // waiting for a slot
  bool wbuf_bypass = false;  // next store must take the protocol path
  bool done = false;         // stream exhausted
};

struct Handoff {
  int lane;
  std::uint32_t node;
  std::uint64_t time;
};

struct Lane {
  int idx = 0;
  CalendarQueue cal;
  EventPool<Event> pool;
  std::unordered_map<std::uint64_t, std::uint32_t> inst_of;
  std::vector<std::unique_ptr<Instance>> instances;
  DesStats stats;
  std::uint64_t now = 0;
  std::uint64_t next_time = kNever;  // first event at/after the window end
  std::uint64_t streams_done = 0;
  std::vector<Handoff> outbox;
};

class Engine {
 public:
  Engine(const refine::RefinedProtocol& refined, OpSource& source,
         const DesOptions& opts)
      : opts_(opts),
        source_(&source),
        num_nodes_(source.num_nodes()),
        w_(std::max(1, std::min({kSlotCap, kMaxNodes,
                                 static_cast<int>(std::max<std::uint32_t>(
                                     1, source.num_nodes()))}))),
        sys_(refined, w_),
        vocab_(&source.vocabulary()),
        initial_(sys_.initial()) {
    const ir::Protocol& p = sys_.protocol();
    msg_data_.resize(p.messages.size());
    for (std::size_t m = 0; m < p.messages.size(); ++m)
      msg_data_[m] = !p.messages[m].payload.empty();
    for (std::size_t v = 0; v < p.home.vars.size(); ++v)
      if (p.home.vars[v].type == ir::Type::Node ||
          p.home.vars[v].type == ir::Type::NodeSet)
        home_node_vars_.push_back(
            {static_cast<ir::VarId>(v),
             p.home.vars[v].type == ir::Type::NodeSet});
    const int lanes = std::max(1, opts_.lanes);
    lanes_.resize(lanes);
    for (int l = 0; l < lanes; ++l) {
      lanes_[l] = std::make_unique<Lane>();
      lanes_[l]->idx = l;
      lanes_[l]->stats.nodes.resize(num_nodes_);
    }
    nodes_.resize(num_nodes_);
  }

  DesStats run();

 private:
  // ---- gate -----------------------------------------------------------------
  struct Gate final : runtime::DecisionGate {
    const Engine* e = nullptr;
    const Instance* a = nullptr;
    Gate(const Engine* e_, const Instance* a_) : e(e_), a(a_) {}
    [[nodiscard]] bool allows(int r,
                              const std::string& d) const override {
      if (d.empty()) return true;
      if (!e->vocab_->contains(d)) return true;  // obligatory action
      // Only consult NodeState behind the lane-local `bound` mask: a set
      // bit proves the node's current op runs on this lane, so the read
      // cannot race with another lane rebinding the node.
      if (!(a->bound >> r & 1)) return false;
      const std::int32_t node = a->slot_node[r];
      const NodeState& ns = e->nodes_[node];
      const auto& dec = *ns.op.decisions;
      return std::find(dec.begin(), dec.end(), d) != dec.end();
    }
  };

  [[nodiscard]] int lane_of(std::uint64_t addr) const {
    return static_cast<int>(addr % lanes_.size());
  }

  void schedule(Lane& l, std::uint64_t t, Event ev) {
    auto h = l.pool.alloc();
    l.pool[h] = ev;
    l.cal.push(t, h);
  }

  Instance& instance(Lane& l, std::uint64_t addr) {
    auto it = l.inst_of.find(addr);
    if (it != l.inst_of.end()) return *l.instances[it->second];
    auto inst = std::make_unique<Instance>();
    inst->addr = addr;
    inst->idx = static_cast<std::uint32_t>(l.instances.size());
    inst->st = initial_;
    inst->up_free.assign(w_, 0);
    inst->down_free.assign(w_, 0);
    inst->up_pending.assign(w_, 0);
    inst->slot_node.assign(w_, -1);
#ifdef CCREF_DES_DEBUG_WEDGE
    inst->dbg_push_down.assign(w_, 0);
    inst->dbg_pop_down.assign(w_, 0);
#endif
    l.inst_of.emplace(addr, inst->idx);
    l.instances.push_back(std::move(inst));
    ++l.stats.instances;
    return *l.instances.back();
  }

  /// Can slot `s` be rebound to a new node? True when the machine is
  /// indistinguishable from a fresh remote: initial state/store, no
  /// transient, empty channels, and no home-side reference (buffered
  /// request, pending transient target, Node/NodeSet variable).
  [[nodiscard]] bool detachable(const Instance& a, int s) const {
    // An op in flight pins the slot. The lane-local mask answers this
    // without touching NodeState: a node parked behind a stale binding may
    // already be running on another lane, and reading its fields here
    // would race with that lane's bind().
    if (a.bound >> s & 1) return false;
    const auto& rm = a.st.remotes[s];
    if (rm.transient) return false;
    // A buffered home request only pins the slot while its rendezvous is
    // live (home still transient toward us — checked below). Otherwise it
    // is R3-dead: the elide-ack race leaves a stale `inv` at a remote that
    // released before it arrived, and the reference semantics delete it on
    // the remote's next active send — which a rebound node's first issue
    // performs, so acquire_slot may drop it when it rebinds.
    if (rm.state != initial_.remotes[0].state) return false;
    if (!(rm.store == initial_.remotes[0].store)) return false;
    if (!a.st.up[s].empty() || !a.st.down[s].empty()) return false;
    if (a.st.home.transient &&
        a.st.home.t_target == static_cast<std::uint8_t>(s))
      return false;
    for (const auto& msg : a.st.home.buffer)
      if (msg.src == static_cast<std::uint8_t>(s)) return false;
    for (const auto& [var, is_set] : home_node_vars_) {
      const ir::Value v = a.st.home.store.get(var);
      if (is_set ? ((v >> s) & 1u) : (v == static_cast<ir::Value>(s)))
        return false;
    }
    return true;
  }

  [[nodiscard]] int acquire_slot(Instance& a) {
    for (int s = 0; s < w_; ++s)
      if (a.slot_node[s] < 0) return s;
    for (int s = 0; s < w_; ++s)
      if (detachable(a, s)) {
        a.st.remotes[s].buffer.reset();  // R3: stale request dies here
        a.slot_node[s] = -1;
        return s;
      }
    return -1;
  }

  void account(Lane& l, Instance& a, const sem::Label& lab,
               const SendLog& log, std::uint64_t now) {
    ++l.stats.events;
    l.stats.req += lab.sent_req;
    l.stats.ack += lab.sent_ack;
    l.stats.nack += lab.sent_nack;
    l.stats.repl += lab.sent_repl;
    if (lab.completes_rendezvous) ++l.stats.completions;
    for (std::uint8_t e = 0; e < log.count; ++e) {
      const auto& s = log.e[e];
      const bool data = (s.meta == Meta::Req || s.meta == Meta::Repl) &&
                        msg_data_[s.msg];
      const bool from_home = !s.up;
      const std::uint64_t lat = opts_.cost.latency(data, from_home, w_);
      auto& free_at = s.up ? a.up_free[s.node] : a.down_free[s.node];
      // A link carries one message per cycle: the +1 serializes same-cycle
      // sends and keeps per-channel arrival times strictly increasing
      // (FIFO delivery order needs no tie-breaking).
      const std::uint64_t arrival = std::max(now + lat, free_at + 1);
      free_at = arrival;
      schedule(l, arrival,
               {s.up ? Event::kDeliverUp : Event::kDeliverDown, a.idx,
                s.node});
#ifdef CCREF_DES_DEBUG_WEDGE
      if (!s.up) ++a.dbg_push_down[s.node];
#endif
      if (data) {
        if (from_home)
          ++l.stats.memory_accesses;
        else if (s.meta == Meta::Repl)
          ++l.stats.c2c_transfers;  // cache serves data on demand
        else
          ++l.stats.write_backs;  // cache pushes data home (e.g. LR)
      }
    }
  }

  void complete(Lane& l, std::uint32_t node, std::uint64_t now) {
    NodeState& ns = nodes_[node];
    const std::uint64_t latency = now - ns.activated;
    l.stats.latency.record(latency);
    ++l.stats.ops_total;
    NodeOps& ops = l.stats.nodes[node];
    ++ops.completed;
    ops.latency_total += latency;
    ops.latency_max = std::max(ops.latency_max, latency);
    ns.active = ns.issued = false;
    DesOp op;
    if (!source_->next(node, op)) {
      ns.done = true;
      ++l.streams_done;
      return;
    }
    ns.op = op;
    ns.active = true;
    const std::uint64_t t = now + op.think + ns.wbuf_penalty;
    ns.wbuf_penalty = 0;
    const int target = lane_of(op.addr);
    if (target == l.idx)
      schedule(l, t, {Event::kIssue, node, 0});
    else
      l.outbox.push_back({target, node, t});
  }

  void settle_slot(Lane& l, Instance& a, int s, std::uint64_t now) {
    if (!(a.bound >> s & 1)) return;  // no op in flight on this slot
    const std::int32_t node = a.slot_node[s];
    NodeState& ns = nodes_[node];  // lane-owned: the mask bit proves it
    if (a.st.remotes[s].transient) return;
    const ir::StateId st = a.st.remotes[s].state;
    if (st != ns.op.goal && st != ns.op.alt_goal) return;
    a.bound &= ~(std::uint64_t{1} << s);
    complete(l, node, now);
  }

  /// Bind parked nodes to newly available slots. Returns true if any bound.
  bool try_waiters(Lane& l, Instance& a, std::uint64_t now) {
    bool bound = false;
    while (!a.waiting.empty()) {
      const int s = acquire_slot(a);
      if (s < 0) break;
      const std::uint32_t node = a.waiting.front();
      a.waiting.pop_front();
      bind(l, a, node, s, now);
      bound = true;
    }
    return bound;
  }

  void bind(Lane& l, Instance& a, std::uint32_t node, int s,
            std::uint64_t now) {
    NodeState& ns = nodes_[node];
    a.slot_node[s] = static_cast<std::int32_t>(node);
    ns.slot = s;
    ns.bound_addr = a.addr;
    ns.issued = true;
    ns.parked = false;
    // Queueing time while parked counts toward the op's latency:
    // `activated` was stamped when the op was first issued.
    if (!a.st.remotes[s].transient &&
        (a.st.remotes[s].state == ns.op.goal ||
         a.st.remotes[s].state == ns.op.alt_goal)) {
      complete(l, node, now);
      return;
    }
    a.bound |= std::uint64_t{1} << s;  // op now in flight on this slot
    a.dirty |= std::uint64_t{1} << s;
  }

  void pump(Lane& l, Instance& a, std::uint64_t now) {
    const Gate gate(this, &a);
    sem::Label lab;
    SendLog log;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (;;) {
        log.clear();
        if (sys_.home_step(a.st, lab, &log) != ExecResult::Applied) break;
        progressed = true;
        account(l, a, lab, log, now);
      }
      std::uint64_t mask = a.dirty;
      a.dirty = 0;
      while (mask) {
        const int s = std::countr_zero(mask);
        mask &= mask - 1;
        for (;;) {
          log.clear();
          if (sys_.remote_step(a.st, s, gate, lab, &log) !=
              ExecResult::Applied)
            break;
          progressed = true;
          account(l, a, lab, log, now);
          settle_slot(l, a, s, now);
        }
      }
      if (a.dirty) progressed = true;
      if (try_waiters(l, a, now)) progressed = true;
    }
  }

  /// Serve arrived up-messages at the home directory. One service cursor per
  /// instance scans the channels round-robin so that a retry storm from
  /// contending requesters cannot starve the one channel whose head would
  /// complete the home's transient (per-channel retry events racing on equal
  /// timestamps did exactly that — a deterministic livelock). At most one
  /// kService wake-up is outstanding per instance.
  void service(Lane& l, Instance& a, std::uint64_t now) {
    sem::Label lab;
    SendLog log;
    for (;;) {
      bool any_pending = false;
      for (int k = 0; k < w_; ++k)
        if (a.up_pending[k] > 0) {
          any_pending = true;
          break;
        }
      if (!any_pending) return;
      if (a.busy_until > now) {
        if (!a.service_scheduled) {
          a.service_scheduled = true;
          schedule(l, a.busy_until, {Event::kService, a.idx, 0});
        }
        return;
      }
      int chosen = -1;
      for (int k = 0; k < w_; ++k) {
        const int i = (a.rr_next + k) % w_;
        if (a.up_pending[i] == 0) continue;
        if (a.blocked_up & (std::uint64_t{1} << i)) continue;
        chosen = i;
        break;
      }
      if (chosen < 0) return;  // everything pending is blocked on down slack
      log.clear();
      const ExecResult r = sys_.deliver_up(a.st, chosen, lab, &log);
      if (r == ExecResult::Blocked) {
        a.blocked_up |= std::uint64_t{1} << chosen;
        continue;  // skip this channel, try the next pending one
      }
      CCREF_ASSERT(r == ExecResult::Applied);
      --a.up_pending[chosen];
      a.rr_next = static_cast<std::uint8_t>((chosen + 1) % w_);
      account(l, a, lab, log, now);
      if (opts_.cost.home_occupancy) {
        a.busy_until = now + opts_.cost.home_occupancy;
        l.stats.home_busy_cycles += opts_.cost.home_occupancy;
      }
      a.dirty |= std::uint64_t{1} << chosen;  // up[chosen] slack freed
    }
  }

  void issue(Lane& l, std::uint32_t node, std::uint64_t now) {
    NodeState& ns = nodes_[node];
    CCREF_ASSERT(ns.active);
    if (opts_.write_buffer && ns.op.write) {
      if (!ns.wbuf_bypass && ns.wbuf < kWriteBufferCapacity) {
        // Retire the store into the write buffer: no protocol traffic.
        ++ns.wbuf;
        ++l.stats.wbuf_hits;
        ns.activated = now;
        complete(l, node, now);
        return;
      }
      if (!ns.wbuf_bypass) {
        // Buffer full: this store models the drain batch — flush and take
        // the protocol path after paying the drain cost.
        ++l.stats.wbuf_drains;
        const std::uint64_t drain = opts_.cost.wbuf_drain * ns.wbuf;
        ns.wbuf = 0;
        ns.wbuf_bypass = true;
        schedule(l, now + drain, {Event::kIssue, node, 0});
        return;
      }
      ns.wbuf_bypass = false;
    }
    Instance& a = instance(l, ns.op.addr);
    int s = -1;
    if (ns.slot >= 0 && ns.bound_addr == ns.op.addr &&
        ns.slot < w_ &&
        a.slot_node[ns.slot] == static_cast<std::int32_t>(node))
      s = ns.slot;  // still bound from a previous op (cache residency)
    ns.activated = now;
    if (s < 0) {
      s = acquire_slot(a);
      if (s < 0) {
        ns.parked = true;
        a.waiting.push_back(node);
        return;
      }
      bind(l, a, node, s, now);
    } else {
      bind(l, a, node, s, now);
    }
    pump(l, a, now);
  }

  void dispatch(Lane& l, const Event& ev, std::uint64_t now) {
    switch (ev.kind) {
      case Event::kIssue:
        issue(l, ev.a, now);
        return;
      case Event::kDeliverUp: {
        Instance& a = *l.instances[ev.a];
        ++a.up_pending[ev.b];
        service(l, a, now);
        pump(l, a, now);
        return;
      }
      case Event::kService: {
        Instance& a = *l.instances[ev.a];
        a.service_scheduled = false;
        service(l, a, now);
        pump(l, a, now);
        return;
      }
      case Event::kDeliverDown: {
        Instance& a = *l.instances[ev.a];
        const int i = static_cast<int>(ev.b);
#ifdef CCREF_DES_DEBUG_WEDGE
        ++a.dbg_pop_down[i];
#endif
        CCREF_ASSERT(!a.st.down[i].empty());
        const Meta head = a.st.down[i].front().meta;
        if (head == Meta::Nack) ++l.stats.retries;
        if (opts_.write_buffer && head == Meta::Req &&
            (a.bound >> i & 1)) {
          // Coherence event at this cache: the write buffer drains before
          // the request is answered. Only while the owning node is mid-op
          // here — an idle resident's NodeState may already belong to
          // another lane, so its buffered stores are instead charged when
          // the buffer next fills at issue time.
          NodeState& ns = nodes_[a.slot_node[i]];
          if (ns.wbuf > 0) {
            ++l.stats.wbuf_drains;
            ns.wbuf_penalty += opts_.cost.wbuf_drain * ns.wbuf;
            ns.wbuf = 0;
          }
        }
        sem::Label lab;
        const ExecResult r = sys_.deliver_down(a.st, i, lab, nullptr);
        CCREF_ASSERT(r == ExecResult::Applied);
        account(l, a, lab, SendLog{}, now);
        a.dirty |= std::uint64_t{1} << i;
        if (a.blocked_up & (std::uint64_t{1} << i)) {
          a.blocked_up &= ~(std::uint64_t{1} << i);
          service(l, a, now);
        }
        settle_slot(l, a, i, now);
        pump(l, a, now);
        return;
      }
    }
  }

  /// Process this lane's events strictly before `end`. Returns the time of
  /// the first unprocessed event (kNever when drained). `check_budget` is
  /// the single-lane path; multi-lane budgets are enforced at the barrier.
  std::uint64_t run_until(Lane& l, std::uint64_t end, bool check_budget) {
    std::uint64_t t = 0;
    std::uint32_t h = 0;
    while (l.cal.pop(t, h)) {
      if (t >= end) {
        l.cal.push(t, h);
        return t;
      }
      if (check_budget && opts_.max_events &&
          l.stats.events >= opts_.max_events) {
        l.cal.push(t, h);
        budget_stall_ = "event budget exhausted";
        return t;
      }
      const Event ev = l.pool[h];
      l.pool.release(h);
      l.now = t;
      dispatch(l, ev, t);
    }
    return kNever;
  }

  void seed();
  void fill_stall(DesStats& out) const;

  const DesOptions opts_;
  OpSource* source_;
  const std::uint32_t num_nodes_;
  const int w_;  // protocol remotes per address instance
  AsyncSystem sys_;
  const std::set<std::string>* vocab_;
  const AsyncState initial_;
  std::vector<bool> msg_data_;  // MsgId -> carries a payload
  std::vector<std::pair<ir::VarId, bool>> home_node_vars_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<NodeState> nodes_;
  std::string budget_stall_;

  // Multi-lane shared coordination (written only in the barrier completion
  // function, which runs exclusively while all lanes wait; lanes read after
  // the barrier releases them, so no synchronization beyond it is needed).
  std::uint64_t window_start_ = 0;
  std::uint64_t window_len_ = 0;  // current adaptive window length
  std::uint64_t windows_ = 0;     // barrier completions
  bool done_ = false;
};

void Engine::seed() {
  for (std::uint32_t node = 0; node < num_nodes_; ++node) {
    DesOp op;
    if (!source_->next(node, op)) {
      nodes_[node].done = true;
      ++lanes_[0]->streams_done;
      continue;
    }
    nodes_[node].op = op;
    nodes_[node].active = true;
    Lane& l = *lanes_[lane_of(op.addr)];
    schedule(l, op.think, {Event::kIssue, node, 0});
  }
}

void Engine::fill_stall(DesStats& out) const {
  for (std::uint32_t node = 0; node < num_nodes_; ++node) {
    const NodeState& ns = nodes_[node];
    if (ns.done) continue;
    Stall& st = out.stall;
    if (st.reason.empty())
      st.reason = ns.parked ? "no detachable slot at the address instance"
                            : "blocked mid-protocol";
    st.op = ns.active ? ns.op.name : "";
    st.remote = static_cast<int>(node);
    const Lane& l = *lanes_[lane_of(ns.op.addr)];
    auto it = l.inst_of.find(ns.op.addr);
    if (it != l.inst_of.end()) {
      const Instance& a = *l.instances[it->second];
#ifdef CCREF_DES_DEBUG_WEDGE
      std::fprintf(stderr, "WEDGE node=%u op=%s parked=%d slot=%d\n", node,
                   ns.op.name, ns.parked, ns.slot);
      for (auto& lp : lanes_)
        for (auto& ip : lp->instances) {
          std::fprintf(stderr, "  addr=%llu slots:",
                       (unsigned long long)ip->addr);
          for (int s = 0; s < w_; ++s)
            std::fprintf(stderr, " %d(det=%d,pd=%llu/%llu)",
                         ip->slot_node[s], detachable(*ip, s),
                         (unsigned long long)ip->dbg_push_down[s],
                         (unsigned long long)ip->dbg_pop_down[s]);
          std::fprintf(stderr, "\n  state: %s\n",
                       sys_.describe(ip->st).c_str());
        }
#endif
      st.home_buffer = a.st.home.buffer.size();
      if (ns.slot >= 0 && ns.slot < w_ &&
          a.slot_node[ns.slot] == static_cast<std::int32_t>(node)) {
        st.up_occupancy = a.st.up[ns.slot].size();
        st.down_occupancy = a.st.down[ns.slot].size();
      }
    }
    return;
  }
}

DesStats Engine::run() {
  seed();
  const int lanes = static_cast<int>(lanes_.size());

  if (lanes == 1) {
    Lane& l = *lanes_[0];
    run_until(l, kNever, /*check_budget=*/true);
  } else {
    window_len_ = kBaseWindow;
    const std::uint64_t cap =
        opts_.window_max ? std::max(opts_.window_max, kBaseWindow)
                         : kBaseWindow;
    auto on_window = [this, cap]() noexcept {
      ++windows_;
      const std::uint64_t next = window_start_ + window_len_;
      std::uint64_t mint = kNever;
      bool handoff = false;
      for (auto& lp : lanes_) {
        for (const Handoff& h : lp->outbox) {
          handoff = true;
          const std::uint64_t t = std::max(h.time, next);
          schedule(*lanes_[h.lane], t, {Event::kIssue, h.node, 0});
          mint = std::min(mint, t);
        }
        lp->outbox.clear();
        mint = std::min(mint, lp->next_time);
      }
      if (mint == kNever) {
        done_ = true;
        return;
      }
      if (opts_.max_events) {
        std::uint64_t total = 0;
        for (auto& lp : lanes_) total += lp->stats.events;
        if (total >= opts_.max_events) {
          budget_stall_ = "event budget exhausted";
          done_ = true;
          return;
        }
      }
      // Adapt to the observed cross-lane horizon: a handoff-free window
      // proves the lanes ran independently for its whole span, so the next
      // one doubles; any handoff resets to the base so the clamp error of
      // interacting lanes stays bounded by the base window.
      window_len_ = handoff ? kBaseWindow : std::min(window_len_ * 2, cap);
      window_start_ = std::max(next, (mint / window_len_) * window_len_);
    };
    std::barrier bar(lanes, on_window);
    auto lane_main = [&](int idx) {
      Lane& l = *lanes_[idx];
      for (;;) {
        l.next_time = run_until(l, window_start_ + window_len_,
                                /*check_budget=*/false);
        bar.arrive_and_wait();
        if (done_) break;
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (int t = 0; t < lanes; ++t) threads.emplace_back(lane_main, t);
    for (auto& t : threads) t.join();
  }

  // Lane 0's counters become the result (its per-node vector is already
  // sized for every node); the other lanes merge into it.
  for (auto& lp : lanes_) lp->stats.cycles = lp->now;
  DesStats out = std::move(lanes_[0]->stats);
  std::uint64_t streams_done = lanes_[0]->streams_done;
  for (std::size_t l = 1; l < lanes_.size(); ++l) {
    out.merge(lanes_[l]->stats);
    streams_done += lanes_[l]->streams_done;
  }
  out.windows = windows_;
  out.finished = streams_done == num_nodes_ && budget_stall_.empty();
  if (!out.finished) {
    out.stall.reason = budget_stall_;
    fill_stall(out);
    if (out.stall.reason.empty()) out.stall.reason = "wedged";
  }
  return out;
}

}  // namespace

DesStats des_simulate(const refine::RefinedProtocol& refined,
                      OpSource& source, const DesOptions& options) {
  CCREF_REQUIRE(source.num_nodes() >= 1);
  CCREF_REQUIRE(options.lanes >= 1);
  CCREF_REQUIRE_MSG(refined.base->topology == ir::Topology::Star,
                    "des_simulate drives star protocols only: the simulator "
                    "does not schedule split bus transactions (use "
                    "sim::bus_simulate for bus protocols)");
  Engine engine(refined, source, options);
  return engine.run();
}

}  // namespace ccref::sim
