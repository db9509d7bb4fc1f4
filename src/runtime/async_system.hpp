// Asynchronous semantics of a refined protocol: the executable form of the
// paper's Tables 1 (remote rules C1-C3, T1-T3) and 2 (home rules C1-C2,
// T1-T6), including the buffer-reservation scheme (progress buffer and ack
// buffer), the implicit-nack rule R3, and the §3.3 request/reply fusion.
//
// The same System interface as sem::RendezvousSystem, so verify::explore
// model-checks it and sim::des_simulate executes it. Each rule is written once,
// against a sink that decides what an enabled edge does: the enumeration
// sink behind successors() copies the state per edge and keeps going; the
// in-place sink behind deliver_up/deliver_down/home_step/remote_step (the
// discrete-event simulator's steps) patches the caller's state and stops
// after the first applied edge.
#pragma once

#include <string>
#include <vector>

#include "ir/permute.hpp"
#include "refine/refined.hpp"
#include "runtime/async_state.hpp"
#include "sem/edges.hpp"
#include "sem/label.hpp"
#include "support/contracts.hpp"

namespace ccref::runtime {

/// Outcome of one in-place step.
enum class ExecResult : std::uint8_t {
  Applied,  // the state was mutated; the label describes the step
  Blocked,  // a step is enabled but a full channel prevents it right now
  None,     // nothing enabled here (or everything gated off)
};

/// Gate for controllable remote decisions: τ labels (e.g. "evict") and
/// active-send message names (e.g. "req"). Obligatory steps — deliveries,
/// C3 answers/nacks, snoop answers, home steps — are never gated.
/// Implementations must allow the empty label (τs without a decision name
/// are not controllable).
class DecisionGate {
 public:
  virtual ~DecisionGate() = default;
  [[nodiscard]] virtual bool allows(int remote,
                                    const std::string& decision) const = 0;
};

struct AllowAllGate final : DecisionGate {
  [[nodiscard]] bool allows(int, const std::string&) const override {
    return true;
  }
};

/// Wire messages pushed by one applied in-place step, so a discrete-event
/// scheduler can enqueue their deliveries without diffing channel lengths.
/// A step pushes at most two (home C2: eviction nack + the new request).
struct SendLog {
  struct Entry {
    bool up;            // true: up[node] (remote→home); false: down[node]
    std::uint8_t node;  // channel index
    Meta meta;
    ir::MsgId msg;  // meaningful for Req/Repl/Snoop; the flag for SnoopAck
  };
  std::uint8_t count = 0;
  Entry e[2];

  void add(bool up, std::uint8_t node, Meta meta, ir::MsgId msg) {
    CCREF_ASSERT(count < 2);
    e[count++] = {up, node, meta, msg};
  }
  void clear() { count = 0; }
};

class AsyncSystem {
 public:
  using State = AsyncState;

  AsyncSystem(const refine::RefinedProtocol& refined, int num_remotes);

  [[nodiscard]] State initial() const;

  /// All enabled asynchronous transitions, deterministically ordered:
  /// deliveries to the home, deliveries to remotes, home local steps
  /// (τ / C1 / C2), remote local steps (τ / active send / C3).
  [[nodiscard]] std::vector<std::pair<State, sem::Label>> successors(
      const State& s) const {
    return successors(s, sem::LabelMode::Full);
  }

  /// Same enumeration; `LabelMode::Quiet` skips `Label::text` formatting on
  /// the checker's hot path.
  [[nodiscard]] std::vector<std::pair<State, sem::Label>> successors(
      const State& s, sem::LabelMode mode) const;

  /// The engines' form of the same enumeration: refill the caller's
  /// recycled edge buffer (sem/edges.hpp) instead of returning new vectors.
  using Edges = sem::EdgeBuffer<State>;
  void successors(const State& s, sem::LabelMode mode, Edges& out) const;

  /// successors() plus the per-edge footprint structure the ample-set
  /// partial-order reduction needs (verify/por.hpp). `all` is the exact
  /// successors() enumeration (same edges, same order); each Candidate names
  /// the edge subset that touches only remote `process`'s machine and its
  /// two channels: the delivery of down[process]'s head plus the
  /// remote_local(process) range. A candidate is recorded only when it is
  /// persistent by construction: down[process] is nonempty (so the delivery
  /// exists and FIFO-head stability makes it commute with foreign
  /// tail-pushes) and up[process] has a free slot (so no member is
  /// capacity-blocked and foreign pops of up[process] only widen the slack).
  using PorCandidate = sem::PorCandidate;
  struct PorSuccessors {
    using Candidate = PorCandidate;
    std::vector<std::pair<State, sem::Label>> all;
    std::vector<Candidate> candidates;
  };
  [[nodiscard]] PorSuccessors successors_por(const State& s,
                                             sem::LabelMode mode) const;
  /// Buffer form: refills `all` and `candidates` (capacity kept).
  void successors_por(const State& s, sem::LabelMode mode, Edges& all,
                      std::vector<PorCandidate>& candidates) const;

  /// COLLAPSE dictionary classes (verify/collapse.hpp): encode() closes one
  /// component per class after the home machine, each remote machine, and
  /// each up/down channel. All remotes share kCompRemote — they are the same
  /// process, so one dictionary serves every position.
  static constexpr std::uint8_t kCompHome = 0;
  static constexpr std::uint8_t kCompRemote = 1;
  static constexpr std::uint8_t kCompUp = 2;
  static constexpr std::uint8_t kCompDown = 3;

  void encode(const State& s, ByteSink& sink) const;
  [[nodiscard]] State decode(ByteSource& src) const;
  /// Decode into `out`, overwriting every field and keeping its heap
  /// capacity (the engines' reused expansion state).
  void decode(ByteSource& src, State& out) const;
  [[nodiscard]] std::string describe(const State& s) const;

  /// Apply a remote-index permutation (perm[old] == new) to `s`: reorder the
  /// remote machines and their up/down channels, and rename every
  /// node-indexed fact — message src fields, Node/NodeSet message payloads,
  /// store variables, and the home's pending transient target — through the
  /// same permutation.
  void permute(State& s, ir::NodePermView perm) const;

  /// Rewrite `s` in place to its orbit's canonical representative under
  /// remote permutation (verify::SymmetryMode::Canonical).
  void canonicalize(State& s) const;

  [[nodiscard]] const refine::RefinedProtocol& refined() const {
    return *refined_;
  }
  [[nodiscard]] const ir::Protocol& protocol() const {
    return *refined_->base;
  }
  [[nodiscard]] int num_remotes() const { return n_; }

  // ---- in-place steps (the discrete-event simulator) ----
  // Each applies to `s` itself the first edge, in successors() order, of
  // one rule family that is enabled and not capacity-blocked; fills `l`
  // without text (reusing its string capacity) and, when `log` is given,
  // records the step's channel pushes. Where the enumeration offers a
  // choice (which buffered request to ack, which C2 target to request),
  // the first edge wins; schedule diversity comes from the caller's event
  // interleaving.

  /// Deliver the head of up[i] to the home (rows T1-T6, R3, fused replies,
  /// snoop acks).
  ExecResult deliver_up(State& s, int i, sem::Label& l, SendLog* log) const;
  /// Deliver the head of down[i] to remote i. Never Blocked: every case
  /// consumes the head.
  ExecResult deliver_down(State& s, int i, sem::Label& l,
                          SendLog* log) const;
  /// One home local step: bus transaction, else first τ, else first C1
  /// completion, else first C2 initiation.
  ExecResult home_step(State& s, sem::Label& l, SendLog* log) const;
  /// One remote local step. A parked snoop or a request buffered in a
  /// passive state is answered first; only then come the gate-allowed τs
  /// and the gate-allowed active send.
  ExecResult remote_step(State& s, int i, const DecisionGate& gate,
                         sem::Label& l, SendLog* log) const;

 private:
  // ---- the rules (Tables 1 and 2) ----
  // Every rule family is a template over a sink (async_system.cpp defines
  // and instantiates them). For each enabled edge a rule asks
  // `sink.allows(actor, decision)` (controllable remote steps only), runs
  // every capacity check — `sink.blocked()` on a full channel — before its
  // first write, takes the state to patch from `sink.target()`, pushes
  // through `sink.send()`, fills `sink.label(actor)`, and returns true as
  // soon as `sink.close()` does. Under the in-place sink `s` and the target
  // are one object, so a rule reads everything it needs from `s` first.
  template <class Sink>
  bool deliver_to_home(const State& s, int i, Sink& sink) const;
  template <class Sink>
  bool deliver_to_remote(const State& s, int i, Sink& sink) const;
  template <class Sink>
  bool home_local(const State& s, Sink& sink) const;
  /// remote_answer, remote_tau, remote_send in enumeration order.
  template <class Sink>
  bool remote_local(const State& s, int i, Sink& sink) const;
  /// Answer a parked snoop (any remote) or row C3 (passive remote).
  template <class Sink>
  bool remote_answer(const State& s, int i, Sink& sink) const;
  template <class Sink>
  bool remote_tau(const State& s, int i, Sink& sink) const;
  /// Rows C1/C2 of Table 1: the active send.
  template <class Sink>
  bool remote_send(const State& s, int i, Sink& sink) const;

  // ---- helpers ----
  [[nodiscard]] bool full(const Channel& c) const {
    return c.size() >= static_cast<std::size_t>(cap_);
  }
  /// Does message m satisfy some input guard of home state `sid`? (§3.2's
  /// "known to complete a rendezvous in the current state".)
  [[nodiscard]] bool satisfies_home_guard(const State& s, ir::StateId sid,
                                          const Msg& m) const;
  /// Buffer admission per Table 2 rows T4-T6 / the progress-buffer rule.
  /// Returns true to buffer, false to nack.
  [[nodiscard]] bool admit(const HomeMachine& hm, const State& s,
                           const Msg& m, bool in_transient) const;
  /// Evaluate an output guard's payload with the target visible to the
  /// expression (without mutating the live store).
  [[nodiscard]] Payload eval_payload(
      const ir::OutputGuard& og, const ir::Store& store, int actor,
      int target) const;
  /// Apply a completed home output transition (bind target, action, move).
  void apply_home_output(HomeMachine& hm, const ir::OutputGuard& og,
                         int target) const;
  /// Apply an input guard on a process store/state.
  void apply_input(const ir::Process& proc, ir::Store& store,
                   ir::StateId& state, const ir::InputGuard& ig,
                   const Msg& m, int self) const;
  [[nodiscard]] bool input_source_matches(const ir::InputGuard& ig,
                                          const ir::Store& home_store,
                                          std::uint8_t src) const;

  const refine::RefinedProtocol* refined_;
  int n_;
  int k_;    // home buffer capacity
  int cap_;  // channel capacity
};

}  // namespace ccref::runtime
