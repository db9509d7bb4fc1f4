// Explicit-state reachability checker (the library's stand-in for SPIN).
//
// Works over any System type providing:
//   using State = ...;                              // value type
//   State initial() const;
//   std::vector<std::pair<State, sem::Label>> successors(const State&) const;
//   void encode(const State&, ByteSink&) const;
//   State decode(ByteSource&) const;
//   std::string describe(const State&) const;
// Systems that also fill a recycled edge buffer and decode into an existing
// state (HasEdgeBuffer, HasDecodeInto) expand states without touching the
// heap; the others fall back to the by-value calls.
//
// Exploration is breadth-first using the visited set as the queue, so
// counter-example traces are shortest. A memory budget bounds the visited
// set; exhausting it yields Status::Unfinished — the paper's Table 3 term
// for the asynchronous protocols that outgrew 64 MB.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sem/edges.hpp"
#include "sem/label.hpp"
#include "support/bytes.hpp"
#include "verify/collapse.hpp"
#include "verify/por.hpp"
#include "verify/state_set.hpp"
#include "verify/storage_plan.hpp"
#include "verify/symmetry.hpp"

namespace ccref::verify {

enum class Status : std::uint8_t {
  Ok,                 // full state space explored, no violations
  Unfinished,         // memory budget exhausted (paper: "Unfinished")
  InvariantViolated,  // a reachable state failed an invariant
  Deadlock,           // a reachable state has no successors
  LivenessViolated,   // a fair accepting lasso exists (liveness.hpp)
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Unfinished: return "Unfinished";
    case Status::InvariantViolated: return "invariant-violated";
    case Status::Deadlock: return "deadlock";
    case Status::LivenessViolated: return "liveness-violated";
  }
  return "?";
}

struct CheckResult {
  Status status = Status::Ok;
  std::size_t states = 0;       // distinct states stored
  std::size_t transitions = 0;  // edges traversed
  std::size_t memory_bytes = 0;
  /// Bytes spent storing states: index-tuple pool plus dictionary footprint
  /// under CompressionMode::Collapse, the raw pool otherwise.
  std::size_t pool_bytes = 0;
  /// Summed raw encoding sizes of the stored states — what the pool would
  /// hold uncompressed. pool_bytes/raw_pool_bytes is the compression ratio.
  std::size_t raw_pool_bytes = 0;
  /// Bytes of state storage held in mmap-backed spill files (0 without a
  /// spill directory). Not part of memory_bytes: that is the RAM story.
  std::size_t spill_bytes = 0;
  /// Pool chunk bytes held (RAM or spill) but never occupied by records —
  /// chunk-seam skips plus final-chunk tails. The honest gap between
  /// memory charged and memory used by actual data.
  std::size_t waste_bytes = 0;
  /// Disk bytes held by the external visited tier at finish (pending +
  /// history runs, order log, frontier queue). Zero without --external.
  std::size_t external_bytes = 0;
  /// Sorted-run merge passes the external tier performed (one per
  /// partition per delayed-duplicate-detection round).
  std::size_t merge_passes = 0;
  /// Hash compaction / external tier only: birthday-bound probability
  /// that at least one distinct state was omitted because its 64-bit
  /// fingerprint collided (~states²/2⁶⁵). Zero for the exact storage
  /// tiers. Violation verdicts and their traces are exact regardless —
  /// only Ok's state count carries this caveat.
  double omission_probability = 0;
  double seconds = 0;
  std::string violation;           // message for violated invariant
  std::string note;                // downgrades, from resolve()
  std::vector<std::string> trace;  // labels root -> offending state
};

template <class Sys>
struct CheckOptions {
  std::size_t memory_limit = 64u << 20;  // the paper's 64 MB
  bool detect_deadlock = true;
  bool want_trace = true;
  /// Return "" when the state is fine, otherwise the violation message.
  std::function<std::string(const typename Sys::State&)> invariant;
  /// Called on every traversed edge (used by the §4 simulation-relation
  /// checker); return "" or a violation message. Edge checks always see the
  /// concrete successor, before any canonicalization.
  std::function<std::string(const typename Sys::State&,
                            const typename Sys::State&, const sem::Label&)>
      edge_check;
  /// Canonical stores one representative per remote-permutation orbit
  /// (symmetry.hpp); state counts become orbit counts. Ignored by systems
  /// that do not provide canonicalize() (custom test harnesses).
  SymmetryMode symmetry = SymmetryMode::Off;
  /// Ample expands an ample subset of each state's transitions (por.hpp).
  /// Ignored by systems without successors_por(). Per-state invariants and
  /// edge checks observe more than reachability, so either downgrades the
  /// reduction to Off (recorded in CheckResult::note): a reduced search
  /// checks them only on the reduced graph's states/edges.
  PorMode por = PorMode::Off;
  /// Collapse interns state components (home, remotes, channels) in
  /// per-class dictionaries and pools only index tuples (collapse.hpp).
  /// Verdicts and state/transition counts are unchanged; pool bytes shrink.
  CompressionMode compress = CompressionMode::Off;
  /// Hash-compaction storage tier: one 64-bit fingerprint per state
  /// instead of (collapsed) bytes — ~11 B/state against ~60 raw. States
  /// whose fingerprints collide dedupe, so Ok runs carry
  /// CheckResult::omission_probability; violation verdicts stay exact
  /// (traces re-concretize by replaying real transitions). Makes
  /// `compress` moot — noted in CheckResult::note when both are set.
  bool hash_compact = false;
  /// Fingerprint override for hash compaction (tests stub deterministic
  /// collisions); null uses the engine's hash.
  FingerprintFn fingerprint = nullptr;
  /// Chunked pools (state/tuple/dictionary storage) allocate past
  /// spill.ram_watermark — or whenever RAM refuses — from mmap-backed
  /// files in the SpillArena instead of the heap. Default: no arena, RAM
  /// only. The random-access tables stay in RAM either way.
  SpillPolicy spill;
  /// Disk-backed visited tier (--external DIR): fingerprints live in
  /// partitioned run files behind a RAM cache front, and membership
  /// resolves by sorted-run delayed duplicate detection — the visited
  /// TABLE leaves RAM, which spill alone cannot do. Subsumes
  /// hash_compact (same fingerprint representation and omission bound)
  /// and makes compress moot; both are noted, not errors. POR downgrades
  /// to Off: the ample proviso needs immediate revisit answers, which
  /// deferred membership cannot give.
  ExternalPolicy external;
};

namespace detail {

template <class Sys>
std::vector<std::byte> encode_state(const Sys& sys,
                                    const typename Sys::State& s) {
  ByteSink sink;
  sys.encode(s, sink);
  return sink.take();
}

/// Does the system offer the LabelMode-aware successor overload? Systems
/// without it (custom test harnesses) always pay for full labels.
template <class Sys>
concept HasLabelMode = requires(const Sys& sys, const typename Sys::State& s) {
  { sys.successors(s, sem::LabelMode::Quiet) };
};

/// Does the system refill a caller-owned edge buffer (sem/edges.hpp)?
/// Systems without it (sem::RendezvousSystem, custom test harnesses) return
/// vectors, which the engines move into their buffer.
template <class Sys>
concept HasEdgeBuffer = requires(const Sys& sys, const typename Sys::State& s,
                                 sem::EdgeBuffer<typename Sys::State>& out) {
  { sys.successors(s, sem::LabelMode::Quiet, out) };
};

/// Does the system decode into an existing state, keeping its capacity?
template <class Sys>
concept HasDecodeInto = requires(const Sys& sys, ByteSource& src,
                                 typename Sys::State& out) {
  { sys.decode(src, out) };
};

/// Does the system offer orbit canonicalization? Systems without it run
/// with SymmetryMode::Canonical as a no-op.
template <class Sys>
concept HasCanonicalize = requires(const Sys& sys, typename Sys::State& s) {
  { sys.canonicalize(s) };
};

/// Does the system expose ample-candidate structure for partial-order
/// reduction? Systems without it (rendezvous semantics, custom harnesses)
/// run with PorMode::Ample as a no-op.
template <class Sys>
concept HasPor = requires(const Sys& sys, const typename Sys::State& s) {
  { sys.successors_por(s, sem::LabelMode::Quiet) };
};

/// Does the system also refill the caller's buffers in successors_por?
template <class Sys>
concept HasPorBuffer =
    HasEdgeBuffer<Sys> &&
    requires(const Sys& sys, const typename Sys::State& s,
             sem::EdgeBuffer<typename Sys::State>& all,
             std::vector<sem::PorCandidate>& candidates) {
      { sys.successors_por(s, sem::LabelMode::Quiet, all, candidates) };
    };

/// The chosen ample set as edge indices into the full enumeration: the
/// down-head delivery plus the [local_begin, local_end) local range.
struct AmpleEdges {
  std::size_t delivery, local_begin, local_end;
  [[nodiscard]] bool contains(std::size_t e) const {
    return e == delivery || (e >= local_begin && e < local_end);
  }
};

/// Select the ample candidate to expand: invisible to the observer mask
/// (bit i set = remote i's moves can change an observed predicate) and a
/// strict subset of the enabled edges (expanding everything through a
/// candidate that IS everything gains nothing and would double-process
/// edges). Smallest edge count first, lowest process id on ties, so the
/// sequential and parallel engines make the same deterministic choice.
/// Returns nullopt when no candidate qualifies: fall back to full expansion.
template <class Candidates>
std::optional<AmpleEdges> pick_ample(const Candidates& candidates,
                                     std::size_t n_edges,
                                     std::uint64_t visible) {
  const typename Candidates::value_type* best = nullptr;
  std::size_t best_edges = 0;
  for (const auto& c : candidates) {
    if (c.process >= 0 && c.process < 64 && ((visible >> c.process) & 1))
      continue;
    std::size_t edges = 1 + (c.local_end - c.local_begin);
    if (edges >= n_edges) continue;
    if (!best || edges < best_edges ||
        (edges == best_edges && c.process < best->process)) {
      best = &c;
      best_edges = edges;
    }
  }
  if (!best) return std::nullopt;
  return AmpleEdges{best->delivery, best->local_begin, best->local_end};
}

/// Ample-set expansion, the one copy every engine runs: the candidate's
/// delivery, then its local range, then — when there is no candidate, or
/// `revisit` turned true while expanding it (the C3 proviso, see
/// bfs_reach) — every other edge. `step(e)` expands edge e of the full
/// enumeration and returns false to stop; expand_ample then returns false.
template <class Step>
bool expand_ample(std::size_t n_edges, const std::optional<AmpleEdges>& amp,
                  const bool& revisit, Step&& step) {
  if (amp) {
    if (!step(amp->delivery)) return false;
    for (std::size_t e = amp->local_begin; e < amp->local_end; ++e)
      if (!step(e)) return false;
    if (!revisit) return true;  // proviso clear: postpone the rest
  }
  for (std::size_t e = 0; e < n_edges; ++e)
    if (!(amp && amp->contains(e)) && !step(e)) return false;
  return true;
}

/// Canonicalize `s` in place when the mode asks for it and the system
/// supports it; otherwise leave the concrete state untouched.
template <class Sys>
void maybe_canonicalize(const Sys& sys, typename Sys::State& s,
                        SymmetryMode mode) {
  if constexpr (HasCanonicalize<Sys>) {
    if (mode == SymmetryMode::Canonical) sys.canonicalize(s);
  } else {
    (void)sys;
    (void)s;
    (void)mode;
  }
}

/// One engine thread's reused expansion scratch: the state being expanded
/// (decoded in place) and its recycled edge buffer. The views handed out
/// are valid until the next expansion (DESIGN.md §4.11). Each engine owns
/// one per search thread.
template <class Sys>
struct Expansion {
  explicit Expansion(const Sys& sys) : state(sys.initial()) {}

  typename Sys::State state;
  sem::EdgeBuffer<typename Sys::State> edges;
  std::vector<sem::PorCandidate> candidates;
  std::optional<AmpleEdges> amp;  // ample set to expand first, if any
};

/// Decode `src` into `x.state`, in place when the system supports it.
template <class Sys>
void decode_into(const Sys& sys, ByteSource& src, Expansion<Sys>& x) {
  if constexpr (HasDecodeInto<Sys>) {
    sys.decode(src, x.state);
  } else {
    x.state = sys.decode(src);
  }
}

/// Fill `x.edges` with the full successor enumeration of `x.state`,
/// skipping Label::text when the system supports it and `mode` is Quiet.
/// Under PorMode::Ample on a system with successors_por, `x.amp` also
/// receives the ample set to expand first (empty otherwise: expand
/// everything). Returns the live edges.
template <class Sys>
std::span<std::pair<typename Sys::State, sem::Label>> successors_with_ample(
    const Sys& sys, Expansion<Sys>& x, sem::LabelMode mode, PorMode por,
    std::uint64_t visible) {
  x.amp.reset();
  if constexpr (HasPorBuffer<Sys>) {
    if (por == PorMode::Ample) {
      sys.successors_por(x.state, mode, x.edges, x.candidates);
      x.amp = pick_ample(x.candidates, x.edges.size(), visible);
      return x.edges.view();
    }
  } else if constexpr (HasPor<Sys>) {
    if (por == PorMode::Ample) {
      auto ps = sys.successors_por(x.state, mode);
      x.amp = pick_ample(ps.candidates, ps.all.size(), visible);
      x.edges.assign(std::move(ps.all));
      return x.edges.view();
    }
  }
  if constexpr (HasEdgeBuffer<Sys>) {
    sys.successors(x.state, mode, x.edges);
  } else if constexpr (HasLabelMode<Sys>) {
    x.edges.assign(sys.successors(x.state, mode));
  } else {
    x.edges.assign(sys.successors(x.state));
  }
  return x.edges.view();
}

/// Per-step match for stored encodings: size, then hash, then bytes — so
/// replaying a chain is linear in the encoded bytes enumerated.
inline auto same_encoding(std::span<const std::byte> child) {
  return [child, hash = hash_bytes(child)](std::span<const std::byte> enc) {
    return enc.size() == child.size() && hash_bytes(enc) == hash &&
           std::equal(enc.begin(), enc.end(), child.begin());
  };
}

/// One step of trace replay: find the successor of `cur` whose (canonical)
/// encoding satisfies `match`, append its label + description to `labels`,
/// and advance `cur` to that *concrete* successor. Under symmetry the
/// stored child is only an orbit representative; matching the canonical
/// encoding while carrying the concrete successor forward re-concretizes
/// the trace into a real path of the uncanonicalized transition relation
/// (the orbit re-search scheme — no per-step permutations are stored).
template <class Sys, class Match>
void append_step_label(const Sys& sys, typename Sys::State& cur,
                       const Match& match, SymmetryMode symmetry,
                       ByteSink& sink, std::vector<std::string>& labels) {
  for (auto& [succ, label] : sys.successors(cur)) {
    auto rep = succ;
    maybe_canonicalize(sys, rep, symmetry);
    sink.clear();
    sys.encode(rep, sink);
    if (!match(sink.bytes())) continue;
    labels.push_back(label.text + "  =>  " + sys.describe(succ));
    cur = std::move(succ);
    return;
  }
  labels.push_back("<trace reconstruction failed>");
}

/// Replay a root-first chain of stored states into trace labels (labels
/// are not stored during exploration to keep the visited set lean). The
/// one replay both engines' chain collectors feed. Byte tiers start from
/// the stored root and match each stored encoding (`bytes_of` may return
/// a scratch span; each is used before the next call). Fingerprinted tiers
/// kept no bytes: replay starts at the concrete initial state and matches
/// fingerprints. Every step is still a real transition enumerated from a
/// concrete state, so the trace is a genuine path; the fingerprints only
/// SELECT among the real successors. (A mid-chain collision could select a
/// different genuine successor; the violation itself was established on
/// the concrete state at exploration time, so the endpoint is never
/// fabricated.)
template <class Sys, class Link, class BytesOf, class FingerprintOf>
std::vector<std::string> replay_chain(const Sys& sys,
                                      const std::vector<Link>& chain,
                                      const StoragePlan& plan,
                                      BytesOf&& bytes_of,
                                      FingerprintOf&& fingerprint_of,
                                      SymmetryMode symmetry) {
  auto cur = [&] {
    if (plan.fingerprinted) return sys.initial();
    ByteSource root(bytes_of(chain.front()));
    return sys.decode(root);
  }();
  std::vector<std::string> labels{"initial: " + sys.describe(cur)};
  ByteSink sink;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (plan.fingerprinted) {
      const std::uint64_t want = fingerprint_of(chain[i]);
      const FingerprintFn fp = plan.storage.fingerprint;
      append_step_label(
          sys, cur,
          [&](std::span<const std::byte> enc) { return fp(enc) == want; },
          symmetry, sink, labels);
    } else {
      append_step_label(sys, cur, same_encoding(bytes_of(chain[i])),
                        symmetry, sink, labels);
    }
  }
  return labels;
}

/// Sequential chain collector: the BFS ancestry of `target`, root first.
/// Parents come from the engine's vector (root marker 0xffffffff), or from
/// the on-disk order log under the external tier, whose inserts answer
/// Deferred so the vector was never fed (its kNoParentIndex truncates to
/// the same root marker).
template <class Sys>
std::vector<std::string> rebuild_trace(const Sys& sys,
                                       const CollapsedStateSet& seen,
                                       const std::vector<std::uint32_t>& parent,
                                       std::uint32_t target,
                                       const StoragePlan& plan,
                                       SymmetryMode symmetry) {
  std::vector<std::uint32_t> chain;
  for (std::uint32_t at = target; at != 0xffffffffu;
       at = seen.external() ? static_cast<std::uint32_t>(seen.parent_at(at))
                            : parent[at])
    chain.push_back(at);
  std::reverse(chain.begin(), chain.end());
  return replay_chain(
      sys, chain, plan, [&](std::uint32_t i) { return seen.at(i); },
      [&](std::uint32_t i) { return seen.fingerprint_at(i); }, symmetry);
}

/// Copy a visited set's final statistics into `result` (either set type).
template <class Set>
void record_storage(CheckResult& result, const Set& seen,
                    const StoragePlan& plan) {
  result.states = seen.size();
  result.memory_bytes = seen.memory_used();
  result.pool_bytes = seen.stored_bytes();
  result.raw_pool_bytes = seen.raw_bytes();
  result.spill_bytes = seen.spill_bytes();
  result.waste_bytes = seen.waste_bytes();
  result.external_bytes = seen.external_bytes();
  result.merge_passes = seen.merge_passes();
  if (plan.fingerprinted)
    result.omission_probability = omission_bound(seen.size());
}

/// How a bfs_reach() run ended.
enum class BfsOutcome : std::uint8_t {
  Complete,   // every reachable state expanded
  Exhausted,  // the visited set's memory budget refused an insert
  Stopped,    // a callback returned false (violation found, etc.)
};

/// Breadth-first reachability skeleton shared by explore() and
/// check_progress(): root insertion, cursor-queue decode, and the
/// canonicalize/encode/insert path for every successor live here exactly
/// once. Policy hangs off three callbacks, each returning false to stop:
///
///   on_expand(index, state, succs)            before a state's edges
///                                             (succs is always the FULL
///                                             enumeration, even under POR,
///                                             so deadlock detection stays
///                                             exact; a view valid until
///                                             the next expansion)
///   on_edge(from, state, succ, label)         per edge, on the *concrete*
///                                             successor (pre-canonicalize;
///                                             edge checks need this)
///   on_insert(from, insert_result, succ, label)
///                                             after the insert attempt;
///                                             succ is canonicalized here
///
/// Under PorMode::Ample (systems with successors_por only) each state first
/// expands one ample candidate's edges; the rest are expanded too when any
/// ample successor was already visited — the BFS cycle proviso (C3): every
/// cycle of the reduced graph has a member whose first insertion precedes a
/// cycle edge into it, so that edge observes AlreadyPresent and its source
/// is fully expanded — no transition is ignored forever. `por_visible` masks
/// remotes whose moves an observer can see (LTL atoms); their candidates are
/// never selected (C2).
template <class Sys, class OnExpand, class OnEdge, class OnInsert>
BfsOutcome bfs_reach(const Sys& sys, CollapsedStateSet& seen,
                     SymmetryMode symmetry, sem::LabelMode mode, PorMode por,
                     std::uint64_t por_visible, OnExpand&& on_expand,
                     OnEdge&& on_edge, OnInsert&& on_insert) {
  ComponentSink sink;  // reused across every encode below
  Expansion<Sys> x(sys);
  {
    auto root = sys.initial();
    maybe_canonicalize(sys, root, symmetry);
    sys.encode(root, sink);
    auto ins = seen.insert(sink.bytes(), sink.marks());
    if (ins.outcome == StateSet::Outcome::Exhausted)
      return BfsOutcome::Exhausted;
    if (ins.outcome == StateSet::Outcome::Deferred) {
      // External tier: the root is pending in a partition file; one
      // resolve admits it (it cannot be a duplicate of anything).
      if (seen.resolve_pending() == ResolveOutcome::Failed)
        return BfsOutcome::Exhausted;
      CCREF_ASSERT(seen.size() == 1);
    } else {
      CCREF_ASSERT(ins.outcome == StateSet::Outcome::Inserted);
    }
  }
  for (std::uint32_t cursor = 0;; ++cursor) {
    if (cursor >= seen.size()) {
      // Deferred-frontier phase (external tier): the in-order frontier is
      // spent, but partitions may hold pending fingerprints below their
      // watermarks. Merge them all; genuinely-new states extend the
      // frontier and the sweep continues. RAM tiers answer Drained
      // immediately — this branch is their loop exit, same cost as the
      // old `cursor < seen.size()` condition.
      const ResolveOutcome rr = seen.resolve_pending();
      if (rr == ResolveOutcome::Failed) return BfsOutcome::Exhausted;
      if (rr == ResolveOutcome::Drained) break;
    }
    ByteSource src(seen.at(cursor));
    decode_into(sys, src, x);
    const auto& state = x.state;

    bool revisit = false;
    auto step = [&](auto& succ, sem::Label& label) {
      if (!on_edge(cursor, state, succ, label)) return BfsOutcome::Stopped;
      maybe_canonicalize(sys, succ, symmetry);
      sink.clear();
      sys.encode(succ, sink);
      auto ins = seen.insert(sink.bytes(), sink.marks());
      if (ins.outcome == StateSet::Outcome::Exhausted)
        return BfsOutcome::Exhausted;
      // A Deferred successor may yet prove fresh, so the C3 proviso must
      // assume a revisit — sound (at worst a full expansion), and the
      // checkers downgrade POR under the external tier anyway.
      if (ins.outcome == StateSet::Outcome::AlreadyPresent ||
          ins.outcome == StateSet::Outcome::Deferred)
        revisit = true;
      if (!on_insert(cursor, ins, succ, label)) return BfsOutcome::Stopped;
      return BfsOutcome::Complete;  // keep going
    };

    const auto succs = successors_with_ample(sys, x, mode, por, por_visible);
    if (!on_expand(cursor, state, succs)) return BfsOutcome::Stopped;
    auto r = BfsOutcome::Complete;
    expand_ample(succs.size(), x.amp, revisit, [&](std::size_t e) {
      r = step(succs[e].first, succs[e].second);
      return r == BfsOutcome::Complete;
    });
    if (r != BfsOutcome::Complete) return r;
  }
  return BfsOutcome::Complete;
}

}  // namespace detail

template <class Sys>
[[nodiscard]] CheckResult explore(const Sys& sys,
                                  const CheckOptions<Sys>& opts = {}) {
  auto t0 = std::chrono::steady_clock::now();
  const StoragePlan plan = resolve(opts);
  const bool external = opts.external.enabled();
  CheckResult result;
  result.note = plan.note;
  CollapsedStateSet seen(opts.memory_limit, plan.storage);
  std::vector<std::uint32_t> parent;

  auto finish = [&](Status status) {
    result.status = status;
    detail::record_storage(result, seen, plan);
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  auto fail_at = [&](Status status, std::uint32_t index, std::string msg) {
    result.violation = std::move(msg);
    if (opts.want_trace)
      result.trace = detail::rebuild_trace(sys, seen, parent, index, plan,
                                           opts.symmetry);
    return finish(status);
  };

  // Labels feed nothing on the hot path unless an edge check reads them;
  // traces are rebuilt (with full labels) only after a violation.
  const sem::LabelMode mode =
      opts.edge_check ? sem::LabelMode::Full : sem::LabelMode::Quiet;

  // Violation details are captured here by the callbacks; the matching
  // fail_at() runs once bfs_reach returns Stopped.
  Status stop_status = Status::Ok;
  std::uint32_t stop_index = 0;
  std::string stop_msg;
  auto stop = [&](Status status, std::uint32_t index, std::string msg) {
    stop_status = status;
    stop_index = index;
    stop_msg = std::move(msg);
    return false;
  };
  parent.push_back(0xffffffffu);  // the root bfs_reach is about to insert

  auto outcome = detail::bfs_reach(
      sys, seen, opts.symmetry, mode, plan.por, /*por_visible=*/0,
      [&](std::uint32_t index, const auto& state, const auto& succs) {
        // RAM tiers check invariants on fresh successors at insertion (and
        // the root here); the external tier never materializes a fresh
        // successor at insert time — states surface at merge resolution —
        // so every state is checked when it is expanded instead. Same
        // coverage: each admitted state is expanded exactly once.
        if ((index == 0 || external) && opts.invariant) {
          std::string msg = opts.invariant(state);
          if (!msg.empty())
            return stop(Status::InvariantViolated, index, msg);
        }
        if (succs.empty() && opts.detect_deadlock)
          return stop(Status::Deadlock, index,
                      "deadlock: no enabled transition in " +
                          sys.describe(state));
        return true;
      },
      [&](std::uint32_t from, const auto& state, const auto& succ,
          const sem::Label& label) {
        ++result.transitions;
        if (opts.edge_check) {
          std::string msg = opts.edge_check(state, succ, label);
          if (!msg.empty())
            return stop(Status::InvariantViolated, from,
                        "edge '" + label.text + "': " + msg);
        }
        return true;
      },
      [&](std::uint32_t from, const StateSet::InsertResult& ins,
          const auto& succ, const sem::Label&) {
        if (ins.outcome != StateSet::Outcome::Inserted) return true;
        parent.push_back(from);
        if (opts.invariant) {
          std::string msg = opts.invariant(succ);
          if (!msg.empty())
            return stop(Status::InvariantViolated, ins.index, msg);
        }
        return true;
      });

  switch (outcome) {
    case detail::BfsOutcome::Exhausted: return finish(Status::Unfinished);
    case detail::BfsOutcome::Stopped:
      return fail_at(stop_status, stop_index, std::move(stop_msg));
    case detail::BfsOutcome::Complete: break;
  }
  return finish(Status::Ok);
}

}  // namespace ccref::verify
