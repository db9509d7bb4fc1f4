// Parallel explicit-state reachability engine — lock-free on every hot
// path.
//
// Same contract as verify::explore (checker.hpp), executed by one
// std::jthread per job over a lock-free ShardedStateSet: each worker owns
// a Chase–Lev work-stealing deque (owner push/pop lock-free, steal by CAS)
// and steals from siblings when its own runs dry. Visited-set inserts are
// claim-by-CAS / publish-with-release (no shard mutexes), and under
// --compress the COLLAPSE dictionary hit path is a lock-free probe. For
// a run that completes with Status::Ok the reported state and transition
// counts are IDENTICAL to the sequential engine's — every reachable
// state is expanded exactly once, and the edge total is
// order-independent. What parallel exploration gives up is the
// breadth-first frontier: counterexample traces are valid paths but may
// be longer than the minimal ones the sequential BFS guarantees, and
// violations/deadlocks may be detected at a different (equally real)
// state. Memory exhaustion still yields Status::Unfinished against the
// same single budget, though the exact state count at exhaustion depends
// on scheduling.
//
// Under `--external` the visited set is per-shard delayed duplicate
// detection on disk (sharded_state_set.hpp): inserts answer Deferred,
// ripe merges run inline on whichever worker trips a shard's watermark
// (overlapping merges with exploration), and when the frontier goes
// quiescent with fingerprints still pending, one worker drains every
// shard under a mutex that also serializes worker exits — quiescence is
// only believed when in_flight == 0 AND nothing is pending, both
// observed under that lock.
//
// Termination detection (proof sketch in DESIGN.md §4.6): `in_flight`
// counts states inserted but not yet fully expanded. It is incremented
// BEFORE the item becomes stealable and decremented only AFTER its
// expansion pushed (and pre-counted) every fresh successor, so
// in_flight >= (queued items) + (items being expanded) at all times, and
// once it reads 0 no item exists anywhere and none can reappear — an
// idle worker that observes 0 can exit without a barrier. Idle workers
// spin with bounded exponential backoff (pause then yield); there is no
// sleep/poll loop, so quiescence is detected within a scheduling quantum.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/block_pool.hpp"
#include "support/spin.hpp"
#include "support/work_steal_deque.hpp"
#include "verify/checker.hpp"
#include "verify/sharded_state_set.hpp"

namespace ccref::verify {

namespace detail {

/// Sharded chain collector: the ancestry of `target` through the packed
/// parent Refs recorded at insertion (or the per-shard order logs under
/// the external tier), root first, fed to the same replay as the
/// sequential engine.
template <class Sys>
std::vector<std::string> rebuild_trace(const Sys& sys,
                                       const ShardedStateSet& seen,
                                       ShardedStateSet::Ref target,
                                       const StoragePlan& plan,
                                       SymmetryMode symmetry) {
  std::vector<ShardedStateSet::Ref> chain;
  for (std::uint64_t at = ShardedStateSet::pack(target);
       at != ShardedStateSet::kNoParent; at = seen.parent_of(chain.back()))
    chain.push_back(ShardedStateSet::unpack(at));
  std::reverse(chain.begin(), chain.end());
  return replay_chain(
      sys, chain, plan, [&](ShardedStateSet::Ref r) { return seen.at(r); },
      [&](ShardedStateSet::Ref r) { return seen.hash_of(r); }, symmetry);
}

}  // namespace detail

/// Parallel counterpart of verify::explore. `jobs` == 0 means one worker
/// per hardware thread. The visited set gets one shard per worker — shards
/// are a striping detail of the lock-free table (they spread resize epochs
/// and allocation counters), not a lock domain. Agrees with the sequential
/// engine on status always, and on state/transition counts whenever the
/// status is Ok.
template <class Sys>
[[nodiscard]] CheckResult par_explore(const Sys& sys,
                                      const CheckOptions<Sys>& opts = {},
                                      unsigned jobs = 0) {
  auto t0 = std::chrono::steady_clock::now();
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());

  CheckResult result;
  const sem::LabelMode mode =
      opts.edge_check ? sem::LabelMode::Full : sem::LabelMode::Quiet;

  const StoragePlan plan = resolve(opts);
  const bool external = opts.external.enabled();
  const PorMode por = plan.por;
  result.note = plan.note;
  ShardedStateSet seen(opts.memory_limit, jobs,
                       /*track_parents=*/opts.want_trace, plan.storage);

  // A frontier item carries its own copy of the encoded state (header:
  // the state's Ref): under Collapse, reading a state back out of the set
  // is not concurrent-safe (and in Off mode the copy costs less than the
  // cache traffic of re-reading a remote shard's pool). Expanded items are
  // recycled, so a warm worker allocates only at a new frontier peak.
  using Items = BlockPool<ShardedStateSet::Ref>;
  using Item = Items::Block;
  Items items;
  struct Worker {
    WorkStealDeque<Item*> frontier;
    Items::Cache spares;
    std::uint64_t transitions = 0;
    ComponentSink sink;  // reused for every encode this worker performs
  };
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(jobs);
  for (unsigned i = 0; i < jobs; ++i)
    workers.push_back(std::make_unique<Worker>());

  // Termination detector: see the header comment. `stop` short-circuits
  // on the first violation / deadlock / memory exhaustion. Under the
  // external tier, `drain_mu` serializes full drains AND worker exits:
  // pending counts only move during expansions (in_flight > 0) or under
  // this mutex, so a worker that observes in_flight == 0 and pending == 0
  // while holding it has witnessed true quiescence and may retire.
  std::atomic<std::size_t> in_flight{0};
  std::atomic<bool> stop{false};
  std::mutex drain_mu;
  std::mutex fail_mu;  // cold: taken once, by the first failure
  bool failed = false;
  Status fail_status = Status::Ok;
  ShardedStateSet::Ref fail_ref{};
  std::string fail_msg;

  auto report = [&](Status st, ShardedStateSet::Ref ref, std::string msg) {
    {
      std::lock_guard<std::mutex> lock(fail_mu);
      if (!failed) {
        failed = true;
        fail_status = st;
        fail_ref = ref;
        fail_msg = std::move(msg);
      }
    }
    stop.store(true, std::memory_order_release);
  };

  {
    ComponentSink sink;
    auto root = sys.initial();
    detail::maybe_canonicalize(sys, root, opts.symmetry);
    sys.encode(root, sink);
    auto ins = seen.insert(sink.bytes(), sink.marks());
    bool ok = ins.outcome != StateSet::Outcome::Exhausted;
    if (!ok) {
      report(Status::Unfinished, {}, std::string());
    } else if (external) {
      // The root defers like any other state; drain immediately so the
      // search starts from its admitted (shard, order-log index) Ref.
      CCREF_ASSERT(ins.outcome == StateSet::Outcome::Deferred);
      std::vector<ShardedStateSet::FreshState> fresh;
      if (seen.resolve_external(/*only_ripe=*/false, fresh) ==
          ResolveOutcome::Failed) {
        report(Status::Unfinished, {}, std::string());
        ok = false;
      } else {
        CCREF_ASSERT(fresh.size() == 1);
        ins.ref = fresh[0].ref;
      }
    } else {
      CCREF_ASSERT(ins.outcome == StateSet::Outcome::Inserted);
    }
    if (ok) {
      std::string msg = opts.invariant ? opts.invariant(root) : std::string();
      if (!msg.empty()) {
        report(Status::InvariantViolated, ins.ref, std::move(msg));
      } else {
        in_flight.store(1, std::memory_order_relaxed);
        workers[0]->frontier.push(
            items.make(workers[0]->spares, ins.ref, sink.bytes()).release());
      }
    }
  }

  auto worker_fn = [&](unsigned id) {
    Worker& self = *workers[id];
    detail::Expansion<Sys> x(sys);
    SpinBackoff idle;
    // States admitted by external resolve passes (inline ripe merges in
    // insert, or full drains below) land here and become frontier items.
    std::vector<ShardedStateSet::FreshState> fresh;

    auto next_item = [&]() -> Item* {
      if (Item* it = self.frontier.pop()) return it;
      // Steal from the top of a sibling's deque (oldest work — under BFS
      // ordering the shallowest states, i.e. the biggest subtrees).
      for (unsigned k = 1; k < workers.size(); ++k)
        if (Item* it = workers[(id + k) % workers.size()]->frontier.steal())
          return it;
      return nullptr;
    };

    auto enqueue_fresh = [&]() {
      for (auto& f : fresh) {
        // Count BEFORE the item becomes stealable — the termination
        // detector's invariant depends on this order.
        in_flight.fetch_add(1, std::memory_order_release);
        self.frontier.push(items.make(self.spares, f.ref, f.bytes).release());
      }
      fresh.clear();
    };

    while (!stop.load(std::memory_order_acquire)) {
      Items::Ptr item(next_item());
      if (!item) {
        if (in_flight.load(std::memory_order_acquire) == 0) {
          if (!external) return;
          // External tier: quiescent for now, but deferred fingerprints
          // may still hide fresh states. Exits and drains are serialized
          // by drain_mu (see its comment); a worker that loses the
          // try_lock race just spins and re-observes.
          if (drain_mu.try_lock()) {
            if (in_flight.load(std::memory_order_acquire) == 0) {
              if (seen.external_pending() == 0) {
                drain_mu.unlock();
                return;
              }
              fresh.clear();
              if (seen.resolve_external(/*only_ripe=*/false, fresh) ==
                  ResolveOutcome::Failed)
                report(Status::Unfinished, {}, std::string());
              enqueue_fresh();
            }
            drain_mu.unlock();
          }
        }
        idle.pause();
        continue;
      }
      idle.reset();
      ByteSource src(item->bytes());
      detail::decode_into(sys, src, x);
      const auto& state = x.state;
      // External tier: inserts answer Deferred, so invariants cannot be
      // checked at insertion. Every admitted state is expanded exactly
      // once — check here instead (the root is also checked up front;
      // re-checking it is harmless).
      if (external && opts.invariant) {
        std::string msg = opts.invariant(state);
        if (!msg.empty()) {
          report(Status::InvariantViolated, item->header, std::move(msg));
          return;
        }
      }

      bool revisit = false;  // some successor was already visited (C3)
      auto do_edge = [&](auto& succ, sem::Label& label) {
        ++self.transitions;
        if (opts.edge_check) {
          std::string msg = opts.edge_check(state, succ, label);
          if (!msg.empty()) {
            report(Status::InvariantViolated, item->header,
                   "edge '" + label.text + "': " + msg);
            return false;
          }
        }
        detail::maybe_canonicalize(sys, succ, opts.symmetry);
        self.sink.clear();
        sys.encode(succ, self.sink);
        auto ins = seen.insert(self.sink.bytes(), self.sink.marks(),
                               ShardedStateSet::pack(item->header),
                               external ? &fresh : nullptr);
        if (ins.outcome == StateSet::Outcome::Exhausted) {
          report(Status::Unfinished, {}, std::string());
          return false;
        }
        // Deferred is conservatively a revisit for C3 — moot here since
        // POR is downgraded under external, but kept for symmetry with
        // the sequential engine.
        if (ins.outcome == StateSet::Outcome::AlreadyPresent ||
            ins.outcome == StateSet::Outcome::Deferred)
          revisit = true;
        // A ripe inline merge inside insert() may have admitted a batch
        // of earlier-deferred states; they join this worker's frontier.
        if (!fresh.empty()) enqueue_fresh();
        if (ins.outcome == StateSet::Outcome::Inserted) {
          if (opts.invariant) {
            std::string msg = opts.invariant(succ);
            if (!msg.empty()) {
              report(Status::InvariantViolated, ins.ref, std::move(msg));
              return false;
            }
          }
          // Count BEFORE the item becomes stealable — the termination
          // detector's invariant depends on this order.
          in_flight.fetch_add(1, std::memory_order_release);
          self.frontier.push(
              items.make(self.spares, ins.ref, self.sink.bytes()).release());
        }
        return true;
      };

      const auto succs = detail::successors_with_ample(sys, x, mode, por,
                                                       /*visible=*/0);
      if (succs.empty() && opts.detect_deadlock) {
        report(Status::Deadlock, item->header,
               "deadlock: no enabled transition in " + sys.describe(state));
        return;
      }
      // Conservative C3 under parallelism: a racing insert of an ample
      // successor by another worker reads back AlreadyPresent here, so
      // races only cause extra full expansions, never a missed one.
      if (!detail::expand_ample(succs.size(), x.amp, revisit,
                                [&](std::size_t e) {
                                  return do_edge(succs[e].first,
                                                 succs[e].second);
                                }))
        return;
      items.recycle(self.spares, std::move(item));
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i) threads.emplace_back(worker_fn, i);
  }  // every worker joins here
  // Early-stop runs leave unexpanded items behind; workers are joined, so
  // draining via owner pops is safe from this thread.
  for (auto& w : workers)
    while (Item* leftover = w->frontier.pop()) Items::Free{}(leftover);

  result.status = failed ? fail_status : Status::Ok;
  detail::record_storage(result, seen, plan);
  for (const auto& w : workers) result.transitions += w->transitions;
  if (failed) {
    result.violation = std::move(fail_msg);
    if (opts.want_trace && fail_status != Status::Unfinished)
      result.trace =
          detail::rebuild_trace(sys, seen, fail_ref, plan, opts.symmetry);
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

/// The one engine dispatch every driver and test goes through: the
/// sequential breadth-first engine for jobs == 1, the parallel engine
/// otherwise (0: one worker per hardware thread).
template <class Sys>
[[nodiscard]] CheckResult check(const Sys& sys, const CheckOptions<Sys>& opts,
                                unsigned jobs) {
  return jobs == 1 ? explore(sys, opts) : par_explore(sys, opts, jobs);
}

}  // namespace ccref::verify
