// Lock-free concurrent visited-state set: K CAS-based shards drawing on
// one shared MemoryBudget.
//
// This keeps the multi-core-SPIN sharding geometry — a state's 64-bit
// hash picks the shard (high bits; each shard's open-addressing table
// uses the low bits, so the two choices stay independent) — but shards
// are now a STRIPING detail, not a lock domain: each shard is an
// AtomicByteTable whose insert-if-absent is a claim-by-CAS /
// publish-with-release protocol (support/atomic_table.hpp), so any
// number of threads insert into the same shard without serializing.
// Under CompressionMode::Collapse every shard stores the tuples of one
// shared ComponentCodec (collapse.hpp): one dictionary set for the whole
// run, exactly the one the sequential engine builds.
// More shards still help (they split the resize epochs and spread the
// allocation bump counters), which is why the parallel checker defaults
// them to the job count rather than jobs*8 mutex domains.
//
// Because symmetry reduction canonicalizes before hashing, all members
// of an orbit land in the same shard and dedupe there — the reduction
// needs no cross-shard coordination. A state's Ref is (shard, record
// offset): offsets are stable and never reused, so Refs are global
// identities; the parallel checker stores BFS parents inline in the
// record (no side arrays to lock) and reconstructs counterexample traces
// exactly like the sequential engine does.
//
// Concurrency contract:
//   * insert() may be called from any thread at any time.
//   * at() / parent_of() / stored_bytes() require quiescence (no
//     concurrent insert) — the checker only calls them after workers
//     stop. Under Collapse, at() expands into a scratch buffer: a
//     returned span is valid until the next at() call; callers that need
//     several states at once copy.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "support/spin.hpp"
#include "verify/collapse.hpp"
#include "verify/external_set.hpp"
#include "verify/state_set.hpp"

namespace ccref::verify {

class ShardedStateSet {
 public:
  using Outcome = StateSet::Outcome;

  /// Global identity of a stored state: shard plus record byte offset
  /// inside that shard's pool (stable, never reused; NOT dense).
  struct Ref {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;

    friend bool operator==(const Ref&, const Ref&) = default;
  };

  /// Packed Ref for parent links; kNoParent marks the root.
  static constexpr std::uint64_t kNoParent = ~0ull;
  [[nodiscard]] static constexpr std::uint64_t pack(Ref r) {
    return (static_cast<std::uint64_t>(r.shard) << 32) | r.index;
  }
  [[nodiscard]] static constexpr Ref unpack(std::uint64_t p) {
    return {static_cast<std::uint32_t>(p >> 32),
            static_cast<std::uint32_t>(p)};
  }

  struct InsertResult {
    Outcome outcome;
    Ref ref;  // valid unless Exhausted or Deferred
  };

  /// One state admitted by an external-tier resolve pass: its global Ref
  /// plus an owned copy of the encoded bytes, ready to become a frontier
  /// item. (External records live on disk; the engine never reads them
  /// back through at().)
  struct FreshState {
    Ref ref;
    std::vector<std::byte> bytes;
  };

  /// `shard_count` is rounded up to a power of two and clamped to
  /// [1, kMaxShards]. `track_parents` stores one packed Ref inline per
  /// record for trace reconstruction. Under CompressionMode::Collapse
  /// all shards share one ComponentCodec, so dictionary indices are
  /// global; shard choice still hashes the raw (canonical) encoding.
  /// All construction floors shrink until they fit a quarter of the
  /// budget, so even tiny limits leave headroom for actual states. The
  /// storage routing (hash compaction, spill policy, external tier) is
  /// threaded to every shard and to the codec.
  ShardedStateSet(std::size_t memory_limit_bytes, unsigned shard_count,
                  bool track_parents = false, const StorageOptions& st = {})
      : budget_(memory_limit_bytes),
        st_(st),
        fp_(st.fingerprint != nullptr ? st.fingerprint : &default_fingerprint),
        track_parents_(track_parents),
        codec_(budget_, st.spill) {
    unsigned n = 1;
    while (n < shard_count && n < kMaxShards) n <<= 1;
    shard_bits_ = 0;
    for (unsigned v = n; v > 1; v >>= 1) ++shard_bits_;

    if (st_.external.enabled()) {
      // External tier: each shard runs its own single-partition
      // ExternalVisitedSet behind a spinlock — the shard hash (high
      // fingerprint bits) already plays the partition role, so merges of
      // different shards proceed on different worker threads while the
      // rest of the pool keeps exploring. No CAS tables are built at all:
      // the whole budget is left to the caches, buffers and sort scratch
      // that configure() splits n ways.
      auto cfg = ExternalVisitedSet::configure(st_.external,
                                               memory_limit_bytes, n);
      cfg.partitions = 1;
      cfg.keep_order_log = st_.keep_fingerprints;
      ext_shards_.reserve(n);
      ext_ok_ = true;
      for (unsigned i = 0; i < n; ++i) {
        auto es = std::make_unique<ExtShard>(budget_, cfg);
        ext_ok_ = ext_ok_ && es->set.ok();
        ext_shards_.push_back(std::move(es));
      }
      return;
    }

    std::size_t slots = 1024;
    while (slots > 64 &&
           n * slots * sizeof(std::uint64_t) > memory_limit_bytes / 4)
      slots /= 2;
    std::size_t chunk0 = 4096;
    while (chunk0 > 1024 && n * chunk0 > memory_limit_bytes / 4) chunk0 /= 2;

    shards_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      shards_.push_back(std::make_unique<AtomicByteTable<MemoryBudget>>(
          budget_, slots, chunk0, track_parents, st_.spill));
  }

  /// Thread-safe lock-free insert; `parent` is recorded for fresh states
  /// when parent tracking is on (pass pack(ref) of the BFS predecessor,
  /// kNoParent for the root). `marks` carries the component boundaries
  /// of `state` (from a ComponentSink); ignored in Off mode. A duplicate
  /// insert never overwrites the recorded parent (only the claiming
  /// thread ever writes the record).
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::span<const ComponentMark> marks = {},
                                    std::uint64_t parent = kNoParent,
                                    std::vector<FreshState>* fresh = nullptr) {
    // Under hash compaction (and the external tier, which stores nothing
    // BUT fingerprints) the run's FingerprintFn doubles as the shard
    // hash: computed once, it picks the shard AND becomes the stored
    // fingerprint (shards use the high bits, tables the low bits).
    const std::uint64_t h = (st_.hash_compact || !ext_shards_.empty())
                                ? fp_(state)
                                : hash_bytes(state);
    const auto si = static_cast<std::uint32_t>(
        shard_bits_ == 0 ? 0 : h >> (64 - shard_bits_));
    if (!ext_shards_.empty())
      return insert_external(si, h, parent, state, fresh);
    AtomicByteTable<MemoryBudget>& table = *shards_[si];
    auto r = [&]() -> AtomicByteTable<MemoryBudget>::InsertResult {
      // Hash compaction: `h` IS the fingerprint, so an empty-payload
      // record gives exact fingerprint-set semantics (tag match, then the
      // stored full 64-bit hash, then empty==empty payload comparison).
      if (st_.hash_compact) return table.insert({}, h, parent);
      if (st_.compress == CompressionMode::Off)
        return table.insert(state, h, parent);
      static thread_local ByteSink tuple;
      tuple.clear();
      if (!codec_.compress(state, marks, tuple))
        return {Outcome::Exhausted, 0};
      return table.insert(tuple.bytes(), hash_bytes(tuple.bytes()), parent);
    }();
    if (r.outcome == Outcome::Inserted)
      raw_bytes_.fetch_add(state.size(), std::memory_order_relaxed);
    return {r.outcome, {si, r.ref}};
  }

  /// External tier only: run delayed duplicate detection across shards.
  /// `only_ripe` restricts the pass to shards past their watermark; the
  /// final drain passes false. Admitted states are appended to `fresh`
  /// for the caller to re-enqueue. Thread-safe (per-shard locks), but the
  /// drain protocol in par_explore serializes full drains.
  [[nodiscard]] ResolveOutcome resolve_external(bool only_ripe,
                                                std::vector<FreshState>& fresh) {
    CCREF_REQUIRE(!ext_shards_.empty());
    bool any = false;
    for (std::uint32_t si = 0; si < ext_shards_.size(); ++si) {
      ExtShard& es = *ext_shards_[si];
      std::lock_guard<SpinLock> lock(es.mu);
      switch (resolve_shard_locked(si, es, only_ripe, fresh)) {
        case ResolveOutcome::Fresh: any = true; break;
        case ResolveOutcome::Drained: break;
        case ResolveOutcome::Failed: return ResolveOutcome::Failed;
      }
    }
    return any ? ResolveOutcome::Fresh : ResolveOutcome::Drained;
  }

  /// External tier: states queued for delayed duplicate detection but not
  /// yet resolved. Exact whenever no insert is mid-flight (in_flight == 0
  /// in the parallel engine), which is the only point the termination
  /// detector reads it.
  [[nodiscard]] std::size_t external_pending() const {
    return ext_pending_.load(std::memory_order_acquire);
  }

  /// Quiescent-only: bytes held on disk by the external tier.
  [[nodiscard]] std::size_t external_bytes() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.disk_bytes();
    return total;
  }

  /// Quiescent-only: sorted-run merge passes across shards.
  [[nodiscard]] std::size_t merge_passes() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.merge_passes();
    return total;
  }

  /// Quiescent-only: bytes of a stored state. Not available under the
  /// external tier or hash compaction (no payload is kept in RAM; traces
  /// replay by fingerprint).
  [[nodiscard]] std::span<const std::byte> at(Ref r) const {
    CCREF_REQUIRE(ext_shards_.empty() && !st_.hash_compact);
    auto stored = shards_[r.shard]->at(r.index);
    if (st_.compress == CompressionMode::Off) return stored;
    codec_.expand(stored, scratch_);
    return scratch_;
  }

  /// Quiescent-only: BFS parent recorded at insertion (kNoParent for root).
  /// Under the external tier this reads the shard's order log.
  [[nodiscard]] std::uint64_t parent_of(Ref r) const {
    if (!ext_shards_.empty()) return ext_shards_[r.shard]->set.parent_at(r.index);
    CCREF_REQUIRE(track_parents_);
    return shards_[r.shard]->parent_at(r.index);
  }

  /// Total states across shards (exact whenever no insert is mid-flight).
  /// Under the external tier, pending (unresolved) entries are not counted.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& es : ext_shards_) total += es->set.size();
    for (const auto& sh : shards_) total += sh->size();
    return total;
  }

  [[nodiscard]] std::size_t memory_used() const { return budget_.used(); }
  [[nodiscard]] std::size_t memory_limit() const { return budget_.limit(); }
  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

  /// Quiescent-only: summed raw encoding bytes of all stored states.
  [[nodiscard]] std::size_t raw_bytes() const {
    return raw_bytes_.load(std::memory_order_relaxed);
  }

  /// Quiescent-only: bytes actually spent storing states — record
  /// payloads plus the complete dictionary footprint (mirrors
  /// CollapsedStateSet::stored_bytes). Hash-compact: the tables' full
  /// charge, since slots plus empty-payload records are exactly the
  /// fingerprint storage. Under the external tier this is the fixed RAM
  /// plan (caches + buffers + sort scratch) — the records themselves live
  /// on disk (external_bytes()).
  [[nodiscard]] std::size_t stored_bytes() const {
    std::size_t total = codec_.charged();
    for (const auto& es : ext_shards_) total += es->set.memory_used();
    for (const auto& sh : shards_)
      total += st_.hash_compact ? sh->charged() : sh->payload_bytes();
    return total;
  }

  /// Quiescent-only: bytes held in mmap-backed spill files (record pools
  /// plus dictionaries).
  [[nodiscard]] std::size_t spill_bytes() const {
    std::size_t total = codec_.spill_bytes();
    for (const auto& sh : shards_) total += sh->spill_bytes();
    return total;
  }

  /// Quiescent-only: chunk bytes held but never occupied by records.
  [[nodiscard]] std::size_t waste_bytes() const {
    std::size_t total = codec_.waste_bytes();
    for (const auto& sh : shards_) total += sh->waste_bytes();
    return total;
  }

  /// Stored hash of a record — the state's fingerprint under compaction
  /// and the external tier (read back from the shard's order log there).
  [[nodiscard]] std::uint64_t hash_of(Ref r) const {
    if (!ext_shards_.empty())
      return ext_shards_[r.shard]->set.fingerprint_at(r.index);
    return shards_[r.shard]->hash_at(r.index);
  }

 private:
  static constexpr unsigned kMaxShards = 256;

  /// One external shard: a single-partition delayed-duplicate-detection
  /// set behind a spinlock. The lock covers insert and resolve; both are
  /// short (an append, or one watermark-bounded merge) and the shard
  /// fan-out keeps contention low.
  struct ExtShard {
    SpinLock mu;
    ExternalVisitedSet set;
    ExtShard(MemoryBudget& b, const ExternalVisitedSet::Config& cfg)
        : set(b, cfg) {}
  };

  [[nodiscard]] InsertResult insert_external(std::uint32_t si, std::uint64_t fp,
                                             std::uint64_t parent,
                                             std::span<const std::byte> state,
                                             std::vector<FreshState>* fresh) {
    if (!ext_ok_) return {Outcome::Exhausted, {}};
    ExtShard& es = *ext_shards_[si];
    std::lock_guard<SpinLock> lock(es.mu);
    const Outcome out = es.set.insert(fp, parent, state);
    if (out == Outcome::Exhausted) return {out, {}};
    if (out == Outcome::Deferred) {
      ext_pending_.fetch_add(1, std::memory_order_release);
      // Ripe inline resolve: the inserting worker pays for this shard's
      // merge while the others keep exploring — partitions routed to
      // workers, merges overlapped with expansion.
      if (fresh != nullptr && es.set.needs_resolve() &&
          resolve_shard_locked(si, es, /*only_ripe=*/true, *fresh) ==
              ResolveOutcome::Failed)
        return {Outcome::Exhausted, {}};
    }
    return {out, {si, 0}};
  }

  /// Caller holds es.mu. Decrements ext_pending_ by what the merge
  /// consumed and appends admitted states to `fresh`.
  [[nodiscard]] ResolveOutcome resolve_shard_locked(
      std::uint32_t si, ExtShard& es, bool only_ripe,
      std::vector<FreshState>& fresh) {
    const std::size_t before = es.set.pending();
    const ResolveOutcome ro = es.set.resolve(
        only_ripe, [&](std::uint32_t index, std::uint64_t /*fp*/,
                       std::uint64_t /*parent*/,
                       std::span<const std::byte> bytes) {
          fresh.push_back({Ref{si, index},
                           std::vector<std::byte>(bytes.begin(), bytes.end())});
        });
    const std::size_t consumed = before - es.set.pending();
    if (consumed != 0)
      ext_pending_.fetch_sub(consumed, std::memory_order_release);
    if (ro == ResolveOutcome::Failed) ext_ok_ = false;
    return ro;
  }

  MemoryBudget budget_;
  StorageOptions st_;
  FingerprintFn fp_ = &default_fingerprint;
  unsigned shard_bits_ = 0;
  bool track_parents_;
  ComponentCodec codec_;  // Collapse: one dictionary set for all shards
  std::vector<std::unique_ptr<AtomicByteTable<MemoryBudget>>> shards_;
  std::atomic<std::size_t> raw_bytes_{0};
  mutable std::vector<std::byte> scratch_;  // at() expansion buffer
  std::vector<std::unique_ptr<ExtShard>> ext_shards_;  // external tier only
  std::atomic<std::size_t> ext_pending_{0};
  bool ext_ok_ = false;  // meaningful only when ext_shards_ is non-empty
};

}  // namespace ccref::verify
