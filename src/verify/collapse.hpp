// COLLAPSE-style state-vector compression (SPIN's -DCOLLAPSE, Holzmann
// 1997) — the answer to Table 3's "limited to 64MB of memory" wall.
//
// A global state of the star protocols is a tuple of near-independent
// components: the home machine, each of the n identical remote machines,
// and each per-remote FIFO channel. Across the reachable set these
// components repeat massively (the remotes are the *same* process, so at
// any time most of them sit in one of a handful of local configurations),
// which means the flat byte encodings the visited sets pool are dominated
// by repeated substrings. Under CompressionMode::Collapse each component is
// interned once in a per-class dictionary and the pooled "state" becomes the
// tuple of dictionary indices.
//
// Layout:
//   * State encoders (AsyncSystem/RendezvousSystem/liveness product) call
//     ByteSink::boundary(cls) after each component; a ComponentSink collects
//     the (offset, class) marks, a plain ByteSink ignores them.
//   * Dictionary classes group components that draw from the same value
//     space — all remote machines share one dictionary, all up channels
//     another — so n identical remotes saturate one small table instead of
//     n disjoint ones.
//   * ComponentCodec is the one implementation of the scheme: it slices at
//     the marks, interns into its ConcurrentDicts (lock-free hit path,
//     budget-charged on the same MemoryBudget as the tuple pool, so the
//     64 MB cap bounds pool + dictionaries + tables together) and
//     re-expands tuples. The sequential CollapsedStateSet owns one; the
//     parallel ShardedStateSet owns one for all of its shards.
//   * The pooled tuple is the concatenation of the per-component dictionary
//     indices in varint coding. Varint is canonical per value and a prefix
//     code, so for a fixed component structure (checked per insert) two
//     tuples are byte-equal iff every component index matches iff every
//     component's bytes match iff the raw encodings match: index-tuple
//     equality is exactly state equality, and dedupe/hashing work unchanged
//     on the compressed form. (SPIN stores fixed-width indices; varint keeps
//     the common all-dictionaries-small case 2-3x smaller still.)
//   * at() transparently re-expands the tuple through the dictionaries, so
//     decode/trace reconstruction see the original raw encoding. The
//     expansion lives in a scratch buffer: a returned span is valid only
//     until the next at() call — callers that need several states at once
//     (trace rebuilds) copy.
//
// CompressionMode::Off makes CollapsedStateSet a zero-cost passthrough to
// the inner StateSet — bit-identical behavior and accounting to the
// uncompressed engines.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "support/atomic_table.hpp"
#include "support/bytes.hpp"
#include "support/run_file.hpp"
#include "support/spill.hpp"
#include "support/spin.hpp"
#include "verify/external_set.hpp"
#include "verify/fingerprint_set.hpp"
#include "verify/state_set.hpp"

namespace ccref::verify {

enum class CompressionMode : std::uint8_t {
  Off,       // pool raw byte encodings (bit-identical to prior results)
  Collapse,  // intern components per class, pool varint index tuples
};

[[nodiscard]] constexpr const char* to_string(CompressionMode m) {
  switch (m) {
    case CompressionMode::Off: return "off";
    case CompressionMode::Collapse: return "collapse";
  }
  return "?";
}

/// Parse a `--compress` flag value; nullopt on anything unknown.
[[nodiscard]] inline std::optional<CompressionMode> parse_compression(
    std::string_view text) {
  if (text == "off") return CompressionMode::Off;
  if (text == "collapse") return CompressionMode::Collapse;
  return std::nullopt;
}

/// Fingerprint function for hash compaction. A plain function pointer so
/// tests can stub a colliding hash deterministically; null means the
/// engine's hash_bytes.
using FingerprintFn = std::uint64_t (*)(std::span<const std::byte>);

[[nodiscard]] inline std::uint64_t default_fingerprint(
    std::span<const std::byte> bytes) {
  return hash_bytes(bytes);
}

/// Storage-tier routing for a visited set, assembled by resolve()
/// (storage_plan.hpp) from CheckOptions and threaded to every
/// set/shard/dictionary: which compression tier stores states, whether
/// hash compaction replaces byte storage entirely, and where chunked pools
/// overflow once RAM runs out.
struct StorageOptions {
  CompressionMode compress = CompressionMode::Off;
  /// Store a 64-bit fingerprint per state instead of (collapsed) bytes.
  /// Under compaction `compress` is moot — there are no pooled bytes left
  /// to compress — and resolve() records a note when both are requested.
  bool hash_compact = false;
  FingerprintFn fingerprint = nullptr;  // null: default_fingerprint
  /// Keep the insertion-ordered fingerprint list (4+8 bytes/state extra)
  /// so counterexample traces can be re-concretized by fingerprint replay.
  /// Under the external tier this selects the on-disk order log instead.
  bool keep_fingerprints = false;
  SpillPolicy spill{};
  /// Disk-backed visited tier (external_set.hpp): fingerprints live in
  /// partitioned run files with a RAM cache front, membership resolves by
  /// sorted-run delayed duplicate detection. Subsumes hash_compact (same
  /// fingerprint representation, hence the same omission bound) and makes
  /// `compress` moot; resolve() notes both downgrades.
  ExternalPolicy external{};
};

/// Component structure registry of a ComponentCodec: slot k of every state
/// tuple must always carry the same dictionary class, or index-tuple
/// equality would stop mirroring state equality. First-seen classes are
/// published with CAS so every inserting thread (and expand()) agrees on
/// one structure.
class CollapseStructure {
 public:
  static constexpr std::size_t kMaxComponents = 512;

  CollapseStructure() {
    for (auto& c : cls_) c.store(-1, std::memory_order_relaxed);
  }

  /// Record (or verify) that tuple slot `slot` carries class `cls`.
  /// False on a structure mismatch — a caller bug, checked by REQUIRE.
  [[nodiscard]] bool check_or_set(std::size_t slot, std::uint8_t cls) {
    if (slot >= kMaxComponents) return false;
    auto want = static_cast<std::int16_t>(cls);
    std::int16_t cur = cls_[slot].load(std::memory_order_acquire);
    if (cur == want) return true;
    if (cur != -1) return false;
    std::int16_t expected = -1;
    if (cls_[slot].compare_exchange_strong(expected, want,
                                           std::memory_order_acq_rel))
      return true;
    return expected == want;
  }

  /// Record (or verify) the component count once a full tuple is sliced.
  [[nodiscard]] bool seal(std::size_t n) {
    auto want = static_cast<std::int32_t>(n);
    std::int32_t cur = count_.load(std::memory_order_acquire);
    if (cur == want) return true;
    if (cur != -1) return false;
    std::int32_t expected = -1;
    if (count_.compare_exchange_strong(expected, want,
                                       std::memory_order_acq_rel))
      return true;
    return expected == want;
  }

  [[nodiscard]] std::size_t count() const {
    auto c = count_.load(std::memory_order_acquire);
    return c < 0 ? 0 : static_cast<std::size_t>(c);
  }
  [[nodiscard]] std::uint8_t cls(std::size_t slot) const {
    return static_cast<std::uint8_t>(cls_[slot].load(std::memory_order_acquire));
  }

 private:
  std::array<std::atomic<std::int16_t>, kMaxComponents> cls_;
  std::atomic<std::int32_t> count_{-1};
};

/// One per-class intern dictionary: maps component bytes to a dense index
/// in first-seen order (dense because the varint tuple coding and the
/// compression-ratio arithmetic depend on small indices). Lookup is
/// lock-free: slot words pack [dense:32][offset+1:32] and are published
/// with release stores, so a prober either sees a complete entry or an
/// empty word. The miss path
/// takes the dictionary's spinlock, re-probes the CURRENT array (the
/// lock-free probe may have raced a publication or read a retired array),
/// and inserts. Slot arrays grow under the lock and are retired — not
/// freed — until destruction, because lock-free probers may still hold
/// them; a stale probe can only miss, never mis-resolve, and every miss
/// re-checks under the lock.
class ConcurrentDict {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kFloorBytes = 64 * sizeof(std::uint64_t);

  ConcurrentDict(MemoryBudget& budget, std::size_t chunk0, bool* alive,
                 SpillPolicy spill = {})
      : budget_(&budget), pool_(budget, chunk0, spill) {
    *alive = budget_->try_reserve(kInitialSlots * sizeof(std::uint64_t));
    if (*alive) {
      charged_.fetch_add(kInitialSlots * sizeof(std::uint64_t),
                         std::memory_order_relaxed);
      slots_.store(new Array(kInitialSlots), std::memory_order_relaxed);
    }
  }

  ConcurrentDict(const ConcurrentDict&) = delete;
  ConcurrentDict& operator=(const ConcurrentDict&) = delete;

  ~ConcurrentDict() { delete slots_.load(std::memory_order_relaxed); }

  /// Dense index of `bytes`, interning on first sight; kNone when the
  /// budget refuses the entry. `h` = hash_bytes(bytes).
  [[nodiscard]] std::uint32_t intern(std::span<const std::byte> bytes,
                                     std::uint64_t h) {
    Array* arr = slots_.load(std::memory_order_acquire);
    std::uint32_t dense = lookup(arr, bytes, h);
    if (dense != kNone) return dense;  // lock-free hit path

    std::lock_guard<SpinLock> guard(lock_);
    arr = slots_.load(std::memory_order_relaxed);
    dense = lookup(arr, bytes, h);
    if (dense != kNone) return dense;  // raced a publication

    // Keep ≤ 70% load so the lock-free probe stays short.
    if ((size_plain_ + 1) * 10 > arr->count * 7) {
      if (Array* bigger = grow(arr)) arr = bigger;
      // Growth refused: keep inserting into the old array up to a hard
      // 90% cap, past which we give up (probe termination guarantee).
      else if ((size_plain_ + 1) * 10 >= arr->count * 9)
        return kNone;
    }

    const std::uint32_t off = pool_.alloc(sizeof(std::uint32_t) + bytes.size());
    if (off == decltype(pool_)::kNpos) return kNone;
    std::byte* p = pool_.data(off);
    const auto len = static_cast<std::uint32_t>(bytes.size());
    std::memcpy(p, &len, sizeof(len));
    if (!bytes.empty())
      std::memcpy(p + sizeof(len), bytes.data(), bytes.size());

    dense = size_plain_;
    if (!map_set(dense, off)) return kNone;

    // Publish: find an empty slot in the CURRENT array and release-store
    // the complete word; lock-free probers see all of it or none of it.
    const std::uint64_t mask = arr->count - 1;
    std::size_t slot = h & mask;
    while (arr->word(slot).load(std::memory_order_relaxed) != 0)
      slot = (slot + 1) & mask;
    arr->word(slot).store((std::uint64_t{dense} << 32) | (std::uint64_t{off} + 1),
                          std::memory_order_release);
    ++size_plain_;
    return dense;
  }

  /// Quiescent-only: bytes of entry `dense` (ComponentCodec::expand).
  [[nodiscard]] std::span<const std::byte> at(std::uint32_t dense) const {
    CCREF_REQUIRE(dense < size_plain_);
    const std::size_t dir = map_dir(dense);
    const std::uint32_t off = map_[dir][dense - map_base(dir)];
    const std::byte* p = pool_.data(off);
    std::uint32_t len = 0;
    std::memcpy(&len, p, sizeof(len));
    return {p + sizeof(len), len};
  }

  /// Bytes charged to the budget (slot arrays incl. retired + pool + map).
  [[nodiscard]] std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed) + pool_.charged();
  }

  /// Component bytes held in mmap-backed spill files.
  [[nodiscard]] std::size_t spill_bytes() const { return pool_.spill_bytes(); }

  /// Pool bytes held but never occupied by an entry.
  [[nodiscard]] std::size_t waste_bytes() const { return pool_.bytes_waste(); }

 private:
  static constexpr std::size_t kInitialSlots =
      kFloorBytes / sizeof(std::uint64_t);
  // Dense->offset map in geometrically growing chunks (dir k holds
  // 64 << k entries), same shape as ChunkedBytePool: a 64-entry floor
  // keeps idle dictionaries cheap on tiny budgets while 26 dirs cover
  // the full 32-bit dense space.
  static constexpr std::size_t kMapChunk0Bits = 6;
  static constexpr std::size_t kMapDirs = 26;

  [[nodiscard]] static std::size_t map_dir(std::uint32_t dense) {
    return static_cast<std::size_t>(
        std::bit_width((std::uint64_t{dense} >> kMapChunk0Bits) + 1) - 1);
  }
  [[nodiscard]] static std::uint32_t map_base(std::size_t dir) {
    return static_cast<std::uint32_t>(((std::uint64_t{1} << dir) - 1)
                                      << kMapChunk0Bits);
  }
  [[nodiscard]] static std::size_t map_entries(std::size_t dir) {
    return std::size_t{1} << (kMapChunk0Bits + dir);
  }

  struct Array {
    explicit Array(std::size_t n)
        : count(n), words(new std::atomic<std::uint64_t>[n]()) {}
    std::size_t count;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    [[nodiscard]] std::atomic<std::uint64_t>& word(std::size_t i) {
      return words[i];
    }
  };

  [[nodiscard]] std::uint32_t lookup(Array* arr,
                                     std::span<const std::byte> bytes,
                                     std::uint64_t h) const {
    const std::uint64_t mask = arr->count - 1;
    std::size_t slot = h & mask;
    for (;;) {
      const std::uint64_t w = arr->word(slot).load(std::memory_order_acquire);
      if (w == 0) return kNone;
      const auto off = static_cast<std::uint32_t>((w & 0xffffffffu) - 1);
      const std::byte* p = pool_.data(off);
      std::uint32_t len = 0;
      std::memcpy(&len, p, sizeof(len));
      if (len == bytes.size() &&
          (bytes.empty() ||
           std::memcmp(p + sizeof(len), bytes.data(), len) == 0))
        return static_cast<std::uint32_t>(w >> 32);
      slot = (slot + 1) & mask;
    }
  }

  // Under lock_. nullptr when the budget refuses the bigger array.
  [[nodiscard]] Array* grow(Array* old) {
    const std::size_t fresh_count = old->count * 2;
    if (!budget_->try_reserve(fresh_count * sizeof(std::uint64_t)))
      return nullptr;
    charged_.fetch_add(fresh_count * sizeof(std::uint64_t),
                       std::memory_order_relaxed);
    auto* fresh = new Array(fresh_count);
    const std::uint64_t mask = fresh_count - 1;
    for (std::size_t i = 0; i < old->count; ++i) {
      const std::uint64_t w = old->word(i).load(std::memory_order_relaxed);
      if (w == 0) continue;
      const auto off = static_cast<std::uint32_t>((w & 0xffffffffu) - 1);
      const std::byte* p = pool_.data(off);
      std::uint32_t len = 0;
      std::memcpy(&len, p, sizeof(len));
      std::size_t slot =
          hash_bytes({p + sizeof(len), len}) & mask;
      while (fresh->word(slot).load(std::memory_order_relaxed) != 0)
        slot = (slot + 1) & mask;
      fresh->word(slot).store(w, std::memory_order_relaxed);
    }
    slots_.store(fresh, std::memory_order_release);
    // Lock-free probers may still hold `old`: retire it (and keep its
    // budget charge — the memory really is still held) until destruction.
    retired_.emplace_back(old);
    return fresh;
  }

  // Written only under lock_; chunk addresses never move, so quiescent
  // readers (at()) walk the map without coordination.
  [[nodiscard]] bool map_set(std::uint32_t dense, std::uint32_t off) {
    const std::size_t dir = map_dir(dense);
    if (dir >= kMapDirs) return false;
    if (!map_[dir]) {
      const std::size_t bytes = map_entries(dir) * sizeof(std::uint32_t);
      if (!budget_->try_reserve(bytes)) return false;
      charged_.fetch_add(bytes, std::memory_order_relaxed);
      map_[dir] = std::make_unique<std::uint32_t[]>(map_entries(dir));
    }
    map_[dir][dense - map_base(dir)] = off;
    return true;
  }

  MemoryBudget* budget_;
  ChunkedBytePool<MemoryBudget> pool_;
  SpinLock lock_;
  std::atomic<Array*> slots_{nullptr};
  std::vector<std::unique_ptr<Array>> retired_;  // mutated under lock_
  std::array<std::unique_ptr<std::uint32_t[]>, kMapDirs> map_{};
  std::uint32_t size_plain_ = 0;  // under lock_; at() reads it quiescent
  std::atomic<std::size_t> charged_{0};
};

/// COLLAPSE, written once: slice a state at its component marks, intern
/// each component in its class's dictionary, append the varint indices —
/// and re-expand such a tuple back into the raw encoding. Both engines use
/// it: the sequential CollapsedStateSet owns one, and ShardedStateSet owns
/// one for all of its shards, so indices are global and tuple equality is
/// state equality whichever shard stores the tuple.
///
/// Concurrency contract: compress() from any thread (a dictionary hit is a
/// lock-free probe; only a first-seen component value takes its
/// dictionary's spinlock); expand() and the byte reports require
/// quiescence.
class ComponentCodec {
 public:
  ComponentCodec(MemoryBudget& budget, SpillPolicy spill)
      : budget_(&budget), spill_(spill) {
    for (auto& d : dicts_) d.store(nullptr, std::memory_order_relaxed);
  }

  ~ComponentCodec() {
    for (auto& d : dicts_) delete d.load(std::memory_order_relaxed);
  }

  ComponentCodec(const ComponentCodec&) = delete;
  ComponentCodec& operator=(const ComponentCodec&) = delete;

  /// Append the index tuple of `state` to `tuple`; false when the budget
  /// refuses a dictionary entry.
  [[nodiscard]] bool compress(std::span<const std::byte> state,
                              std::span<const ComponentMark> marks,
                              ByteSink& tuple) {
    // Slice into components: [previous end, mark.end) per mark, plus an
    // implicit trailing class-0 component for anything after the last mark
    // (systems without boundary emission collapse whole-state; still sound,
    // just ratio 1).
    std::size_t start = 0;
    std::size_t slot = 0;
    auto one = [&](std::size_t end, std::uint8_t cls) {
      CCREF_REQUIRE(cls < kMaxClasses && start <= end && end <= state.size());
      // The component structure (count and classes) must be a constant of
      // the system, never state-dependent: index-tuple equality only mirrors
      // state equality when slot k always draws from the same dictionary.
      CCREF_REQUIRE(structure_.check_or_set(slot, cls));
      ConcurrentDict* d = dict(cls);
      if (d == nullptr) return false;
      auto comp = state.subspan(start, end - start);
      const std::uint32_t dense = d->intern(comp, hash_bytes(comp));
      if (dense == ConcurrentDict::kNone) return false;
      // An interned component of a state whose insert later exhausts stays
      // in its dictionary — valid, likely reusable, fully charged.
      tuple.varint(dense);
      start = end;
      ++slot;
      return true;
    };
    for (const ComponentMark& m : marks)
      if (!one(m.end, m.cls)) return false;
    if (start < state.size() || slot == 0)
      if (!one(state.size(), 0)) return false;
    CCREF_REQUIRE(structure_.seal(slot));
    return true;
  }

  /// Quiescent-only: the raw encoding behind `tuple`, into `out`.
  void expand(std::span<const std::byte> tuple,
              std::vector<std::byte>& out) const {
    ByteSource src(tuple);
    out.clear();
    const std::size_t n = structure_.count();
    for (std::size_t i = 0; i < n; ++i) {
      const ConcurrentDict* d =
          dicts_[structure_.cls(i)].load(std::memory_order_acquire);
      CCREF_ASSERT(d != nullptr);
      auto comp = d->at(static_cast<std::uint32_t>(src.varint()));
      out.insert(out.end(), comp.begin(), comp.end());
    }
    CCREF_ASSERT(src.exhausted());
  }

  /// Bytes charged to the budget across every dictionary.
  [[nodiscard]] std::size_t charged() const {
    return sum(&ConcurrentDict::charged);
  }

  /// Dictionary bytes held in mmap-backed spill files.
  [[nodiscard]] std::size_t spill_bytes() const {
    return sum(&ConcurrentDict::spill_bytes);
  }

  /// Dictionary pool bytes held but never occupied by an entry.
  [[nodiscard]] std::size_t waste_bytes() const {
    return sum(&ConcurrentDict::waste_bytes);
  }

 private:
  // 16 classes cover every encoder (async uses 4, the liveness product one
  // more); dictionaries are created on first use.
  static constexpr std::size_t kMaxClasses = 16;
  // Dictionaries hold few distinct entries until a protocol is large;
  // 256-byte first pool chunks (on top of ConcurrentDict's 64-slot floor)
  // keep idle classes cheap on small budgets, since chunked pools charge
  // whole chunks.
  static constexpr std::size_t kChunk0 = 256;

  /// Dictionary for `cls`, created on first use (CAS install; the loser
  /// deletes its copy). nullptr when the budget refuses even the floor.
  [[nodiscard]] ConcurrentDict* dict(std::uint8_t cls) {
    auto& slot = dicts_[cls];
    if (ConcurrentDict* d = slot.load(std::memory_order_acquire)) return d;
    bool alive = false;
    auto* fresh = new ConcurrentDict(*budget_, kChunk0, &alive, spill_);
    if (!alive) {
      delete fresh;
      return nullptr;
    }
    ConcurrentDict* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return fresh;
    delete fresh;  // ~ConcurrentDict releases nothing; undo the floor charge
    budget_->release(ConcurrentDict::kFloorBytes);
    return expected;
  }

  [[nodiscard]] std::size_t sum(
      std::size_t (ConcurrentDict::*bytes)() const) const {
    std::size_t total = 0;
    for (const auto& d : dicts_)
      if (const auto* p = d.load(std::memory_order_acquire))
        total += (p->*bytes)();
    return total;
  }

  MemoryBudget* budget_;
  SpillPolicy spill_;
  CollapseStructure structure_;
  std::array<std::atomic<ConcurrentDict*>, kMaxClasses> dicts_;
};

class CollapsedStateSet {
 public:
  using Outcome = StateSet::Outcome;
  using InsertResult = StateSet::InsertResult;

  explicit CollapsedStateSet(std::size_t memory_limit_bytes,
                             const StorageOptions& st = {})
      : budget_(memory_limit_bytes),
        st_(st),
        mode_(st.compress),
        tuples_(budget_, table_bound(st) ? kIdleSlots : kTableSlots,
                st.spill),
        codec_(budget_, st.spill) {
    init_tiers();
  }

  CollapsedStateSet(const CollapsedStateSet&) = delete;
  CollapsedStateSet& operator=(const CollapsedStateSet&) = delete;

  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::span<const ComponentMark> marks = {}) {
    if (ext_) return insert_external(state);
    if (st_.hash_compact) return insert_compacted(state);
    if (mode_ == CompressionMode::Collapse) {
      tuple_.clear();
      if (!codec_.compress(state, marks, tuple_))
        return {Outcome::Exhausted, 0};
    }
    auto r = tuples_.insert(mode_ == CompressionMode::Off ? state
                                                          : tuple_.bytes());
    if (r.outcome == Outcome::Inserted) raw_bytes_ += state.size();
    return r;
  }

  /// Raw encoding of a stored state. Off: a stable span into the pool.
  /// Collapse: the tuple re-expanded through the dictionaries into a scratch
  /// buffer — valid only until the next at() call on this set. Hash-compact:
  /// only the BFS cursor's state is retrievable — the window holds fresh
  /// states between insertion and expansion, and at(cursor) consumes the
  /// front; anything older exists only as a fingerprint.
  [[nodiscard]] std::span<const std::byte> at(std::uint32_t index) const {
    if (ext_) {
      // Same consume-the-front discipline as the hash-compact window, but
      // the frontier lives on disk: resolve_external appended this state's
      // record to the frontier queue file, and the BFS reads it back
      // exactly once, in order. Reading also latches `index` as the BFS
      // parent for every successor deferred while expanding this state.
      CCREF_REQUIRE(index == window_head_);
      std::uint32_t len = 0;
      CCREF_REQUIRE(frontier_q_.pread_at(q_read_, &len, sizeof(len)));
      scratch_.resize(len);
      CCREF_REQUIRE(len == 0 ||
                    frontier_q_.pread_at(q_read_ + sizeof(len),
                                         scratch_.data(), len));
      q_read_ += sizeof(len) + len;
      ++window_head_;
      defer_parent_ = index;
      return scratch_;
    }
    if (st_.hash_compact) {
      CCREF_REQUIRE(index == window_head_ && !window_.empty());
      scratch_.assign(window_.front().begin(), window_.front().end());
      budget_.release(window_.front().size());
      window_charged_ -= window_.front().size();
      window_.pop_front();
      ++window_head_;
      return scratch_;
    }
    if (mode_ == CompressionMode::Off) return tuples_.at(index);
    codec_.expand(tuples_.at(index), scratch_);
    return scratch_;
  }

  /// Fingerprint of the index-th inserted state (hash-compact or external
  /// runs with keep_fingerprints — the trace-replay fallback).
  [[nodiscard]] std::uint64_t fingerprint_at(std::uint32_t index) const {
    CCREF_REQUIRE(st_.keep_fingerprints);
    if (ext_) return ext_->fingerprint_at(index);
    CCREF_REQUIRE(st_.hash_compact && index < fp_order_.size());
    return fp_order_[index];
  }

  /// External tier only: BFS parent index of a resolved state, from the
  /// on-disk order log (kNoParentIndex for the root). The engine-side
  /// parent vector cannot exist here — inserts answer Deferred, so the
  /// BFS never learns which of them were fresh.
  static constexpr std::uint64_t kNoParentIndex = ~0ull;
  [[nodiscard]] std::uint64_t parent_at(std::uint32_t index) const {
    CCREF_REQUIRE(ext_ != nullptr);
    return ext_->parent_at(index);
  }

  /// External tier: run delayed duplicate detection over every partition
  /// with pending fingerprints, appending genuinely-new states to the
  /// frontier. Drained for the RAM tiers (they never defer), so the BFS
  /// drain loop costs nothing when --external is off.
  [[nodiscard]] ResolveOutcome resolve_pending() {
    if (!ext_) return ResolveOutcome::Drained;
    return resolve_external(/*only_ripe=*/false);
  }

  [[nodiscard]] std::size_t size() const {
    if (ext_) return ext_->size();
    return st_.hash_compact ? fps_->size() : tuples_.size();
  }

  [[nodiscard]] std::size_t memory_used() const {
    std::size_t total = tuples_.memory_used() + codec_.charged();
    if (fps_) total += fps_->memory_used();
    if (ext_) total += ext_->memory_used();
    total += window_charged_ + fp_charged_;
    return total;
  }

  [[nodiscard]] std::size_t memory_limit() const { return budget_.limit(); }

  [[nodiscard]] MemoryBudget& budget() { return budget_; }

  [[nodiscard]] bool external() const { return ext_ != nullptr; }

  /// Disk bytes held by the external tier: pending + history runs, the
  /// order log, and the frontier queue. Zero for the RAM tiers.
  [[nodiscard]] std::size_t external_bytes() const {
    return ext_ ? ext_->disk_bytes() +
                      static_cast<std::size_t>(frontier_q_.bytes())
                : 0;
  }

  /// Sorted-run merge passes the external tier performed.
  [[nodiscard]] std::size_t merge_passes() const {
    return ext_ ? ext_->merge_passes() : 0;
  }

  /// Bytes the pool would hold uncompressed: the summed raw encoding sizes
  /// of every stored state (Off: exactly pool_bytes()).
  [[nodiscard]] std::size_t raw_bytes() const { return raw_bytes_; }

  /// Bytes actually spent storing states: tuple pool plus the complete
  /// dictionary footprint (entries and tables included — the honest side of
  /// the raw_bytes() comparison). Hash-compact: the fingerprint table.
  [[nodiscard]] std::size_t stored_bytes() const {
    if (ext_) return ext_->memory_used();  // the cache front stands in
    if (st_.hash_compact) return fps_->memory_used();
    return tuples_.pool_bytes() + codec_.charged();
  }

  /// Bytes held in mmap-backed spill files across the tuple pool and every
  /// dictionary pool.
  [[nodiscard]] std::size_t spill_bytes() const {
    return tuples_.spill_bytes() + codec_.spill_bytes();
  }

  /// Chunk bytes held but never occupied by records, across all pools.
  [[nodiscard]] std::size_t waste_bytes() const {
    return tuples_.waste_bytes() + codec_.waste_bytes();
  }

 private:
  // Default inner-table floor (StateSet's own default). Hash-compact and
  // external runs never fill the tuple table, so it keeps a 64-slot floor.
  static constexpr std::size_t kTableSlots = 1024;
  static constexpr std::size_t kIdleSlots = 64;

  /// Tiers that bypass the tuple pool entirely (fingerprints replace
  /// stored bytes), so the inner table keeps only its floor.
  [[nodiscard]] static bool table_bound(const StorageOptions& st) {
    return st.hash_compact || st.external.enabled();
  }

  void init_tiers() {
    if (st_.external.enabled()) {
      // External subsumes hash compaction: same fingerprint
      // representation, but membership lives on disk. Normalizing here
      // protects direct users of the set; the checkers also note it.
      st_.hash_compact = false;
      auto cfg = ExternalVisitedSet::configure(st_.external, budget_.limit());
      cfg.keep_order_log = st_.keep_fingerprints;
      ext_ = std::make_unique<ExternalVisitedSet>(budget_, cfg);
      ext_ok_ = ext_->ok() &&
                frontier_q_.open(cfg.dir, "frontier", kFrontierBufBytes);
      return;
    }
    if (st_.hash_compact)
      fps_ = std::make_unique<FingerprintSet>(budget_);
  }

  static constexpr std::size_t kFrontierBufBytes = 32768;

  [[nodiscard]] InsertResult insert_external(std::span<const std::byte> state) {
    if (!ext_ok_) return {Outcome::Exhausted, 0};
    const std::uint64_t fp =
        (st_.fingerprint != nullptr ? st_.fingerprint
                                    : &default_fingerprint)(state);
    auto o = ext_->insert(fp, defer_parent_, state);
    if (o == Outcome::Exhausted) {
      ext_ok_ = false;
      return {Outcome::Exhausted, 0};
    }
    // Ripe partitions merge inline — the amortized cost of the deferred
    // inserts that filled them. Fresh survivors land on the frontier
    // queue and the BFS picks them up at the current sweep's end.
    if (o == Outcome::Deferred && ext_->needs_resolve() &&
        resolve_external(/*only_ripe=*/true) == ResolveOutcome::Failed)
      return {Outcome::Exhausted, 0};
    return {o, 0};
  }

  [[nodiscard]] ResolveOutcome resolve_external(bool only_ripe) {
    if (!ext_ok_) return ResolveOutcome::Failed;
    // The frontier queue is read exactly once and in order: when the BFS
    // has consumed everything in it, reclaim the file before appending
    // the next wave, bounding it to about one BFS level of encodings.
    if (q_read_ == frontier_q_.bytes() && q_read_ != 0) {
      if (!frontier_q_.reset()) {
        ext_ok_ = false;
        return ResolveOutcome::Failed;
      }
      q_read_ = 0;
    }
    bool q_ok = true;
    auto r = ext_->resolve(only_ripe, [&](std::uint32_t /*index*/,
                                          std::uint64_t /*fp*/,
                                          std::uint64_t /*parent*/,
                                          std::span<const std::byte> bytes) {
      const auto len = static_cast<std::uint32_t>(bytes.size());
      q_ok = q_ok && frontier_q_.append(&len, sizeof(len));
      if (!bytes.empty())
        q_ok = q_ok && frontier_q_.append(bytes.data(), bytes.size());
      raw_bytes_ += bytes.size();
    });
    if (!q_ok || !frontier_q_.flush() || r == ResolveOutcome::Failed) {
      ext_ok_ = false;
      return ResolveOutcome::Failed;
    }
    return r;
  }

  [[nodiscard]] InsertResult insert_compacted(
      std::span<const std::byte> state) {
    const std::uint64_t fp =
        (st_.fingerprint != nullptr ? st_.fingerprint
                                    : &default_fingerprint)(state);
    // Admit every side allocation BEFORE the fingerprint probe, because a
    // refusal after it would need open-addressing deletion: the window
    // copy of the state bytes plus any fp_order_ capacity growth.
    std::size_t fp_grow = 0;
    if (st_.keep_fingerprints && fp_order_.size() == fp_order_.capacity())
      fp_grow = std::max<std::size_t>(fp_order_.capacity() * 2, 1024) *
                    sizeof(std::uint64_t) -
                fp_charged_;
    if (!budget_.try_reserve(state.size() + fp_grow))
      return {Outcome::Exhausted, 0};
    auto r = fps_->insert(fp);
    if (r.outcome != Outcome::Inserted) {
      budget_.release(state.size() + fp_grow);
      return {r.outcome, r.index};
    }
    window_.emplace_back(state.begin(), state.end());
    window_charged_ += state.size();
    if (st_.keep_fingerprints) {
      if (fp_grow != 0) {
        fp_order_.reserve(std::max<std::size_t>(fp_order_.capacity() * 2,
                                                1024));
        fp_charged_ += fp_grow;
      }
      fp_order_.push_back(fp);
    }
    raw_bytes_ += state.size();
    return {Outcome::Inserted, r.index};
  }

  // Mutable because at() hands back a consumed window entry's charge.
  mutable MemoryBudget budget_;
  StorageOptions st_;
  CompressionMode mode_;
  StateSet tuples_;  // Off: raw encodings; Collapse: varint index tuples
  ComponentCodec codec_;
  std::size_t raw_bytes_ = 0;
  ByteSink tuple_;  // reused per insert
  mutable std::vector<std::byte> scratch_;  // at() expansion buffer
  // Hash-compaction state: the fingerprint table, the sliding window of
  // not-yet-expanded state bytes (the BFS frontier — the only place full
  // encodings still exist under compaction), and the optional insertion-
  // ordered fingerprint log for trace replay. Window members are mutable
  // because at() — const across the storage tiers — consumes the window
  // front under compaction.
  std::unique_ptr<FingerprintSet> fps_;
  mutable std::deque<std::vector<std::byte>> window_;
  mutable std::uint32_t window_head_ = 0;
  mutable std::size_t window_charged_ = 0;
  std::size_t fp_charged_ = 0;
  std::vector<std::uint64_t> fp_order_;
  // External-tier state: the disk-backed set, the on-disk frontier queue
  // of resolved-but-unexpanded encodings (read back by at(), which also
  // latches the defer parent), and a health flag that turns any disk
  // failure into an honest Exhausted.
  std::unique_ptr<ExternalVisitedSet> ext_;
  mutable RunFile frontier_q_;
  mutable std::uint64_t q_read_ = 0;
  mutable std::uint64_t defer_parent_ = kNoParentIndex;
  bool ext_ok_ = false;
};

}  // namespace ccref::verify
