// Lock-free insert-if-absent storage for variable-length byte strings.
//
// This is the hot-path core of the parallel visited set (Laarman-style
// shared hash table, adapted to variable-length records):
//
//   * ChunkedBytePool — an append-only arena of geometrically growing
//     chunks. Chunk addresses never move, so a 32-bit byte offset is a
//     stable record id that any thread can dereference without
//     coordination. Allocation is a CAS bump on one counter; chunks are
//     charged against the memory budget in full when first touched, so
//     budget.used() equals bytes actually held at every instant (the
//     "budget == memory_used" invariant the exhaustion tests pin).
//
//   * AtomicByteTable — open-addressing table whose slots are single
//     atomic u64 words: [pending:1][tag:31][offset+1:32]. Insertion
//     claims an empty slot by CAS(0 -> pending|tag), appends the record
//     to the pool, then publishes with a release store of the final
//     word; concurrent probers that hit a pending word with a matching
//     tag spin (bounded: the owner never blocks while pending) and
//     re-examine. If the pool refuses the record (budget exhausted) the
//     owner rolls the slot back to 0, so a claim never leaks a slot.
//     Readers probe with acquire loads only — the release/acquire pair
//     on the slot word is what makes the record bytes visible (see
//     DESIGN.md §4.6 for the full ordering argument).
//
//   * Resize uses a seqlock-style epoch: writers enter a striped,
//     cache-line-padded reader count before touching the slot array;
//     the single resizer raises `resizing_`, waits for every stripe to
//     drain, migrates published words into a 2x array, swaps the table
//     pointer, and drops the flag. Writers that arrive mid-resize back
//     out of their stripe and wait. Records themselves never move.
//
// Everything is intentionally header-only and templated on the budget
// type so the support layer does not depend on verify/.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>

#include "support/contracts.hpp"
#include "support/spill.hpp"
#include "support/spin.hpp"

namespace ccref {

/// Result of an insert-if-absent on any of the visited-set structures.
/// Shared across the sequential and concurrent sets so call sites can
/// compare outcomes across engines without translation.
enum class InsertOutcome : std::uint8_t {
  Inserted,        ///< fresh state, now stored
  AlreadyPresent,  ///< equal bytes were already stored
  Exhausted,       ///< memory budget refused the insertion
  Deferred,        ///< external tier: queued for delayed duplicate detection
};

/// Append-only arena: chunk k holds (chunk0 << k) bytes, so 32 chunks
/// cover the entire 32-bit offset space with at most 2x slack. Records
/// never straddle chunks (alloc skips to the next chunk instead — the
/// skipped tail is charged but never handed out; bytes_waste() reports
/// it, together with the unused tail of the final chunk at exhaustion).
///
/// With a SpillPolicy carrying an arena, chunks past the RAM high-water
/// mark — and any chunk the RAM budget refuses — come from mmap'd spill
/// files instead of the heap; those bytes are tracked in spill_bytes(),
/// not in the RAM budget, so exhaustion becomes a disk-space event.
template <class Budget>
class ChunkedBytePool {
 public:
  static constexpr std::uint32_t kNpos = 0xffffffffu;

  ChunkedBytePool(Budget& budget, std::size_t chunk0_bytes,
                  SpillPolicy spill = {})
      : budget_(&budget), spill_(spill) {
    chunk0_bits_ = 8;  // 256 B floor keeps tiny-budget tables viable
    while ((std::size_t{1} << chunk0_bits_) < chunk0_bytes) ++chunk0_bits_;
  }

  ChunkedBytePool(const ChunkedBytePool&) = delete;
  ChunkedBytePool& operator=(const ChunkedBytePool&) = delete;

  ~ChunkedBytePool() {
    const std::uint32_t spilled = spilled_.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < kMaxChunks; ++k) {
      std::byte* p = chunks_[k].load(std::memory_order_relaxed);
      if (p == nullptr) continue;
      if ((spilled >> k) & 1)
        spill_.arena->unmap_chunk(p, std::size_t{1} << (chunk0_bits_ + k));
      else
        delete[] p;
    }
  }

  /// Reserve `len` contiguous bytes; kNpos when the budget refuses the
  /// backing chunk or the 32-bit offset space is spent. Thread-safe.
  [[nodiscard]] std::uint32_t alloc(std::size_t len) {
    CCREF_REQUIRE(len > 0);
    std::uint64_t cur = top_.load(std::memory_order_relaxed);
    for (;;) {
      std::uint64_t start = cur;
      std::size_t k = chunk_index(start);
      while (start + len > chunk_end(k)) {
        start = chunk_end(k);  // == base of chunk k+1
        if (++k >= kMaxChunks) return kNpos;
      }
      const std::uint64_t end = start + len;
      if (end >= kNpos) return kNpos;  // offsets must stay below kNpos
      if (!ensure_chunk(k)) return kNpos;
      if (top_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
        allocated_.fetch_add(len, std::memory_order_relaxed);
        return static_cast<std::uint32_t>(start);
      }
      // CAS failure reloaded `cur`; recompute placement.
    }
  }

  /// Un-publish the most recent alloc by restoring the bump pointer to the
  /// offset that alloc returned. Single-threaded callers only (the
  /// sequential StateSet's insert-rollback path): with concurrent
  /// allocators the offset may no longer be the top.
  void rewind(std::uint32_t offset, std::size_t len) {
    CCREF_ASSERT(top_.load(std::memory_order_relaxed) == offset + len);
    top_.store(offset, std::memory_order_relaxed);
    allocated_.fetch_sub(len, std::memory_order_relaxed);
  }

  [[nodiscard]] std::byte* data(std::uint32_t offset) {
    const std::size_t k = chunk_index(offset);
    return chunks_[k].load(std::memory_order_acquire) + (offset - base(k));
  }
  [[nodiscard]] const std::byte* data(std::uint32_t offset) const {
    const std::size_t k = chunk_index(offset);
    return chunks_[k].load(std::memory_order_acquire) + (offset - base(k));
  }

  /// Bytes of RAM chunk memory charged against the budget so far
  /// (spilled chunks are accounted in spill_bytes(), not here).
  [[nodiscard]] std::size_t charged() const {
    return charged_.load(std::memory_order_relaxed);
  }

  /// Bytes of chunk memory held in mmap-backed spill files.
  [[nodiscard]] std::size_t spill_bytes() const {
    return spill_charged_.load(std::memory_order_relaxed);
  }

  /// Bytes actually handed out to callers (excludes skipped tails).
  [[nodiscard]] std::size_t bytes_allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }

  /// Chunk bytes held (RAM + spill) but never handed out: skipped tails at
  /// chunk seams plus the unused tail of the final chunk — the honest gap
  /// between what the budget charges and what records occupy. Reported,
  /// not released: the memory really is held, and with concurrent
  /// allocators mid-CAS the tail cannot be safely reconciled away.
  [[nodiscard]] std::size_t bytes_waste() const {
    const std::size_t held = charged_.load(std::memory_order_relaxed) +
                             spill_charged_.load(std::memory_order_relaxed);
    const std::size_t out = allocated_.load(std::memory_order_relaxed);
    return held > out ? held - out : 0;
  }

 private:
  static constexpr std::size_t kMaxChunks = 32;

  // Offsets [base(k), base(k) + (chunk0 << k)) live in chunk k, where
  // base(k) = (2^k - 1) * chunk0. Inverse: k = floor(log2(o/chunk0 + 1)).
  [[nodiscard]] std::size_t chunk_index(std::uint64_t offset) const {
    return static_cast<std::size_t>(
        std::bit_width((offset >> chunk0_bits_) + 1) - 1);
  }
  [[nodiscard]] std::uint64_t base(std::size_t k) const {
    return ((std::uint64_t{1} << k) - 1) << chunk0_bits_;
  }
  [[nodiscard]] std::uint64_t chunk_end(std::size_t k) const {
    return ((std::uint64_t{1} << (k + 1)) - 1) << chunk0_bits_;
  }

  [[nodiscard]] bool ensure_chunk(std::size_t k) {
    if (chunks_[k].load(std::memory_order_acquire) != nullptr) return true;
    const std::size_t bytes = std::size_t{1} << (chunk0_bits_ + k);
    // Tier choice: RAM below the watermark, spill above it or when RAM is
    // refused, RAM again if spill is refused (disk full) but headroom
    // remains — only when all tiers refuse is the pool exhausted.
    std::byte* fresh = nullptr;
    bool spilled = false;
    const bool past_watermark =
        spill_.arena != nullptr &&
        budget_->used() + bytes > spill_.ram_watermark;
    if (!past_watermark && budget_->try_reserve(bytes))
      fresh = new std::byte[bytes];
    if (fresh == nullptr && spill_.arena != nullptr) {
      fresh = spill_.arena->map_chunk(bytes);
      spilled = fresh != nullptr;
    }
    if (fresh == nullptr && past_watermark && budget_->try_reserve(bytes))
      fresh = new std::byte[bytes];
    if (fresh == nullptr) return false;
    std::byte* expected = nullptr;
    if (chunks_[k].compare_exchange_strong(expected, fresh,
                                           std::memory_order_release,
                                           std::memory_order_acquire)) {
      if (spilled) {
        spilled_.fetch_or(std::uint32_t{1} << k, std::memory_order_relaxed);
        spill_charged_.fetch_add(bytes, std::memory_order_relaxed);
        // The previous spill chunk stops being the append target the
        // moment a bigger one exists: schedule writeback and let the
        // kernel drop its resident pages (reads fault back from the page
        // cache, so a concurrent slow writer loses nothing).
        if (k > 0 &&
            ((spilled_.load(std::memory_order_relaxed) >> (k - 1)) & 1))
          spill_.arena->note_cold(
              chunks_[k - 1].load(std::memory_order_acquire), bytes >> 1);
      } else {
        charged_.fetch_add(bytes, std::memory_order_relaxed);
      }
      return true;
    }
    // Lost the installation race; undo our allocation.
    if (spilled)
      spill_.arena->unmap_chunk(fresh, bytes);
    else {
      delete[] fresh;
      budget_->release(bytes);
    }
    return true;
  }

  Budget* budget_;
  SpillPolicy spill_;
  unsigned chunk0_bits_ = 8;
  std::atomic<std::uint64_t> top_{0};
  std::atomic<std::size_t> charged_{0};
  std::atomic<std::size_t> spill_charged_{0};
  std::atomic<std::size_t> allocated_{0};
  std::atomic<std::uint32_t> spilled_{0};  // bit k: chunk k is spill-backed
  std::array<std::atomic<std::byte*>, kMaxChunks> chunks_{};
};

/// CAS-based open-addressing insert-if-absent over byte strings.
/// Records are framed [hash:u64][parent:u64?][len:u32][payload] in a
/// ChunkedBytePool; the returned ref is the record's byte offset.
///
/// Concurrency contract: insert() from any thread; at()/parent_at() are
/// safe for any ref a completed insert returned (records are immutable
/// and never move); size() is an instantaneous count.
template <class Budget>
class AtomicByteTable {
 public:
  static constexpr std::uint64_t kNoParent = ~0ull;

  struct InsertResult {
    InsertOutcome outcome;
    std::uint32_t ref = 0;  // record offset; valid unless Exhausted
  };

  /// `initial_slots` is rounded up to a power of two (floor 64) and the
  /// slot array is charged unconditionally — a table that cannot afford
  /// its floor is born exhausted, not born lying (see MemoryBudget::charge).
  AtomicByteTable(Budget& budget, std::size_t initial_slots,
                  std::size_t chunk0_bytes, bool track_parents,
                  SpillPolicy spill = {})
      : budget_(&budget),
        pool_(budget, chunk0_bytes, spill),
        track_parents_(track_parents) {
    std::size_t n = 64;
    while (n < initial_slots) n <<= 1;
    auto* t = new Slots(n);
    if (!budget_->try_reserve(slot_bytes(n))) budget_->charge(slot_bytes(n));
    slots_charged_.store(slot_bytes(n), std::memory_order_relaxed);
    slot_count_.store(n, std::memory_order_relaxed);
    table_.store(t, std::memory_order_relaxed);
  }

  AtomicByteTable(const AtomicByteTable&) = delete;
  AtomicByteTable& operator=(const AtomicByteTable&) = delete;

  ~AtomicByteTable() { delete table_.load(std::memory_order_relaxed); }

  /// Insert-if-absent. `h` must be hash_bytes(state) — callers already
  /// have it for shard selection, so the table never rehashes.
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::uint64_t h,
                                    std::uint64_t parent = kNoParent) {
    for (;;) {
      std::optional<InsertResult> r;
      {
        EpochGuard guard(*this);
        r = try_insert(state, h, parent);
      }
      if (r) {
        // Best-effort growth at 70% load keeps probe chains short; the
        // hard 90% cap below guarantees termination even if growth is
        // refused by the budget.
        if (r->outcome == InsertOutcome::Inserted && over_load(7))
          (void)try_resize();
        return *r;
      }
      // Hard cap hit: the table MUST grow before another claim.
      if (!try_resize()) return {InsertOutcome::Exhausted, 0};
    }
  }

  /// Payload bytes of a stored record (stable span, never moves).
  [[nodiscard]] std::span<const std::byte> at(std::uint32_t ref) const {
    const std::byte* p = pool_.data(ref);
    std::uint32_t len = 0;
    std::memcpy(&len, p + len_offset(), sizeof(len));
    return {p + header_bytes(), len};
  }

  [[nodiscard]] std::uint64_t hash_at(std::uint32_t ref) const {
    std::uint64_t h = 0;
    std::memcpy(&h, pool_.data(ref), sizeof(h));
    return h;
  }

  [[nodiscard]] std::uint64_t parent_at(std::uint32_t ref) const {
    CCREF_REQUIRE(track_parents_);
    std::uint64_t p = 0;
    std::memcpy(&p, pool_.data(ref) + sizeof(std::uint64_t), sizeof(p));
    return p;
  }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Summed payload lengths of stored records (headers excluded).
  [[nodiscard]] std::size_t payload_bytes() const {
    return payload_bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes charged to the budget: slot array(s) plus RAM pool chunks.
  [[nodiscard]] std::size_t charged() const {
    return slots_charged_.load(std::memory_order_relaxed) + pool_.charged();
  }

  /// Bytes of record storage held in mmap-backed spill files.
  [[nodiscard]] std::size_t spill_bytes() const { return pool_.spill_bytes(); }

  /// Pool bytes held but never occupied by a record (chunk-seam skips and
  /// the final chunk's tail).
  [[nodiscard]] std::size_t waste_bytes() const { return pool_.bytes_waste(); }

 private:
  static constexpr std::uint64_t kPendingBit = 1ull << 63;
  static constexpr std::uint64_t kTagMask = 0x7fffffff00000000ull;
  static constexpr std::uint64_t kOffMask = 0x00000000ffffffffull;
  static constexpr std::size_t kStripes = 16;

  struct Slots {
    explicit Slots(std::size_t n)
        : count(n), words(new std::atomic<std::uint64_t>[n]()) {}
    std::size_t count;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    [[nodiscard]] std::atomic<std::uint64_t>& word(std::size_t i) {
      return words[i];
    }
  };

  struct alignas(64) Stripe {
    std::atomic<std::size_t> writers{0};
  };

  /// Striped writer-presence count. Entering a stripe then checking
  /// `resizing_` (both seq_cst) guarantees: either the resizer's drain
  /// loop observes this writer and waits, or the writer observes the
  /// flag and backs out — never neither (total seq_cst order).
  class EpochGuard {
   public:
    explicit EpochGuard(AtomicByteTable& t)
        : stripe_(t.stripes_[stripe_index()].writers) {
      SpinBackoff backoff;
      for (;;) {
        stripe_.fetch_add(1, std::memory_order_seq_cst);
        if (!t.resizing_.load(std::memory_order_seq_cst)) return;
        stripe_.fetch_sub(1, std::memory_order_release);
        while (t.resizing_.load(std::memory_order_acquire)) backoff.pause();
      }
    }
    ~EpochGuard() { stripe_.fetch_sub(1, std::memory_order_release); }

   private:
    [[nodiscard]] static std::size_t stripe_index() {
      // Thread-stable stripe pick; contiguous ids from the checker's pool
      // would also work, but hashing the tls address needs no plumbing.
      static thread_local const char tls_anchor = 0;
      auto v = reinterpret_cast<std::uintptr_t>(&tls_anchor);
      return (v >> 6) % kStripes;
    }
    std::atomic<std::size_t>& stripe_;
  };

  [[nodiscard]] static std::size_t slot_bytes(std::size_t n) {
    return n * sizeof(std::atomic<std::uint64_t>);
  }
  [[nodiscard]] std::size_t len_offset() const {
    return track_parents_ ? 16 : 8;
  }
  [[nodiscard]] std::size_t header_bytes() const {
    return track_parents_ ? 20 : 12;
  }
  [[nodiscard]] static std::uint64_t tag_of(std::uint64_t h) {
    return (h >> 33) << 32;  // bits 32..62; bit 63 stays clear
  }

  // Reads the count mirror, NOT the table pointer: this runs outside the
  // epoch guard, where dereferencing table_ would race the resizer's free.
  [[nodiscard]] bool over_load(std::size_t tenths) const {
    return size_.load(std::memory_order_relaxed) * 10 >
           slot_count_.load(std::memory_order_relaxed) * tenths;
  }

  // nullopt => hard load cap reached; caller must resize and retry.
  [[nodiscard]] std::optional<InsertResult> try_insert(
      std::span<const std::byte> state, std::uint64_t h,
      std::uint64_t parent) {
    Slots* tab = table_.load(std::memory_order_acquire);
    const std::uint64_t mask = tab->count - 1;
    const std::uint64_t tag = tag_of(h);
    std::size_t slot = h & mask;
    SpinBackoff backoff;
    for (;;) {
      std::uint64_t w = tab->word(slot).load(std::memory_order_acquire);
      if (w == 0) {
        // Reserve occupancy BEFORE claiming: occupied_ counts published
        // records plus in-flight claims, so the table provably never
        // exceeds 90% occupancy — which is what guarantees every probe
        // loop terminates at an empty slot. A stale size_-based check
        // would let N concurrent claimers overshoot the cap together.
        const std::size_t o = occupied_.fetch_add(1, std::memory_order_relaxed);
        if ((o + 1) * 10 >= tab->count * 9) {
          occupied_.fetch_sub(1, std::memory_order_relaxed);
          return std::nullopt;
        }
        if (!tab->word(slot).compare_exchange_strong(
                w, kPendingBit | tag, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          occupied_.fetch_sub(1, std::memory_order_relaxed);
          continue;  // lost the claim; re-examine the refreshed word
        }
        const std::uint32_t off = append_record(state, h, parent);
        if (off == ChunkedBytePool<Budget>::kNpos) {
          // Roll the claim back so the slot is reusable; spinners with a
          // matching tag resume probing from scratch.
          tab->word(slot).store(0, std::memory_order_release);
          occupied_.fetch_sub(1, std::memory_order_relaxed);
          return InsertResult{InsertOutcome::Exhausted, 0};
        }
        tab->word(slot).store(tag | (std::uint64_t{off} + 1),
                              std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        return InsertResult{InsertOutcome::Inserted, off};
      }
      if (w & kPendingBit) {
        if ((w & kTagMask) == tag) {
          // Possibly our key mid-publish: wait for the owner's release
          // store (or its rollback to 0) and look again.
          backoff.pause();
          continue;
        }
        // Pending claim for a different hash prefix: definitely not our
        // key; probe past it.
      } else if ((w & kTagMask) == tag) {
        const auto off = static_cast<std::uint32_t>((w & kOffMask) - 1);
        if (hash_at(off) == h && equals(off, state))
          return InsertResult{InsertOutcome::AlreadyPresent, off};
      }
      slot = (slot + 1) & mask;
    }
  }

  [[nodiscard]] std::uint32_t append_record(std::span<const std::byte> state,
                                            std::uint64_t h,
                                            std::uint64_t parent) {
    const std::uint32_t off = pool_.alloc(header_bytes() + state.size());
    if (off == ChunkedBytePool<Budget>::kNpos) return off;
    std::byte* p = pool_.data(off);
    std::memcpy(p, &h, sizeof(h));
    if (track_parents_)
      std::memcpy(p + sizeof(std::uint64_t), &parent, sizeof(parent));
    const auto len = static_cast<std::uint32_t>(state.size());
    std::memcpy(p + len_offset(), &len, sizeof(len));
    if (!state.empty())
      std::memcpy(p + header_bytes(), state.data(), state.size());
    payload_bytes_.fetch_add(state.size(), std::memory_order_relaxed);
    return off;
  }

  [[nodiscard]] bool equals(std::uint32_t off,
                            std::span<const std::byte> state) const {
    auto stored = at(off);
    return stored.size() == state.size() &&
           (state.empty() ||
            std::memcmp(stored.data(), state.data(), state.size()) == 0);
  }

  /// Grow the slot array 2x. Returns false only if the budget refuses
  /// the new array. Single resizer at a time; concurrent callers wait
  /// for the active resize and report success (the table grew).
  [[nodiscard]] bool try_resize() {
    bool expected = false;
    if (!resizing_.compare_exchange_strong(expected, true,
                                           std::memory_order_seq_cst)) {
      SpinBackoff backoff;
      while (resizing_.load(std::memory_order_acquire)) backoff.pause();
      return true;
    }
    Slots* old = table_.load(std::memory_order_relaxed);
    // Re-check under the flag: the resize that just finished may already
    // have grown past our trigger.
    if (size_.load(std::memory_order_relaxed) * 10 <= old->count * 7) {
      resizing_.store(false, std::memory_order_release);
      return true;
    }
    const std::size_t fresh_count = old->count * 2;
    if (!budget_->try_reserve(slot_bytes(fresh_count))) {
      resizing_.store(false, std::memory_order_release);
      return false;
    }
    // Quiesce writers: after every stripe drains, no claim is in flight,
    // so every nonzero word is published (no pending bits to migrate).
    for (auto& s : stripes_) {
      SpinBackoff backoff;
      while (s.writers.load(std::memory_order_seq_cst) != 0) backoff.pause();
    }
    auto* fresh = new Slots(fresh_count);
    const std::uint64_t mask = fresh_count - 1;
    for (std::size_t i = 0; i < old->count; ++i) {
      const std::uint64_t w = old->word(i).load(std::memory_order_relaxed);
      if (w == 0) continue;
      CCREF_ASSERT(!(w & kPendingBit));
      const auto off = static_cast<std::uint32_t>((w & kOffMask) - 1);
      std::size_t slot = hash_at(off) & mask;
      while (fresh->word(slot).load(std::memory_order_relaxed) != 0)
        slot = (slot + 1) & mask;
      fresh->word(slot).store(w, std::memory_order_relaxed);
    }
    table_.store(fresh, std::memory_order_release);
    slot_count_.store(fresh_count, std::memory_order_relaxed);
    slots_charged_.fetch_add(slot_bytes(fresh_count) - slot_bytes(old->count),
                             std::memory_order_relaxed);
    budget_->release(slot_bytes(old->count));
    // Safe to free: drained writers re-enter through EpochGuard, which
    // loads table_ only after observing resizing_ == false.
    delete old;
    resizing_.store(false, std::memory_order_release);
    return true;
  }

  Budget* budget_;
  ChunkedBytePool<Budget> pool_;
  bool track_parents_;
  std::atomic<Slots*> table_{nullptr};
  std::atomic<bool> resizing_{false};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> occupied_{0};    // size_ + in-flight claims
  std::atomic<std::size_t> slot_count_{0};  // mirror of table_->count
  std::atomic<std::size_t> payload_bytes_{0};
  std::atomic<std::size_t> slots_charged_{0};
  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace ccref
