// Memory-accounted visited-state set for explicit-state exploration.
//
// Open-addressing hash table over byte-encoded states, with all state bytes
// appended to a chunked pool. Insertion order is stable, so the set doubles
// as the BFS queue (the cursor trick): states are numbered 0..size()-1 in
// discovery order and retrievable by index.
//
// Memory accounting is explicit because Table 3 of the paper reports
// verifications "limited to 64MB of memory": insert() refuses (returns
// Exhausted) once pool + table + index bytes would exceed the limit, letting
// the checker report `Unfinished` exactly like the paper does. The budget can
// be owned (one set) or shared (CollapsedStateSet: the tuple table, the
// COLLAPSE dictionaries and the fingerprint tiers drawing on one limit).
//
// The pool is a ChunkedBytePool (chunk addresses never move, so at() spans
// stay valid across inserts), which is what lets a SpillPolicy route chunks
// past the RAM high-water mark into mmap-backed spill files: the random-
// access table and entry index stay in RAM, the append-only payload bytes
// degrade to disk, and `Unfinished` becomes a disk-space event.
//
// Symmetry reduction (symmetry.hpp) composes transparently: the checkers
// canonicalize states *before* encoding, so under SymmetryMode::Canonical
// this set only ever sees — and spends its budget on — one representative
// byte string per orbit.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "support/atomic_table.hpp"
#include "support/contracts.hpp"
#include "support/hash.hpp"
#include "support/spill.hpp"
#include "verify/memory_budget.hpp"

namespace ccref::verify {

class StateSet {
 public:
  // One outcome vocabulary across the sequential and lock-free sets, so
  // agreement tests compare results without translation.
  using Outcome = ::ccref::InsertOutcome;

  struct InsertResult {
    Outcome outcome;
    std::uint32_t index;  // valid unless Exhausted
  };

  /// `expected_states` pre-sizes the table for that many entries at the 0.7
  /// load factor, charged to the budget up front — a correct hint on a large
  /// run replaces log2(states/1024) rehash storms (each of which briefly
  /// holds two tables) with one charge at construction. 0 keeps the default
  /// 1024-slot table; the hint is capped so it can never pre-spend more than
  /// half the budget on slots.
  explicit StateSet(std::size_t memory_limit_bytes,
                    std::size_t expected_states = 0, SpillPolicy spill = {})
      : owned_(std::make_unique<MemoryBudget>(memory_limit_bytes)),
        budget_(owned_.get()),
        pool_(*budget_, kPoolChunk0, spill) {
    init_table(expected_states, kInitialSlots);
  }

  /// Shared-budget constructor: draw on a budget shared with sibling
  /// structures. The caller keeps `budget` alive for the set's lifetime.
  /// `min_slots` (a power of two) lets a table that will stay nearly empty
  /// — the unused tuple table of the fingerprint tiers — start below the
  /// default 1024 slots.
  explicit StateSet(MemoryBudget& budget, std::size_t expected_states = 0,
                    std::size_t min_slots = kInitialSlots,
                    SpillPolicy spill = {})
      : budget_(&budget), pool_(budget, kPoolChunk0, spill) {
    init_table(expected_states, min_slots);
  }

  [[nodiscard]] InsertResult insert(std::span<const std::byte> state) {
    return insert(state, hash_bytes(state));
  }

  /// Insert with a precomputed hash (the sharded set hashes once to pick the
  /// shard and reuses the value here).
  [[nodiscard]] InsertResult insert(std::span<const std::byte> state,
                                    std::uint64_t h) {
    std::size_t mask = table_.size() - 1;
    std::size_t slot = h & mask;
    for (;;) {
      std::uint32_t e = table_[slot];
      if (e == kEmpty) break;
      if (entries_[e].hash == h && equals(e, state))
        return {Outcome::AlreadyPresent, e};
      slot = (slot + 1) & mask;
    }

    // Admission control for the index structures (the pool charges its own
    // chunks inside alloc). Vector growth doubles capacity, so project the
    // *post-growth* footprint.
    auto grown = [](std::size_t cap, std::size_t need) {
      return need <= cap ? cap : std::max(cap * 2, need);
    };
    std::size_t projected =
        grown(entries_.capacity(), entries_.size() + 1) * sizeof(Entry) +
        table_.capacity() * sizeof(std::uint32_t);
    if (projected > reserved_) {
      if (!budget_->try_reserve(projected - reserved_)) {
        // Nothing was allocated; hand back anything charged beyond actual
        // use so sibling shards on a shared budget see the true headroom.
        reconcile();
        return {Outcome::Exhausted, 0};
      }
      reserved_ = projected;
    }

    // Pool placement next: a refused chunk (RAM and spill both exhausted)
    // aborts before any index mutation.
    std::uint32_t off = 0;
    if (!state.empty()) {
      off = pool_.alloc(state.size());
      if (off == decltype(pool_)::kNpos) {
        reconcile();
        return {Outcome::Exhausted, 0};
      }
      std::memcpy(pool_.data(off), state.data(), state.size());
    }

    auto index = static_cast<std::uint32_t>(entries_.size());
    CCREF_ASSERT_MSG(index != kEmpty, "state count overflow");
    entries_.push_back({h, off, static_cast<std::uint32_t>(state.size())});
    payload_bytes_ += state.size();
    table_[slot] = index;
    reconcile();
    if (entries_.size() * 10 > table_.size() * 7) {
      if (!grow()) {
        // Rolling back keeps the set consistent if the grow would burst the
        // budget; the caller sees exhaustion on this insert. The pool bump
        // pointer rewinds to exactly where alloc placed this record (the
        // set is single-threaded), and reconcile releases whatever the
        // index vectors projected beyond their shrunken sizes.
        table_[slot] = kEmpty;
        if (!state.empty()) pool_.rewind(off, state.size());
        payload_bytes_ -= state.size();
        entries_.pop_back();
        reconcile();
        return {Outcome::Exhausted, 0};
      }
    }
    return {Outcome::Inserted, index};
  }

  [[nodiscard]] std::span<const std::byte> at(std::uint32_t index) const {
    CCREF_REQUIRE(index < entries_.size());
    const Entry& e = entries_[index];
    if (e.len == 0) return {};
    return {pool_.data(e.offset), e.len};
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Bytes of state payload actually stored (the raw-vs-collapsed
  /// compression comparisons are about this quantity, not the table/index
  /// overhead that memory_used() also charges).
  [[nodiscard]] std::size_t pool_bytes() const { return payload_bytes_; }

  /// RAM bytes held: pool chunks charged to the budget plus the index
  /// structures. Spilled chunks are in spill_bytes(), not here.
  [[nodiscard]] std::size_t memory_used() const {
    return pool_.charged() + index_bytes();
  }

  /// Payload bytes held in mmap-backed spill files.
  [[nodiscard]] std::size_t spill_bytes() const { return pool_.spill_bytes(); }

  /// Pool bytes held but never occupied by a record (chunk-seam skips and
  /// the final chunk's unused tail).
  [[nodiscard]] std::size_t waste_bytes() const { return pool_.bytes_waste(); }

  [[nodiscard]] std::size_t memory_limit() const { return budget_->limit(); }

  [[nodiscard]] MemoryBudget& budget() { return *budget_; }

 private:
  struct Entry {
    std::uint64_t hash;
    std::uint32_t offset;  // into pool_
    std::uint32_t len;
  };

  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kInitialSlots = 1024;
  static constexpr std::size_t kPoolChunk0 = 4096;

  /// Charge the initial table to the budget immediately. An idle shard on a
  /// shared budget still holds its table; deferring the charge to the first
  /// insert would let budget().used() drift below the memory actually held.
  /// The expected-states hint is honored up to half the budget: a wild hint
  /// must degrade into ordinary growth, not immediate exhaustion.
  void init_table(std::size_t expected_states, std::size_t min_slots) {
    std::size_t slots = min_slots;
    while (slots * 7 < expected_states * 10) slots *= 2;
    while (slots > min_slots &&
           slots * sizeof(std::uint32_t) > budget_->limit() / 2)
      slots /= 2;
    table_.resize(slots, kEmpty);
    reconcile();
  }

  [[nodiscard]] bool equals(std::uint32_t e,
                            std::span<const std::byte> state) const {
    const Entry& ent = entries_[e];
    if (ent.len != state.size()) return false;
    if (ent.len == 0) return true;
    return std::memcmp(pool_.data(ent.offset), state.data(), ent.len) == 0;
  }

  [[nodiscard]] std::size_t index_bytes() const {
    return entries_.capacity() * sizeof(Entry) +
           table_.capacity() * sizeof(std::uint32_t);
  }

  /// Re-align the reservation with what the index vectors actually hold:
  /// charge any capacity grabbed beyond the projection (libstdc++ doubles
  /// exactly, so that direction is normally a no-op) and release any
  /// projected bytes the vectors never took — after a growth policy lands
  /// below max(2*cap, need), or after an insert rollback. Leaving the
  /// surplus charged would starve sibling shards drawing on a shared
  /// budget. (The pool reconciles nothing: chunks are charged in full on
  /// allocation and held until destruction.)
  void reconcile() {
    std::size_t actual = index_bytes();
    if (actual > reserved_) {
      // Over-projection failure here would mean the allocator already
      // grabbed the memory; record it rather than lie about usage.
      (void)budget_->try_reserve(actual - reserved_);
      reserved_ = actual;
    } else if (reserved_ > actual) {
      budget_->release(reserved_ - actual);
      reserved_ = actual;
    }
  }

  [[nodiscard]] bool grow() {
    std::size_t new_slots = table_.size() * 2;
    // The old and the new table coexist during rehash; both are charged.
    if (!budget_->try_reserve(new_slots * sizeof(std::uint32_t))) return false;
    reserved_ += new_slots * sizeof(std::uint32_t);
    std::vector<std::uint32_t> fresh(new_slots, kEmpty);
    std::size_t mask = new_slots - 1;
    for (std::uint32_t e = 0; e < entries_.size(); ++e) {
      std::size_t slot = entries_[e].hash & mask;
      while (fresh[slot] != kEmpty) slot = (slot + 1) & mask;
      fresh[slot] = e;
    }
    std::size_t old_bytes = table_.capacity() * sizeof(std::uint32_t);
    table_ = std::move(fresh);
    budget_->release(old_bytes);
    reserved_ -= old_bytes;
    return true;
  }

  std::unique_ptr<MemoryBudget> owned_;  // null when the budget is shared
  MemoryBudget* budget_;
  std::size_t reserved_ = 0;  // index bytes currently charged to the budget
  std::size_t payload_bytes_ = 0;
  ChunkedBytePool<MemoryBudget> pool_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> table_;
};

}  // namespace ccref::verify
