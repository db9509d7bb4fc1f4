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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <utility>
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

  explicit StateSet(std::size_t memory_limit_bytes, SpillPolicy spill = {})
      : owned_(std::make_unique<MemoryBudget>(memory_limit_bytes)),
        budget_(owned_.get()),
        pool_(*budget_, kPoolChunk0, spill) {
    init_table(kInitialSlots);
  }

  /// Shared-budget constructor: draw on a budget shared with sibling
  /// structures. The caller keeps `budget` alive for the set's lifetime.
  /// `min_slots` (a power of two) lets a table that will stay nearly empty
  /// — the unused tuple table of the fingerprint tiers — start below the
  /// default 1024 slots.
  explicit StateSet(MemoryBudget& budget,
                    std::size_t min_slots = kInitialSlots,
                    SpillPolicy spill = {})
      : budget_(&budget), pool_(budget, kPoolChunk0, spill) {
    init_table(min_slots);
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
      if (entry(e).hash == h && equals(e, state))
        return {Outcome::AlreadyPresent, e};
      slot = (slot + 1) & mask;
    }

    // The entry's chunk first (the pool charges its own chunks inside
    // alloc): a fresh chunk is charged in full when first used, so the
    // index never needs more than one chunk of headroom.
    auto index = static_cast<std::uint32_t>(size_);
    CCREF_ASSERT_MSG(index != kEmpty, "state count overflow");
    const auto [chunk, pos] = locate(index);
    if (chunk == chunks_.size() && !add_chunk(chunk))
      return {Outcome::Exhausted, 0};

    // Pool placement next: a refused chunk (RAM and spill both exhausted)
    // aborts before any index mutation.
    std::uint32_t off = 0;
    if (!state.empty()) {
      off = pool_.alloc(state.size());
      if (off == decltype(pool_)::kNpos) return {Outcome::Exhausted, 0};
      std::memcpy(pool_.data(off), state.data(), state.size());
    }

    chunks_[chunk][pos] = {h, off, static_cast<std::uint32_t>(state.size())};
    ++size_;
    payload_bytes_ += state.size();
    table_[slot] = index;
    if (size_ * 10 > table_.size() * 7) {
      if (!grow()) {
        // Rolling back keeps the set consistent if the grow would burst the
        // budget; the caller sees exhaustion on this insert. The pool bump
        // pointer rewinds to exactly where alloc placed this record (the
        // set is single-threaded); an entry chunk stays charged and is
        // reused by the next insert.
        table_[slot] = kEmpty;
        if (!state.empty()) pool_.rewind(off, state.size());
        payload_bytes_ -= state.size();
        --size_;
        return {Outcome::Exhausted, 0};
      }
    }
    return {Outcome::Inserted, index};
  }

  [[nodiscard]] std::span<const std::byte> at(std::uint32_t index) const {
    CCREF_REQUIRE(index < size_);
    const Entry& e = entry(index);
    if (e.len == 0) return {};
    return {pool_.data(e.offset), e.len};
  }

  [[nodiscard]] std::size_t size() const { return size_; }

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
  // Entry chunks: 2^kFirstBits entries, then doubling up to 2^kMaxBits
  // entries (1 MiB), then fixed at that size — so growing the index never
  // charges (or copies) more than 1 MiB at once, however large the set.
  static constexpr unsigned kFirstBits = 6;
  static constexpr unsigned kMaxBits = 16;

  /// (chunk, position) of entry `index`. Chunk 0 holds [0, 2^kFirstBits);
  /// doubling chunk k >= 1 holds [2^(kFirstBits+k-1), 2^(kFirstBits+k)),
  /// up to [2^kMaxBits, 2^(kMaxBits+1)); fixed chunks follow.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> locate(
      std::uint32_t index) {
    if (index >> (kMaxBits + 1))
      return {(index >> kMaxBits) + kMaxBits - kFirstBits,
              index & ((1u << kMaxBits) - 1)};
    const auto k = static_cast<unsigned>(std::bit_width(index >> kFirstBits));
    return {k, k == 0 ? index : index - (1u << (kFirstBits + k - 1))};
  }

  [[nodiscard]] static std::size_t chunk_entries(std::size_t chunk) {
    return std::size_t{1}
           << std::clamp<std::size_t>(kFirstBits + chunk - 1, kFirstBits,
                                      kMaxBits);
  }

  [[nodiscard]] const Entry& entry(std::uint32_t index) const {
    const auto [chunk, pos] = locate(index);
    return chunks_[chunk][pos];
  }

  /// Allocate entry chunk `chunk`, charged in full up front.
  [[nodiscard]] bool add_chunk(std::size_t chunk) {
    const std::size_t n = chunk_entries(chunk);
    if (!budget_->try_reserve(n * sizeof(Entry))) return false;
    chunks_.push_back(std::make_unique_for_overwrite<Entry[]>(n));
    entry_capacity_ += n;
    return true;
  }

  /// Charge the initial table to the budget immediately. An idle shard on a
  /// shared budget still holds its table; deferring the charge to the first
  /// insert would let budget().used() drift below the memory actually held.
  /// A table larger than the whole budget is charged anyway: the set is
  /// born exhausted rather than born dishonest.
  void init_table(std::size_t slots) {
    table_.resize(slots, kEmpty);
    const std::size_t bytes = slots * sizeof(std::uint32_t);
    if (!budget_->try_reserve(bytes)) budget_->charge(bytes);
  }

  [[nodiscard]] bool equals(std::uint32_t e,
                            std::span<const std::byte> state) const {
    const Entry& ent = entry(e);
    if (ent.len != state.size()) return false;
    if (ent.len == 0) return true;
    return std::memcmp(pool_.data(ent.offset), state.data(), ent.len) == 0;
  }

  [[nodiscard]] std::size_t index_bytes() const {
    return entry_capacity_ * sizeof(Entry) +
           table_.size() * sizeof(std::uint32_t);
  }

  [[nodiscard]] bool grow() {
    std::size_t new_slots = table_.size() * 2;
    // The old and the new table coexist during rehash; both are charged.
    if (!budget_->try_reserve(new_slots * sizeof(std::uint32_t))) return false;
    std::vector<std::uint32_t> fresh(new_slots, kEmpty);
    std::size_t mask = new_slots - 1;
    for (std::uint32_t e = 0; e < size_; ++e) {
      std::size_t slot = entry(e).hash & mask;
      while (fresh[slot] != kEmpty) slot = (slot + 1) & mask;
      fresh[slot] = e;
    }
    budget_->release(table_.size() * sizeof(std::uint32_t));
    table_ = std::move(fresh);
    return true;
  }

  std::unique_ptr<MemoryBudget> owned_;  // null when the budget is shared
  MemoryBudget* budget_;
  std::size_t payload_bytes_ = 0;
  ChunkedBytePool<MemoryBudget> pool_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::size_t size_ = 0;
  std::size_t entry_capacity_ = 0;  // entries the chunks hold, all charged
  std::vector<std::uint32_t> table_;
};

}  // namespace ccref::verify
