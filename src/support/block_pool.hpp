// Recycled heap blocks for work items that travel between threads.
//
// The parallel engine copies each frontier state into a heap block (a small
// header plus the encoded bytes) and drops the block once the state is
// expanded. Recycling the blocks instead means a warm search allocates only
// when its frontier reaches a new peak. Each thread keeps a private cache of
// spare blocks; work stealing moves blocks from one thread to another, so a
// cache trades its surplus through a shared pool, a batch at a time, and the
// lock is taken once per batch rather than once per block.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "support/spin.hpp"

namespace ccref {

template <class Header>
class BlockPool {
  static_assert(std::is_trivially_destructible_v<Header>,
                "blocks are released without running destructors");

 public:
  /// A header and a byte run, in one allocation.
  struct Block {
    Header header;
    std::uint32_t size = 0, capacity = 0;

    std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
    [[nodiscard]] std::span<const std::byte> bytes() { return {data(), size}; }
  };
  struct Free {
    void operator()(Block* b) const { ::operator delete(b); }
  };
  using Ptr = std::unique_ptr<Block, Free>;

  /// One thread's spare blocks.
  struct Cache {
    std::vector<Ptr> spares;
  };

  /// A block holding `header` and a copy of `bytes`: a spare from `cache`
  /// (refilled from the shared pool when empty) when one is big enough.
  /// Capacities round up to 16 bytes, so a spare fits the encodings of
  /// neighbouring states.
  Ptr make(Cache& cache, const Header& header,
           std::span<const std::byte> bytes) {
    if (cache.spares.empty()) {
      std::lock_guard<SpinLock> lock(mu_);
      move_batch(shared_, cache.spares);
    }
    Ptr b;
    if (!cache.spares.empty()) {
      b = std::move(cache.spares.back());
      cache.spares.pop_back();
    }
    if (!b || b->capacity < bytes.size()) {
      const auto cap =
          static_cast<std::uint32_t>((bytes.size() + 15) & ~std::size_t{15});
      b.reset(new (::operator new(sizeof(Block) + cap)) Block{header, 0, cap});
    }
    b->header = header;
    b->size = static_cast<std::uint32_t>(bytes.size());
    std::copy(bytes.begin(), bytes.end(), b->data());
    return b;
  }

  /// Keep `b` for reuse; surplus spares go back to the shared pool.
  void recycle(Cache& cache, Ptr b) {
    cache.spares.push_back(std::move(b));
    if (cache.spares.size() < 2 * kBatch) return;
    std::lock_guard<SpinLock> lock(mu_);
    move_batch(cache.spares, shared_);
  }

 private:
  static constexpr std::size_t kBatch = 64;

  static void move_batch(std::vector<Ptr>& from, std::vector<Ptr>& to) {
    const auto first =
        from.end() - static_cast<std::ptrdiff_t>(std::min(kBatch, from.size()));
    std::move(first, from.end(), std::back_inserter(to));
    from.erase(first, from.end());
  }

  SpinLock mu_;
  std::vector<Ptr> shared_;  // guarded by mu_
};

}  // namespace ccref
