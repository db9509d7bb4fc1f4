// Recycled successor lists for the allocation-free state expansion.
//
// A search engine expands millions of states, and each expansion lists a
// handful of (successor, label) edges. Returning them in a fresh vector
// costs a heap allocation for the vector plus one per nested container of
// every successor. An EdgeBuffer is owned by the caller and refilled per
// expansion instead: a filler hands out slots in order, each slot keeping
// the heap capacity its state and label had from earlier fills, so
// copy-assigning the source state into a slot allocates nothing once the
// buffer is warm.
//
// The contract (DESIGN.md §4.11): a filler overwrites EVERY field of each
// slot it hands out (state and label alike); only [0, size()) is live, so
// stale slots past it are never seen; views and references into the buffer
// are valid only until the next fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sem/label.hpp"

namespace ccref::sem {

/// An ample-set candidate for partial-order reduction, as indices into one
/// fill of an edge list (runtime::AsyncSystem::successors_por).
struct PorCandidate {
  int process;             // the remote whose footprint the set covers
  std::uint32_t delivery;  // edge index: down-head delivery
  std::uint32_t local_begin, local_end;  // the remote's local-step range
};

template <class State>
class EdgeBuffer {
 public:
  using Edge = std::pair<State, Label>;

  /// Start a new fill: every slot becomes stale.
  void clear() { live_ = 0; }

  /// The next slot, appended only when every recycled one is taken. Its
  /// contents are stale: the filler must overwrite all of them.
  Edge& next_slot() {
    if (live_ == slots_.size()) slots_.emplace_back();
    return slots_[live_++];
  }

  /// Replace the contents with a by-value enumeration (systems without a
  /// filling successors overload).
  void assign(std::vector<Edge>&& edges) {
    slots_ = std::move(edges);
    live_ = slots_.size();
  }

  /// Move the live edges out (the by-value enumeration wrappers).
  [[nodiscard]] std::vector<Edge> take() {
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(live_),
                 slots_.end());
    live_ = 0;
    return std::move(slots_);
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  /// The slot next_slot() handed out last.
  Edge& back() { return slots_[live_ - 1]; }

  /// The live edges of the last fill.
  [[nodiscard]] std::span<Edge> view() { return {slots_.data(), live_}; }

 private:
  std::vector<Edge> slots_;
  std::size_t live_ = 0;
};

}  // namespace ccref::sem
