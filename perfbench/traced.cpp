#include "traced.hpp"

#include <atomic>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_slots_id{1};

// The calling thread's most recent registration. A thread that alternates
// between two ThreadSlots registers a fresh slot on each switch, which keeps
// totals exact; the benchmark drives one traced object at a time.
struct SlotCache {
  std::uint64_t owner = 0;
  LayerCounters* slot = nullptr;
};
thread_local SlotCache t_cache;

}  // namespace

void LayerCounters::add(const LayerCounters& o) {
  initial_s += o.initial_s;
  successors_s += o.successors_s;
  successors_por_s += o.successors_por_s;
  encode_s += o.encode_s;
  decode_s += o.decode_s;
  canonicalize_s += o.canonicalize_s;
  next_s += o.next_s;
  successors_calls += o.successors_calls;
  successors_por_calls += o.successors_por_calls;
  edges += o.edges;
  encode_calls += o.encode_calls;
  encode_bytes += o.encode_bytes;
  canonicalize_calls += o.canonicalize_calls;
  next_calls += o.next_calls;
}

ThreadSlots::ThreadSlots() : id_(g_next_slots_id.fetch_add(1)) {}

LayerCounters& ThreadSlots::local() {
  if (t_cache.owner == id_) return *t_cache.slot;
  std::lock_guard lock(mu_);
  slots_.push_back(std::make_unique<LayerCounters>());
  t_cache = {id_, slots_.back().get()};
  return *t_cache.slot;
}

std::vector<LayerCounters> ThreadSlots::slots() const {
  std::lock_guard lock(mu_);
  std::vector<LayerCounters> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) out.push_back(*s);
  return out;
}

}  // namespace perfbench
