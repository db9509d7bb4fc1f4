// Benchmark-side tracing: forwarding wrappers that time every call the
// engines make into a layer below them, without touching the program.
//
// TracedSystem<S> wraps a verification system (runtime::AsyncSystem,
// sem::RendezvousSystem) and forwards exactly the members S has, so the
// engine's concept checks (verify::detail::HasLabelMode, HasCanonicalize,
// HasPor) select the same search for the wrapper as for S — the
// static_asserts at the bottom of workloads.cpp pin that. TracedSource wraps
// a sim::OpSource the same way for the discrete-event engine.
//
// Each calling thread accumulates into its own LayerCounters slot (no atomics
// on the hot path); slots are registered once per thread under a mutex and
// read only after the engine has returned, i.e. after par_explore joined its
// workers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "sim/des_workload.hpp"
#include "support/bytes.hpp"
#include "verify/checker.hpp"

namespace perfbench {

/// Time and work one thread spent inside the wrapped layer.
struct LayerCounters {
  double initial_s = 0, successors_s = 0, successors_por_s = 0, encode_s = 0,
         decode_s = 0, canonicalize_s = 0, next_s = 0;
  std::uint64_t successors_calls = 0, successors_por_calls = 0;
  std::uint64_t edges = 0;  // successor edges returned (POR: all enabled)
  std::uint64_t encode_calls = 0, encode_bytes = 0;
  std::uint64_t canonicalize_calls = 0, next_calls = 0;

  [[nodiscard]] double total_s() const {
    return initial_s + successors_s + successors_por_s + encode_s + decode_s +
           canonicalize_s + next_s;
  }
  [[nodiscard]] std::uint64_t expansions() const {
    return successors_calls + successors_por_calls;
  }
  void add(const LayerCounters& o);
};

/// One LayerCounters slot per calling thread.
class ThreadSlots {
 public:
  ThreadSlots();
  ThreadSlots(const ThreadSlots&) = delete;
  ThreadSlots& operator=(const ThreadSlots&) = delete;

  /// The calling thread's slot (registered on its first call).
  LayerCounters& local();
  /// Every slot; call only when no thread is inside the wrapper.
  [[nodiscard]] std::vector<LayerCounters> slots() const;

 private:
  const std::uint64_t id_;  // never reused, unlike `this`
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<LayerCounters>> slots_;  // guarded by mu_
};

/// Adds the seconds between construction and destruction to `acc`.
class Span {
 public:
  explicit Span(double& acc)
      : acc_(acc), t0_(std::chrono::steady_clock::now()) {}
  ~Span() {
    acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  std::chrono::steady_clock::time_point t0_;
};

template <class S>
class TracedSystem {
 public:
  using State = typename S::State;

  explicit TracedSystem(const S& inner) : inner_(&inner) {}

  [[nodiscard]] State initial() const {
    Span span(slots_.local().initial_s);
    return inner_->initial();
  }

  [[nodiscard]] auto successors(const State& s) const {
    LayerCounters& c = slots_.local();
    Span span(c.successors_s);
    auto out = inner_->successors(s);
    ++c.successors_calls;
    c.edges += out.size();
    return out;
  }

  [[nodiscard]] auto successors(const State& s,
                                ccref::sem::LabelMode mode) const
    requires ccref::verify::detail::HasLabelMode<S>
  {
    LayerCounters& c = slots_.local();
    Span span(c.successors_s);
    auto out = inner_->successors(s, mode);
    ++c.successors_calls;
    c.edges += out.size();
    return out;
  }

  [[nodiscard]] auto successors_por(const State& s,
                                    ccref::sem::LabelMode mode) const
    requires ccref::verify::detail::HasPor<S>
  {
    LayerCounters& c = slots_.local();
    Span span(c.successors_por_s);
    auto out = inner_->successors_por(s, mode);
    ++c.successors_por_calls;
    c.edges += out.all.size();
    return out;
  }

  void canonicalize(State& s) const
    requires ccref::verify::detail::HasCanonicalize<S>
  {
    LayerCounters& c = slots_.local();
    Span span(c.canonicalize_s);
    inner_->canonicalize(s);
    ++c.canonicalize_calls;
  }

  void encode(const State& s, ccref::ByteSink& sink) const {
    LayerCounters& c = slots_.local();
    const std::size_t before = sink.size();
    {
      Span span(c.encode_s);
      inner_->encode(s, sink);
    }
    ++c.encode_calls;
    c.encode_bytes += sink.size() - before;
  }

  [[nodiscard]] State decode(ccref::ByteSource& src) const {
    Span span(slots_.local().decode_s);
    return inner_->decode(src);
  }

  // Off the hot path (violation messages and traces only): not timed.
  [[nodiscard]] std::string describe(const State& s) const {
    return inner_->describe(s);
  }

  [[nodiscard]] std::vector<LayerCounters> slots() const {
    return slots_.slots();
  }

 private:
  const S* inner_;
  mutable ThreadSlots slots_;
};

class TracedSource final : public ccref::sim::OpSource {
 public:
  explicit TracedSource(ccref::sim::OpSource& inner) : inner_(&inner) {}

  [[nodiscard]] std::uint32_t num_nodes() const override {
    return inner_->num_nodes();
  }
  [[nodiscard]] const std::set<std::string>& vocabulary() const override {
    return inner_->vocabulary();
  }
  bool next(std::uint32_t node, ccref::sim::DesOp& op) override {
    LayerCounters& c = slots_.local();
    ++c.next_calls;
    Span span(c.next_s);
    return inner_->next(node, op);
  }

  [[nodiscard]] std::vector<LayerCounters> slots() const {
    return slots_.slots();
  }

 private:
  ccref::sim::OpSource* inner_;
  ThreadSlots slots_;
};

}  // namespace perfbench
