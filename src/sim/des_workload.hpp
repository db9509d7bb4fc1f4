// Workload sources for the discrete-event simulator.
//
// One interface, three producers: an adapter over sim::Workload (the fixed
// per-remote op lists of E-MSG, E-BUF and lock_server's convoy),
// synthetic generators (migratory/invalidate access streams and an
// open-loop lock_server arrival process that scales to millions of
// clients), and a trace-file replayer (sim/trace.hpp).
//
// An OpSource hands out ops per node, in that node's program order. The
// engine may call next() concurrently for DIFFERENT nodes (parallel lanes);
// implementations keep per-node cursors/RNG streams so node programs are
// independent of global call order — the same seed yields the same per-node
// stream no matter how many lanes run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ir/process.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"

namespace ccref::sim {

/// One operation for the discrete-event engine. `name` and `decisions`
/// borrow from the owning source (stable for its lifetime); copies are two
/// pointers, not string churn.
struct DesOp {
  const char* name = "";
  std::uint64_t addr = 0;
  const std::vector<std::string>* decisions = nullptr;
  ir::StateId goal = ir::kNoState;
  // A second state that also satisfies the op: a read is served by S *or*
  // M (a node re-reading a block it wrote must not wait for S — it never
  // downgrades, and the op would wedge with empty channels).
  ir::StateId alt_goal = ir::kNoState;
  std::uint64_t think = 0;  // cycles before issue (after prior completion)
  bool write = false;       // a store: eligible for the write buffer
};

class OpSource {
 public:
  virtual ~OpSource() = default;
  [[nodiscard]] virtual std::uint32_t num_nodes() const = 0;
  /// Controllable decision labels (the gate's vocabulary).
  [[nodiscard]] virtual const std::set<std::string>& vocabulary() const = 0;
  /// Next op in `node`'s program order; false when the stream is done.
  virtual bool next(std::uint32_t node, DesOp& op) = 0;
};

/// Protocol-specific mapping from trace mnemonics (r/w/acq/rel/evict) to
/// decision sets and goal states. Built by protocol name; unknown protocols
/// get nullopt.
struct OpSpec {
  std::string mnemonic;
  std::vector<std::string> decisions;
  ir::StateId goal = ir::kNoState;
  bool write = false;
  ir::StateId alt_goal = ir::kNoState;  // stronger state that also serves
};

class OpMap {
 public:
  [[nodiscard]] static std::optional<OpMap> for_protocol(
      const ir::Protocol& p);
  [[nodiscard]] const OpSpec* find(const std::string& mnemonic) const;

  std::vector<OpSpec> specs;
  std::set<std::string> vocabulary;
  /// The mnemonic issued between accesses to relinquish the line/lock
  /// ("rel"); synthetic generators pair every access with it.
  std::string release;
};

/// Adapter over sim::Workload: same ops, same order, addr 0 for everything,
/// zero think time — one address instance whose remotes are the workload's.
class WorkloadSource final : public OpSource {
 public:
  explicit WorkloadSource(const Workload& w)
      : w_(&w), cursors_(w.per_remote.size(), 0) {}

  [[nodiscard]] std::uint32_t num_nodes() const override {
    return static_cast<std::uint32_t>(w_->per_remote.size());
  }
  [[nodiscard]] const std::set<std::string>& vocabulary() const override {
    return w_->vocabulary;
  }
  bool next(std::uint32_t node, DesOp& op) override;

 private:
  const Workload* w_;
  std::vector<std::size_t> cursors_;
};

/// Synthetic open/closed-loop generator. Each node performs `ops_per_node`
/// access/release pairs against a uniform random address; think times are
/// uniform in [0, 2*think_mean]. With `arrival_window > 0` the FIRST op of
/// each node is offset uniformly inside the window — an open-loop arrival
/// process (the millions-of-clients lock_server configuration).
struct SyntheticConfig {
  std::string kind = "lock_server";  // lock_server | migratory | invalidate
  std::uint32_t nodes = 1024;
  std::uint32_t ops_per_node = 4;  // access/release pairs
  std::uint64_t addresses = 1;
  double write_fraction = 0.3;  // migratory/invalidate: store probability
  std::uint64_t think_mean = 32;
  std::uint64_t arrival_window = 0;
  std::uint64_t seed = 1;
};

class SyntheticSource final : public OpSource {
 public:
  /// `p` must be the protocol named by `cfg.kind`.
  SyntheticSource(const ir::Protocol& p, const SyntheticConfig& cfg);

  [[nodiscard]] std::uint32_t num_nodes() const override {
    return cfg_.nodes;
  }
  [[nodiscard]] const std::set<std::string>& vocabulary() const override {
    return map_.vocabulary;
  }
  bool next(std::uint32_t node, DesOp& op) override;

 private:
  struct NodeCursor {
    Rng rng;
    std::uint32_t pairs_left = 0;
    bool release_next = false;
    std::uint64_t addr = 0;
    bool started = false;
  };

  SyntheticConfig cfg_;
  OpMap map_;
  const OpSpec* read_ = nullptr;
  const OpSpec* write_ = nullptr;
  const OpSpec* release_ = nullptr;
  std::vector<NodeCursor> cursors_;
};

/// Replays a parsed trace; `p` selects the mnemonic mapping.
class TraceSource final : public OpSource {
 public:
  TraceSource(const ir::Protocol& p, const Trace& trace);

  [[nodiscard]] std::uint32_t num_nodes() const override {
    return static_cast<std::uint32_t>(per_node_.size());
  }
  [[nodiscard]] const std::set<std::string>& vocabulary() const override {
    return map_.vocabulary;
  }
  bool next(std::uint32_t node, DesOp& op) override;

 private:
  const Trace* trace_;
  OpMap map_;
  std::vector<std::vector<std::uint32_t>> per_node_;  // record indices
  std::vector<std::size_t> cursors_;
};

}  // namespace ccref::sim
