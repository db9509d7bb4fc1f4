// Naive reference explorer: the oracle the verification engines are checked
// against. A plain breadth-first search over a std::set of ByteSink
// encodings — no storage tiers, no memory budget, no partial-order
// reduction, no threads — so its verdict and counts depend on nothing but
// the system's successor relation and, with symmetry on, canonicalize().
#pragma once

#include <cstddef>
#include <cstring>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "sem/label.hpp"
#include "support/bytes.hpp"
#include "verify/checker.hpp"

namespace ccref::oracle {

struct ReferenceResult {
  verify::Status status = verify::Status::Ok;
  std::size_t states = 0;
  std::size_t transitions = 0;
};

/// Shortlex order on encodings: length, then bytes. (std::less on byte
/// vectors trips a GCC 12 -Wstringop-overread false positive.)
struct Shortlex {
  bool operator()(const std::vector<std::byte>& a,
                  const std::vector<std::byte>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
  }
};

/// Every reachable state (one representative per orbit when `canonical`),
/// and every edge out of each. A state without successors ends the search
/// with Status::Deadlock, as the engines' deadlock detection does.
template <class Sys>
ReferenceResult reference_explore(const Sys& sys, bool canonical) {
  using State = typename Sys::State;
  auto represent = [&](State s) {
    if (canonical) sys.canonicalize(s);
    return s;
  };
  auto encoding = [&](const State& s) {
    ByteSink sink;
    sys.encode(s, sink);
    auto b = sink.bytes();
    return std::vector<std::byte>(b.begin(), b.end());
  };
  ReferenceResult r;
  std::set<std::vector<std::byte>, Shortlex> seen;
  std::deque<State> frontier{represent(sys.initial())};
  seen.insert(encoding(frontier.front()));
  while (!frontier.empty()) {
    State s = std::move(frontier.front());
    frontier.pop_front();
    auto succs = sys.successors(s, sem::LabelMode::Quiet);
    if (succs.empty()) {
      r.status = verify::Status::Deadlock;
      break;
    }
    for (auto& edge : succs) {
      ++r.transitions;
      State t = represent(std::move(edge.first));
      if (seen.insert(encoding(t)).second) frontier.push_back(std::move(t));
    }
  }
  r.states = seen.size();
  return r;
}

}  // namespace ccref::oracle
