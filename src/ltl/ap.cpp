#include "ltl/ap.hpp"

#include <charconv>

#include "support/strings.hpp"

namespace ccref::ltl {

namespace {

bool parse_int(const std::string& s, int& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

std::string arity_error(const Atom& a, const char* expected) {
  return strf("atom '%s': expected %s", a.spelling.c_str(), expected);
}

/// Bind the atoms whose evaluation only touches the Label (identical at both
/// semantics). Returns true when handled.
template <class State>
bool bind_event_atom(const Atom& a, BoundAtoms<State>& out,
                     std::string& error) {
  if (a.name == "completion") {
    if (!a.args.empty()) {
      error = arity_error(a, "no arguments");
      return true;
    }
    // Any remote's own steps can complete a rendezvous (C3 answers, elided
    // acks), so every remote is POR-visible to this atom.
    out.visible_remotes = ~0ull;
    out.eval.push_back([](const State&, const sem::Label& l) {
      return l.completes_rendezvous;
    });
    return true;
  }
  if (a.name == "granted") {
    if (a.args.empty()) {
      out.visible_remotes = ~0ull;
      out.eval.push_back([](const State&, const sem::Label& l) {
        return l.completes_rendezvous && l.granted_to >= 0;
      });
      return true;
    }
    int i = -1;
    if (a.args.size() != 1 || !parse_int(a.args[0], i)) {
      error = arity_error(a, "one integer remote index");
      return true;
    }
    out.symmetric = false;
    // Only remote i's own steps can carry granted_to == i among ample
    // candidates (foreign candidates grant to themselves or to the home).
    if (i >= 0 && i < 64)
      out.visible_remotes |= 1ull << i;
    else
      out.visible_remotes = ~0ull;
    out.eval.push_back([i](const State&, const sem::Label& l) {
      return l.completes_rendezvous && l.granted_to == i;
    });
    return true;
  }
  if (a.name == "nacked") {
    if (!a.args.empty()) {
      error = arity_error(a, "no arguments");
      return true;
    }
    // A passive remote's C3 step can nack, so every remote is visible.
    out.visible_remotes = ~0ull;
    out.eval.push_back(
        [](const State&, const sem::Label& l) { return l.sent_nack > 0; });
    return true;
  }
  return false;
}

/// Validate a remote index argument against the system size.
bool check_remote_index(const Atom& a, int i, int n, std::string& error) {
  if (i < 0 || i >= n) {
    error = strf("atom '%s': remote index %d out of range (n=%d)",
                 a.spelling.c_str(), i, n);
    return false;
  }
  return true;
}

/// The binder both semantics share. They differ in two readings only:
/// `requested(s, i)` (remote i has an outstanding request) and
/// `buffer_size(s)` (home request-buffer occupancy); control states are the
/// same fields at both levels.
template <class State, class Requested, class BufferSize>
BoundAtoms<State> bind_all(const ir::Protocol& p, int n,
                           const std::vector<Atom>& atoms,
                           Requested requested, BufferSize buffer_size) {
  BoundAtoms<State> out;
  for (const Atom& a : atoms) {
    std::string error;
    if (bind_event_atom(a, out, error)) {
      if (!error.empty()) {
        out.error = std::move(error);
        return out;
      }
      continue;
    }
    if (a.name == "requested") {
      if (a.args.empty()) {
        out.visible_remotes = ~0ull;
        out.eval.push_back([requested, n](const State& s, const sem::Label&) {
          for (int i = 0; i < n; ++i)
            if (requested(s, i)) return true;
          return false;
        });
        continue;
      }
      int i = -1;
      if (a.args.size() != 1 || !parse_int(a.args[0], i)) {
        out.error = arity_error(a, "one integer remote index");
        return out;
      }
      if (!check_remote_index(a, i, n, out.error)) return out;
      out.symmetric = false;
      out.visible_remotes |= 1ull << i;
      out.eval.push_back([requested, i](const State& s, const sem::Label&) {
        return requested(s, i);
      });
      continue;
    }
    if (a.name == "home") {
      ir::StateId sid = a.args.size() == 1 ? p.home.find_state(a.args[0])
                                           : ir::kNoState;
      if (sid == ir::kNoState) {
        out.error = arity_error(a, "one home control-state name");
        return out;
      }
      // The asynchronous HomeMachine::state holds the origin state while
      // transient, which is exactly the §4 abstraction's reading of
      // transient states.
      out.eval.push_back([sid](const State& s, const sem::Label&) {
        return s.home.state == sid;
      });
      continue;
    }
    if (a.name == "remote") {
      int i = -1;
      ir::StateId sid = a.args.size() == 2 && parse_int(a.args[0], i)
                            ? p.remote.find_state(a.args[1])
                            : ir::kNoState;
      if (sid == ir::kNoState) {
        out.error = arity_error(a, "(remote index, control-state name)");
        return out;
      }
      if (!check_remote_index(a, i, n, out.error)) return out;
      out.symmetric = false;
      out.visible_remotes |= 1ull << i;
      out.eval.push_back([i, sid](const State& s, const sem::Label&) {
        return s.remotes[i].state == sid;
      });
      continue;
    }
    if (a.name == "buffer_ge") {
      int c = -1;
      if (a.args.size() != 1 || !parse_int(a.args[0], c)) {
        out.error = arity_error(a, "one integer occupancy");
        return out;
      }
      out.eval.push_back([buffer_size, c](const State& s, const sem::Label&) {
        return buffer_size(s) >= c;
      });
      continue;
    }
    out.error = strf("unknown atom '%s'", a.spelling.c_str());
    return out;
  }
  return out;
}

}  // namespace

BoundAtoms<sem::RvState> bind_atoms(const sem::RendezvousSystem& sys,
                                    const std::vector<Atom>& atoms) {
  const ir::Protocol& p = sys.protocol();
  return bind_all<sem::RvState>(
      p, sys.num_remotes(), atoms,
      // A rendezvous-level remote "has an outstanding request" while it
      // sits in an active communication state (its single output guard is
      // the pending request; §2.4).
      [&p](const sem::RvState& s, int i) {
        return ir::Process::is_active_state(
            p.remote.state(s.remotes[i].state));
      },
      // The rendezvous semantics has no buffers; occupancy is always 0.
      [](const sem::RvState&) { return 0; });
}

BoundAtoms<runtime::AsyncState> bind_atoms(const runtime::AsyncSystem& sys,
                                           const std::vector<Atom>& atoms) {
  return bind_all<runtime::AsyncState>(
      sys.protocol(), sys.num_remotes(), atoms,
      // §3's transient flag: set from the active send until the matching
      // ack/nack/reply resolves the request.
      [](const runtime::AsyncState& s, int i) {
        return s.remotes[i].transient;
      },
      [](const runtime::AsyncState& s) {
        return static_cast<int>(s.home.buffer.size());
      });
}

}  // namespace ccref::ltl
