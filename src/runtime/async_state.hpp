// Global state of the asynchronous (refined) protocol.
//
// Each refined process is its unrefined control state plus refinement
// bookkeeping: a transient flag (§3's transient states are identified by the
// communication state that entered them plus, for the home, the output guard
// and pending target), and the incoming-request buffer (§3.1: one slot per
// remote; §3.2: k slots at the home).
#pragma once

#include <optional>
#include <vector>

#include "ir/store.hpp"
#include "runtime/message.hpp"
#include "support/node_set.hpp"

namespace ccref::runtime {

struct RemoteMachine {
  /// True when waiting for an ack/nack/reply after sending a request; the
  /// originating active state is `state`.
  bool transient = false;
  ir::StateId state = 0;
  ir::Store store;
  std::optional<Msg> buffer;  // a pending request from the home

  friend bool operator==(const RemoteMachine&, const RemoteMachine&) = default;
};

/// An open split bus transaction (topology bus, refined broadcast). The home
/// admitted a broadcast request, matched it against one of its generalized
/// input guards, and is now snooping every other remote sequentially; when
/// `pending` drains it applies the recorded guard and acks the requester.
/// While a transaction is open the home takes no other local step — that
/// serialization is what makes the split transaction refine the atomic
/// broadcast rendezvous.
struct BusTxn {
  std::uint8_t src = 0;       // the requester
  std::uint8_t guard = 0;     // input-guard index in the home's current state
  ir::MsgId msg = 0;          // the broadcast message
  std::uint8_t snooping = kNoSnoop;  // remote with an outstanding Snoop
  NodeSet pending;            // remotes not yet snooped
  Payload payload;            // the request's payload, replayed to all

  static constexpr std::uint8_t kNoSnoop = 0xff;

  friend bool operator==(const BusTxn&, const BusTxn&) = default;
};

struct HomeMachine {
  bool transient = false;
  ir::StateId state = 0;        // current state; origin when transient
  std::uint8_t t_guard = 0;     // pending output guard index (transient)
  std::uint8_t t_target = 0;    // pending target remote (transient)
  ir::Store store;
  std::vector<Msg> buffer;      // k-slot request buffer (§3.2)
  std::optional<BusTxn> txn;    // open bus transaction (bus protocols only)

  friend bool operator==(const HomeMachine&, const HomeMachine&) = default;
};

struct AsyncState {
  HomeMachine home;
  std::vector<RemoteMachine> remotes;
  std::vector<Channel> up;    // remote i -> home
  std::vector<Channel> down;  // home -> remote i

  friend bool operator==(const AsyncState&, const AsyncState&) = default;
};

}  // namespace ccref::runtime
