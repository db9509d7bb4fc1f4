// Core value/type vocabulary of the protocol IR.
//
// Protocols manipulate four value types:
//   Bool    — guard conditions, dirty flags;
//   Int     — abstract cache-line data (bounded so state spaces stay finite);
//   Node    — remote-node identities (the paper's `o`, `i`, `j`);
//   NodeSet — directory copysets for invalidate-style protocols.
//
// All values share one canonical 64-bit representation so stores, message
// payloads, and state encodings stay uniform.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "support/contracts.hpp"
#include "support/node_set.hpp"

namespace ccref::ir {

enum class Type : std::uint8_t { Bool, Int, Node, NodeSet };

[[nodiscard]] constexpr std::string_view type_name(Type t) {
  switch (t) {
    case Type::Bool: return "bool";
    case Type::Int: return "int";
    case Type::Node: return "node";
    case Type::NodeSet: return "nodeset";
  }
  return "?";
}

/// Canonical value representation. Bool: 0/1. Int: [0, bound). Node: id.
/// NodeSet: bitmask.
using Value = std::uint64_t;

/// The null node: the value of a Node variable that currently names no
/// remote ("dead binder"). It sits one past the largest legal node id, so it
/// can never collide with a real remote and — crucially for symmetry
/// reduction — is a fixed point of every node permutation. Protocols must
/// reset dead Node binders to kNoNode (`none` in the DSL), never to a
/// literal id like node(0): a scalarset-typed literal pins one concrete
/// remote and breaks the permutation-equivariance the orbit quotient relies
/// on (and inflates the unreduced state space with stale-id distinctions).
inline constexpr Value kNoNode = 64;  // == support kMaxNodes

using VarId = std::uint16_t;
using StateId = std::uint16_t;
using MsgId = std::uint8_t;

inline constexpr VarId kNoVar = 0xffff;
inline constexpr StateId kNoState = 0xffff;

/// Declared process-local variable.
struct VarDecl {
  std::string name;
  Type type = Type::Int;
  Value init = 0;
  /// For Int variables: assignments reduce modulo this bound, keeping the
  /// reachable state space finite (paper protocols use tiny data domains).
  std::uint32_t bound = 2;
};

/// Message type declared by a protocol: a name plus payload field types.
struct MsgDecl {
  std::string name;
  std::vector<Type> payload;
};

/// Maximum payload fields per message (cache-line data + one id is plenty).
inline constexpr std::size_t kMaxPayload = 2;

/// A message's payload values held inline: at most kMaxPayload of them
/// (ProtocolBuilder::msg rejects wider messages), so a message copies
/// without the heap.
class Payload {
 public:
  Payload() = default;
  Payload(std::initializer_list<Value> values) {
    for (Value v : values) push_back(v);
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Value operator[](std::size_t f) const { return v_[f]; }
  Value& operator[](std::size_t f) { return v_[f]; }
  [[nodiscard]] const Value* begin() const { return v_.data(); }
  [[nodiscard]] const Value* end() const { return v_.data() + n_; }
  Value* begin() { return v_.data(); }
  Value* end() { return v_.data() + n_; }

  void push_back(Value v) {
    CCREF_ASSERT(n_ < kMaxPayload);
    v_[n_++] = v;
  }
  /// Resize to `n` fields; new fields are zero.
  void resize(std::size_t n) {
    CCREF_REQUIRE(n <= kMaxPayload);
    for (std::size_t f = n_; f < n; ++f) v_[f] = 0;
    n_ = static_cast<std::uint8_t>(n);
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.n_ == b.n_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::array<Value, kMaxPayload> v_{};
  std::uint8_t n_ = 0;
};

}  // namespace ccref::ir
