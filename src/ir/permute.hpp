// Remote-index permutations over IR values and stores.
//
// Symmetry reduction (verify/symmetry.hpp) reorders the n identical remotes
// of a star protocol; every node-indexed fact in the global state must be
// renamed through the same permutation or the result is not a permutation
// of the state at all. Values are renamed by declared type: Node values in
// [0, n) map through the permutation (out-of-range values — the kNoVar-style
// sentinels a home binder holds after `static_cast` of -1 — pass through
// untouched), NodeSet bitmasks have their low n bits permuted, and Bool/Int
// values are identity-invariant.
#pragma once

#include <span>
#include <vector>

#include "ir/store.hpp"
#include "ir/types.hpp"

namespace ccref::ir {

/// A permutation of remote indices: perm[old_index] == new_index.
using NodePerm = std::vector<std::uint8_t>;
/// A borrowed permutation (a NodePerm, or a fixed array on the stack).
using NodePermView = std::span<const std::uint8_t>;

[[nodiscard]] inline bool is_identity(NodePermView perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != i) return false;
  return true;
}

/// Rename one value of declared type `t` through `perm`.
[[nodiscard]] inline Value remap_value(Type t, Value v, NodePermView perm) {
  const std::size_t n = perm.size();
  switch (t) {
    case Type::Node:
      return v < n ? perm[v] : v;
    case Type::NodeSet: {
      Value out = 0;
      for (std::size_t i = 0; i < n; ++i)
        if ((v >> i) & 1u) out |= Value{1} << perm[i];
      // Bits at or above n cannot name a live remote; keep them verbatim so
      // the remap is a bijection on encodings.
      if (n < 64) out |= v & ~((Value{1} << n) - 1);
      return out;
    }
    case Type::Bool:
    case Type::Int:
      return v;
  }
  return v;
}

/// Rename every Node/NodeSet variable of a store through `perm`.
inline void remap_store(Store& store, std::span<const VarDecl> decls,
                        NodePermView perm) {
  for (std::size_t v = 0; v < decls.size(); ++v) {
    if (decls[v].type != Type::Node && decls[v].type != Type::NodeSet)
      continue;
    const auto id = static_cast<VarId>(v);
    store.set(id, remap_value(decls[v].type, store.get(id), perm));
  }
}

}  // namespace ccref::ir
