// Expression AST for guard conditions and message payloads.
//
// Expressions are immutable trees (not std::function) because the refinement
// engine performs *syntactic* analysis on them — request/reply fusion (§3.3)
// and the remote-node restrictions (§2.4) are syntactic properties — and the
// model checker needs deterministic, serializable evaluation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ir/types.hpp"

namespace ccref::ir {

struct Process;  // fwd
class Store;     // fwd

struct Expr;
using ExprP = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind : std::uint8_t {
    IntLit,       // ival
    BoolLit,      // ival (0/1)
    NodeLit,      // ival (a literal node id, used to reset dead binders)
    EmptySet,     // NodeSet literal {}
    VarRef,       // var
    SelfId,       // the executing remote node's id (remote processes only)
    Not,          // a
    Add,          // a + b (Int)
    Sub,          // a - b (Int, may be negative before modular assign)
    Eq,           // a == b (Int or Node or Bool)
    Ne,           // a != b
    Lt,           // a < b (Int)
    Le,           // a <= b (Int)
    And,          // a && b
    Or,           // a || b
    SetEmpty,     // a is the empty set
    SetContains,  // b (Node) in a (NodeSet)
    SetSize,      // |a| as Int
  };

  Kind kind;
  std::int64_t ival = 0;
  VarId var = kNoVar;
  ExprP a, b;
};

/// Evaluation context: `self` is the node id of the executing remote
/// instance (meaningless, and rejected by validation, in the home process).
struct EvalCtx {
  int self = -1;
  /// When set, variable `bound` reads as `bound_value` instead of its store
  /// value: a peer binder made visible to payload expressions before the
  /// store may be written.
  VarId bound = kNoVar;
  Value bound_value = 0;
};

/// Evaluate an expression over a store. Int results are signed and may
/// exceed variable bounds; assignment reduces them (see Stmt).
[[nodiscard]] std::int64_t eval(const Expr& e, const Store& store,
                                const EvalCtx& ctx);

/// Structural equality (used by fusion detection and tests).
[[nodiscard]] bool expr_equal(const Expr& x, const Expr& y);

/// Pretty-print to CSP-like syntax, resolving variable names via `proc`.
[[nodiscard]] std::string to_string(const Expr& e, const Process& proc);

// ---- Factory helpers -------------------------------------------------------
namespace ex {

[[nodiscard]] ExprP lit(std::int64_t v);
[[nodiscard]] ExprP node(std::int64_t id);
/// The null node (kNoNode); the only Node literal protocols should use to
/// reset a dead binder — see the kNoNode doc in types.hpp.
[[nodiscard]] ExprP no_node();
[[nodiscard]] ExprP boolean(bool v);
[[nodiscard]] ExprP empty_set();
[[nodiscard]] ExprP var(VarId v);
[[nodiscard]] ExprP self();
[[nodiscard]] ExprP negate(ExprP a);  // logical not
[[nodiscard]] ExprP add(ExprP a, ExprP b);
[[nodiscard]] ExprP sub(ExprP a, ExprP b);
[[nodiscard]] ExprP eq(ExprP a, ExprP b);
[[nodiscard]] ExprP ne(ExprP a, ExprP b);
[[nodiscard]] ExprP lt(ExprP a, ExprP b);
[[nodiscard]] ExprP le(ExprP a, ExprP b);
[[nodiscard]] ExprP land(ExprP a, ExprP b);
[[nodiscard]] ExprP lor(ExprP a, ExprP b);
[[nodiscard]] ExprP set_empty(ExprP a);
[[nodiscard]] ExprP set_contains(ExprP set, ExprP node);
[[nodiscard]] ExprP set_size(ExprP set);

}  // namespace ex

}  // namespace ccref::ir
