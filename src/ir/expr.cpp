#include "ir/expr.hpp"

#include "ir/process.hpp"
#include "ir/store.hpp"
#include "support/strings.hpp"

namespace ccref::ir {

std::int64_t eval(const Expr& e, const Store& store, const EvalCtx& ctx) {
  using K = Expr::Kind;
  switch (e.kind) {
    case K::IntLit:
    case K::BoolLit:
    case K::NodeLit:
      return e.ival;
    case K::EmptySet:
      return 0;
    case K::VarRef:
      if (e.var == ctx.bound && ctx.bound != kNoVar)
        return static_cast<std::int64_t>(ctx.bound_value);
      return static_cast<std::int64_t>(store.get(e.var));
    case K::SelfId:
      CCREF_REQUIRE_MSG(ctx.self >= 0, "SelfId outside a remote instance");
      return ctx.self;
    case K::Not:
      return eval(*e.a, store, ctx) == 0 ? 1 : 0;
    case K::Add:
      return eval(*e.a, store, ctx) + eval(*e.b, store, ctx);
    case K::Sub:
      return eval(*e.a, store, ctx) - eval(*e.b, store, ctx);
    case K::Eq:
      return eval(*e.a, store, ctx) == eval(*e.b, store, ctx) ? 1 : 0;
    case K::Ne:
      return eval(*e.a, store, ctx) != eval(*e.b, store, ctx) ? 1 : 0;
    case K::Lt:
      return eval(*e.a, store, ctx) < eval(*e.b, store, ctx) ? 1 : 0;
    case K::Le:
      return eval(*e.a, store, ctx) <= eval(*e.b, store, ctx) ? 1 : 0;
    case K::And:
      return eval(*e.a, store, ctx) != 0 && eval(*e.b, store, ctx) != 0;
    case K::Or:
      return eval(*e.a, store, ctx) != 0 || eval(*e.b, store, ctx) != 0;
    case K::SetEmpty:
      return static_cast<std::uint64_t>(eval(*e.a, store, ctx)) == 0;
    case K::SetContains: {
      auto set = static_cast<std::uint64_t>(eval(*e.a, store, ctx));
      auto node = eval(*e.b, store, ctx);
      CCREF_ASSERT(node >= 0 && node < kMaxNodes);
      return (set >> node) & 1u;
    }
    case K::SetSize:
      return NodeSet(static_cast<std::uint64_t>(eval(*e.a, store, ctx)))
          .size();
  }
  CCREF_UNREACHABLE("bad Expr::Kind");
}

bool expr_equal(const Expr& x, const Expr& y) {
  if (x.kind != y.kind || x.ival != y.ival || x.var != y.var) return false;
  if (!!x.a != !!y.a || !!x.b != !!y.b) return false;
  if (x.a && !expr_equal(*x.a, *y.a)) return false;
  if (x.b && !expr_equal(*x.b, *y.b)) return false;
  return true;
}

std::string to_string(const Expr& e, const Process& proc) {
  using K = Expr::Kind;
  auto bin = [&](const char* op) {
    return "(" + to_string(*e.a, proc) + " " + op + " " +
           to_string(*e.b, proc) + ")";
  };
  switch (e.kind) {
    case K::IntLit:
      return strf("%lld", static_cast<long long>(e.ival));
    case K::NodeLit:
      if (static_cast<Value>(e.ival) == kNoNode) return "none";
      return strf("node(%lld)", static_cast<long long>(e.ival));
    case K::BoolLit:
      return e.ival ? "true" : "false";
    case K::EmptySet:
      return "{}";
    case K::VarRef:
      return e.var < proc.vars.size() ? proc.vars[e.var].name
                                      : strf("v%u", e.var);
    case K::SelfId:
      return "self";
    case K::Not:
      return "!" + to_string(*e.a, proc);
    case K::Add:
      return bin("+");
    case K::Sub:
      return bin("-");
    case K::Eq:
      return bin("==");
    case K::Ne:
      return bin("!=");
    case K::Lt:
      return bin("<");
    case K::Le:
      return bin("<=");
    case K::And:
      return bin("&&");
    case K::Or:
      return bin("||");
    case K::SetEmpty:
      return "empty(" + to_string(*e.a, proc) + ")";
    case K::SetContains:
      return "(" + to_string(*e.b, proc) + " in " + to_string(*e.a, proc) +
             ")";
    case K::SetSize:
      return "size(" + to_string(*e.a, proc) + ")";
  }
  CCREF_UNREACHABLE("bad Expr::Kind");
}

namespace ex {
namespace {
ExprP make(Expr::Kind k, std::int64_t ival, VarId var, ExprP a, ExprP b) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->ival = ival;
  e->var = var;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}
}  // namespace

ExprP lit(std::int64_t v) {
  return make(Expr::Kind::IntLit, v, kNoVar, nullptr, nullptr);
}
ExprP node(std::int64_t id) {
  return make(Expr::Kind::NodeLit, id, kNoVar, nullptr, nullptr);
}
ExprP no_node() {
  return make(Expr::Kind::NodeLit, static_cast<std::int64_t>(kNoNode), kNoVar,
              nullptr, nullptr);
}
ExprP boolean(bool v) {
  return make(Expr::Kind::BoolLit, v ? 1 : 0, kNoVar, nullptr, nullptr);
}
ExprP empty_set() {
  return make(Expr::Kind::EmptySet, 0, kNoVar, nullptr, nullptr);
}
ExprP var(VarId v) { return make(Expr::Kind::VarRef, 0, v, nullptr, nullptr); }
ExprP self() { return make(Expr::Kind::SelfId, 0, kNoVar, nullptr, nullptr); }
ExprP negate(ExprP a) {
  return make(Expr::Kind::Not, 0, kNoVar, std::move(a), nullptr);
}
ExprP add(ExprP a, ExprP b) {
  return make(Expr::Kind::Add, 0, kNoVar, std::move(a), std::move(b));
}
ExprP sub(ExprP a, ExprP b) {
  return make(Expr::Kind::Sub, 0, kNoVar, std::move(a), std::move(b));
}
ExprP eq(ExprP a, ExprP b) {
  return make(Expr::Kind::Eq, 0, kNoVar, std::move(a), std::move(b));
}
ExprP ne(ExprP a, ExprP b) {
  return make(Expr::Kind::Ne, 0, kNoVar, std::move(a), std::move(b));
}
ExprP lt(ExprP a, ExprP b) {
  return make(Expr::Kind::Lt, 0, kNoVar, std::move(a), std::move(b));
}
ExprP le(ExprP a, ExprP b) {
  return make(Expr::Kind::Le, 0, kNoVar, std::move(a), std::move(b));
}
ExprP land(ExprP a, ExprP b) {
  return make(Expr::Kind::And, 0, kNoVar, std::move(a), std::move(b));
}
ExprP lor(ExprP a, ExprP b) {
  return make(Expr::Kind::Or, 0, kNoVar, std::move(a), std::move(b));
}
ExprP set_empty(ExprP a) {
  return make(Expr::Kind::SetEmpty, 0, kNoVar, std::move(a), nullptr);
}
ExprP set_contains(ExprP set, ExprP node) {
  return make(Expr::Kind::SetContains, 0, kNoVar, std::move(set),
              std::move(node));
}
ExprP set_size(ExprP set) {
  return make(Expr::Kind::SetSize, 0, kNoVar, std::move(set), nullptr);
}

}  // namespace ex
}  // namespace ccref::ir
