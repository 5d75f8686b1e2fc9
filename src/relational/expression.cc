#include "relational/expression.h"

#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace setrec {

ExprPtr Expr::Relation(std::string name) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kRelation));
  node->relation_name_ = std::move(name);
  return node;
}

ExprPtr Expr::Union(ExprPtr left, ExprPtr right) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kUnion));
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprPtr Expr::Difference(ExprPtr left, ExprPtr right) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kDifference));
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprPtr Expr::Product(ExprPtr left, ExprPtr right) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kProduct));
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprPtr Expr::SelectEq(ExprPtr child, std::string a, std::string b) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kSelectEq));
  node->left_ = std::move(child);
  node->attr_a_ = std::move(a);
  node->attr_b_ = std::move(b);
  return node;
}

ExprPtr Expr::SelectNeq(ExprPtr child, std::string a, std::string b) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kSelectNeq));
  node->left_ = std::move(child);
  node->attr_a_ = std::move(a);
  node->attr_b_ = std::move(b);
  return node;
}

ExprPtr Expr::Project(ExprPtr child, std::vector<std::string> attrs) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kProject));
  node->left_ = std::move(child);
  node->projection_ = std::move(attrs);
  return node;
}

ExprPtr Expr::Rename(ExprPtr child, std::string from, std::string to) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kRename));
  node->left_ = std::move(child);
  node->attr_a_ = std::move(from);
  node->attr_b_ = std::move(to);
  return node;
}

namespace {
bool HasDifference(const Expr& expr, std::unordered_set<const Expr*>& seen) {
  if (!seen.insert(&expr).second) return false;  // shared subterm: walked once
  if (expr.op() == Expr::Op::kDifference) return true;
  return (expr.left() && HasDifference(*expr.left(), seen)) ||
         (expr.right() && HasDifference(*expr.right(), seen));
}
}  // namespace

bool IsPositive(const Expr& expr) {
  std::unordered_set<const Expr*> seen;
  return !HasDifference(expr, seen);
}

namespace {
void CollectRelations(const Expr& expr, std::unordered_set<const Expr*>& seen,
                      std::set<std::string>& out) {
  if (!seen.insert(&expr).second) return;  // shared subterm: walked once
  if (expr.op() == Expr::Op::kRelation) {
    out.insert(expr.relation_name());
    return;
  }
  if (expr.left()) CollectRelations(*expr.left(), seen, out);
  if (expr.right()) CollectRelations(*expr.right(), seen, out);
}
}  // namespace

std::vector<std::string> ReferencedRelations(const Expr& expr) {
  std::unordered_set<const Expr*> seen;
  std::set<std::string> names;
  CollectRelations(expr, seen, names);
  return {names.begin(), names.end()};
}

namespace {
/// One output node per distinct input node: `done` maps each visited node to
/// its substitute, so shared subterms stay shared and are rewritten once.
ExprPtr Substitute(const ExprPtr& expr, const std::string& name,
                   const ExprPtr& replacement,
                   std::unordered_map<const Expr*, ExprPtr>& done) {
  auto it = done.find(expr.get());
  if (it != done.end()) return it->second;
  ExprPtr out = expr;
  switch (expr->op()) {
    case Expr::Op::kRelation:
      if (expr->relation_name() == name) out = replacement;
      break;
    case Expr::Op::kUnion:
    case Expr::Op::kDifference:
    case Expr::Op::kProduct: {
      ExprPtr l = Substitute(expr->left(), name, replacement, done);
      ExprPtr r = Substitute(expr->right(), name, replacement, done);
      if (l == expr->left() && r == expr->right()) break;
      switch (expr->op()) {
        case Expr::Op::kUnion:
          out = Expr::Union(std::move(l), std::move(r));
          break;
        case Expr::Op::kDifference:
          out = Expr::Difference(std::move(l), std::move(r));
          break;
        default:
          out = Expr::Product(std::move(l), std::move(r));
          break;
      }
      break;
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      ExprPtr c = Substitute(expr->child(), name, replacement, done);
      if (c == expr->child()) break;
      out = expr->op() == Expr::Op::kSelectEq
                ? Expr::SelectEq(std::move(c), expr->attr_a(), expr->attr_b())
                : Expr::SelectNeq(std::move(c), expr->attr_a(),
                                  expr->attr_b());
      break;
    }
    case Expr::Op::kProject: {
      ExprPtr c = Substitute(expr->child(), name, replacement, done);
      if (c == expr->child()) break;
      out = Expr::Project(std::move(c), expr->projection());
      break;
    }
    case Expr::Op::kRename: {
      ExprPtr c = Substitute(expr->child(), name, replacement, done);
      if (c == expr->child()) break;
      out = Expr::Rename(std::move(c), expr->rename_from(), expr->rename_to());
      break;
    }
  }
  done.emplace(expr.get(), out);
  return out;
}
}  // namespace

ExprPtr SubstituteRelation(const ExprPtr& expr, const std::string& name,
                           const ExprPtr& replacement) {
  std::unordered_map<const Expr*, ExprPtr> done;
  return Substitute(expr, name, replacement, done);
}

namespace {
void Print(const Expr& expr, std::ostringstream& out) {
  switch (expr.op()) {
    case Expr::Op::kRelation:
      out << expr.relation_name();
      return;
    case Expr::Op::kUnion:
      out << "(";
      Print(*expr.left(), out);
      out << " ∪ ";
      Print(*expr.right(), out);
      out << ")";
      return;
    case Expr::Op::kDifference:
      out << "(";
      Print(*expr.left(), out);
      out << " − ";
      Print(*expr.right(), out);
      out << ")";
      return;
    case Expr::Op::kProduct:
      out << "(";
      Print(*expr.left(), out);
      out << " × ";
      Print(*expr.right(), out);
      out << ")";
      return;
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq:
      out << "σ[" << expr.attr_a()
          << (expr.op() == Expr::Op::kSelectEq ? "=" : "≠") << expr.attr_b()
          << "](";
      Print(*expr.child(), out);
      out << ")";
      return;
    case Expr::Op::kProject: {
      out << "π[";
      bool first = true;
      for (const std::string& a : expr.projection()) {
        if (!first) out << ",";
        out << a;
        first = false;
      }
      out << "](";
      Print(*expr.child(), out);
      out << ")";
      return;
    }
    case Expr::Op::kRename:
      out << "ρ[" << expr.rename_from() << "→" << expr.rename_to() << "](";
      Print(*expr.child(), out);
      out << ")";
      return;
  }
}
}  // namespace

std::string ExprToString(const Expr& expr) {
  std::ostringstream out;
  Print(expr, out);
  return out.str();
}

}  // namespace setrec
