#ifndef SETREC_RELATIONAL_EXPRESSION_H_
#define SETREC_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/schema.h"

namespace setrec {

class Expr;
/// Expressions are immutable and freely shared: substitution (used heavily
/// by the Theorem 5.6 reduction) builds DAGs, and the evaluator memoizes per
/// node, so a shared subexpression is computed once.
using ExprPtr = std::shared_ptr<const Expr>;

/// A relational algebra expression (Section 5.1): the standard algebra with
/// union, difference, Cartesian product, equality selection, projection and
/// renaming; the *positive* algebra (Definition 5.2) drops difference and
/// adds non-equality selection. Both selections are attribute-to-attribute
/// (the paper's algebra is constant-free).
class Expr {
 public:
  enum class Op {
    kRelation,   // named relation reference
    kUnion,      // left ∪ right (identical schemes)
    kDifference, // left − right (identical schemes); NOT positive
    kProduct,    // left × right (disjoint attribute names)
    kSelectEq,   // σ_{a=b}(child)
    kSelectNeq,  // σ_{a≠b}(child); positive-algebra extension
    kProject,    // π_{attrs}(child); attrs may be empty (π_∅ guard)
    kRename,     // ρ_{from→to}(child)
  };

  // Factories. These only assemble the tree; schemes are checked by
  // InferScheme against a catalog.
  static ExprPtr Relation(std::string name);
  static ExprPtr Union(ExprPtr left, ExprPtr right);
  static ExprPtr Difference(ExprPtr left, ExprPtr right);
  static ExprPtr Product(ExprPtr left, ExprPtr right);
  static ExprPtr SelectEq(ExprPtr child, std::string a, std::string b);
  static ExprPtr SelectNeq(ExprPtr child, std::string a, std::string b);
  static ExprPtr Project(ExprPtr child, std::vector<std::string> attrs);
  static ExprPtr Rename(ExprPtr child, std::string from, std::string to);

  Op op() const { return op_; }
  const std::string& relation_name() const { return relation_name_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  const ExprPtr& child() const { return left_; }
  const std::string& attr_a() const { return attr_a_; }
  const std::string& attr_b() const { return attr_b_; }
  const std::vector<std::string>& projection() const { return projection_; }
  const std::string& rename_from() const { return attr_a_; }
  const std::string& rename_to() const { return attr_b_; }

 private:
  explicit Expr(Op op) : op_(op) {}

  Op op_;
  std::string relation_name_;
  ExprPtr left_;
  ExprPtr right_;
  std::string attr_a_;
  std::string attr_b_;
  std::vector<std::string> projection_;
};

/// True when the expression lies in the positive algebra (Definition 5.2):
/// no difference operator anywhere. Visits each shared subterm once.
bool IsPositive(const Expr& expr);

/// Names of all relations referenced by the expression, sorted and deduped.
/// Visits each shared subterm once.
std::vector<std::string> ReferencedRelations(const Expr& expr);

/// Validates the expression against `catalog` and computes its result
/// scheme: union/difference need identical schemes, product needs disjoint
/// attribute names, selections need both attributes present with equal
/// domains, projection needs distinct present attributes, renaming needs a
/// present source and a fresh target (domains are preserved automatically).
/// This is the root scheme of Plan::Build (relational/plan.h), which every
/// executor plans with, so evaluation fails exactly where this does.
Result<RelationScheme> InferScheme(const Expr& expr, const Catalog& catalog);

/// Replaces every reference to relation `name` by `replacement` (used by the
/// Theorem 5.6 reduction, which substitutes E_b[t] for Cb). Shares untouched
/// subtrees, and keeps the input's sharing: each distinct input node is
/// rewritten once, into one output node.
ExprPtr SubstituteRelation(const ExprPtr& expr, const std::string& name,
                           const ExprPtr& replacement);

/// Renders the expression with conventional notation, e.g.
/// "π[f](σ[self=D](self × Df)) ∪ arg1".
std::string ExprToString(const Expr& expr);

}  // namespace setrec

#endif  // SETREC_RELATIONAL_EXPRESSION_H_
