#ifndef SETREC_RELATIONAL_PLAN_H_
#define SETREC_RELATIONAL_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace setrec {

/// The physical operator plan of one expression DAG: the single place that
/// type-checks an expression, resolves attribute names to column indices and
/// fuses σ-chains over products into hash joins. Every consumer walks it —
/// the interpreter executes its nodes, the vectorized engine lowers them,
/// the incremental view cache maintains them, and EXPLAIN renders them — so
/// the consumers agree on operator shape by construction.
///
/// Built in one pass memoized on expression identity: a subterm shared in
/// the DAG (the Theorem 5.6 substitution and the par(E) rewrite share
/// heavily) is one plan node, and building is linear in the DAG's size.
/// Type errors are InferScheme's, with its codes and messages. A plan
/// borrows its expression: the DAG must outlive it.
class Plan {
 public:
  enum class Kind : std::uint8_t {
    kScan,        // base relation origin->relation_name()
    kUnion,       // left ∪ right
    kDifference,  // left − right
    kProduct,     // left × right; `guard` marks a π∅ side
    kFilter,      // σ over a non-product input: `filter`
    kProject,     // π onto `columns` (may be empty: the π∅ guard)
    kRename,      // ρ: tuples pass through, only the scheme changes
    kJoin,        // σ-chain over a product, fused into one hash join
  };

  /// Which side of a product is a π∅ guard (E × π∅(...)): when it is empty,
  /// executors skip the other side's data and return an empty relation.
  enum class Guard : std::uint8_t { kNone, kLeft, kRight };

  /// One selection condition with its attributes resolved to column indices
  /// local to the side each lies on. A filter's condition lies on its one
  /// input (a_left = b_left = true).
  struct Cond {
    const Expr* origin = nullptr;  // the σ node: names and = or ≠
    bool equal = true;
    bool a_left = true;
    bool b_left = true;
    std::size_t ia = 0;
    std::size_t ib = 0;

    /// Whether a tuple of the condition's side satisfies it.
    bool Holds(const Tuple& t) const {
      return (t.at(ia) == t.at(ib)) == equal;
    }
  };

  struct Node {
    Kind kind = Kind::kScan;
    /// The expression node this operator computes — for kJoin the chain's
    /// top σ. Executors key their memo and EvalNodeStats by it.
    const Expr* origin = nullptr;
    RelationScheme scheme;
    /// Inputs, as indices into nodes(): `left` is a unary operator's input
    /// (for kJoin, the product's left side), `right` a binary one's second.
    std::size_t left = 0;
    std::size_t right = 0;

    Guard guard = Guard::kNone;        // kProduct
    Cond filter;                       // kFilter
    std::vector<std::size_t> columns;  // kProject: source column per output

    /// kJoin: every condition of the chain lands in exactly one class, in
    /// chain order (top σ first). The hash join builds on the right side
    /// and probes with the left.
    std::vector<Cond> keys;           // cross equalities
    std::vector<Cond> probe_filters;  // both attributes on the left side
    std::vector<Cond> build_filters;  // both attributes on the right side
    std::vector<Cond> residuals;      // cross non-equalities, per match
    /// `keys` as (left column, right column) pairs, split by side.
    std::vector<std::size_t> left_key;
    std::vector<std::size_t> right_key;
  };

  /// Plans `root` with base-relation schemes from `catalog`.
  static Result<Plan> Build(const Expr& root, const Catalog& catalog);
  /// Plans `root` with base-relation schemes from `database`'s relations.
  static Result<Plan> Build(const Expr& root, const Database& database);

  /// All operators, inputs before the operators reading them; the root is
  /// last.
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(std::size_t i) const { return nodes_[i]; }
  const Node& root() const { return nodes_.back(); }
  std::size_t size() const { return nodes_.size(); }

  /// Names of the base relations the plan scans, sorted and distinct.
  const std::vector<std::string>& base_relations() const {
    return base_relations_;
  }

  /// What a fan-out over slices of base relation `varying` can compute
  /// once, before the fan-out (Evaluator::Hoist does; EXPLAIN shows it).
  struct Hoisting {
    /// Per node (indexed like nodes()): whether its subterm scans
    /// `varying`, i.e. must be computed per slice.
    std::vector<bool> scans;
    /// The maximal subterms that do not scan `varying` — inputs of
    /// operators that do, or the root itself — in plan order.
    std::vector<std::size_t> once;
    /// The joins that scan `varying` on their probe (left) side only: their
    /// hash table over the right side can be built once.
    std::vector<std::size_t> builds;
  };
  Hoisting Hoist(const std::string& varying) const;

  /// Whether the compiled vectorized backend lowers every operator.
  bool vectorizable() const { return vectorizable_; }

 private:
  class Builder;

  std::vector<Node> nodes_;
  std::vector<std::string> base_relations_;
  bool vectorizable_ = true;
};

}  // namespace setrec

#endif  // SETREC_RELATIONAL_PLAN_H_
