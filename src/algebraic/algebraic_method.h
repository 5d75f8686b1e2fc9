#ifndef SETREC_ALGEBRAIC_ALGEBRAIC_METHOD_H_
#define SETREC_ALGEBRAIC_ALGEBRAIC_METHOD_H_

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "algebraic/update_expression.h"
#include "core/update_method.h"

namespace setrec {

/// One algebraic update statement `a := E` (Definition 5.4(3)).
struct UpdateStatement {
  PropertyId property;
  ExprPtr expression;
};

/// An algebraic update method (Definition 5.4(4)): a set of update
/// statements over distinct properties of the receiving class. Applying it
/// to (I, t) replaces, for each statement a := E, all a-edges leaving the
/// receiving object by edges to the elements of E(I, t) (Definition
/// 5.4(5)). Such methods never create or remove objects — only properties of
/// the receiving object change.
class AlgebraicUpdateMethod final : public UpdateMethod {
 public:
  /// Validates all statements (properties of the receiving class, unary
  /// expressions of the right domain, at most one statement per property).
  static Result<std::unique_ptr<AlgebraicUpdateMethod>> Make(
      const Schema* schema, MethodSignature signature, std::string name,
      std::vector<UpdateStatement> statements);

  /// M(I, t): the length-one case of FoldSequence, behind CheckReceiver
  /// instead of the sequence's step guard.
  Result<Instance> Apply(
      const Instance& instance, const Receiver& receiver,
      ExecContext& ctx = ExecContext::Default()) const override;

  /// M(I, t1 ... tn) over one encoding of I. The instance is copied and
  /// encoded once. Since the method creates and deletes no objects, a step
  /// changes only the receiver relations (self, arg_i) and the relations of
  /// the properties it writes; one parent Evaluator hoists once what scans
  /// none of them (Evaluator::Hoist: receiver-free subterms and the join
  /// builds over them), on `backend`, and each step evaluates every
  /// statement against the pre-step snapshot on a child of it. The step
  /// then applies the (receiving, b) edges it removes and adds to the
  /// instance and to the encoded property relation, in O(|delta|).
  Result<Instance> FoldSequence(const Instance& instance,
                                std::span<const Receiver> sequence,
                                ExecContext& ctx,
                                ExecBackend backend) const override;

  const std::vector<UpdateStatement>& statements() const {
    return statements_;
  }
  const MethodContext& context() const { return context_; }

  /// True when all update expressions are positive (Definition 5.10).
  bool IsPositiveMethod() const;

  /// The set of property ids this method updates (the paper's set A).
  std::vector<PropertyId> UpdatedProperties() const;

  /// Renders as "name[σ] { a := E; ... }".
  std::string ToString() const;

 private:
  AlgebraicUpdateMethod(MethodContext context, std::string name,
                        std::vector<UpdateStatement> statements);

  /// The one encode-evaluate-splice loop behind Apply and FoldSequence;
  /// each step runs SequenceStep when `in_sequence`, else CheckReceiver.
  Result<Instance> Fold(const Instance& instance,
                        std::span<const Receiver> sequence, ExecContext& ctx,
                        ExecBackend backend, bool in_sequence) const;

  MethodContext context_;
  std::vector<UpdateStatement> statements_;
  /// The relations a step changes: self, arg_i and the written properties'.
  std::set<std::string> varying_;
};

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_ALGEBRAIC_METHOD_H_
