#ifndef SETREC_SQL_ENGINE_H_
#define SETREC_SQL_ENGINE_H_

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "algebraic/method_library.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "core/instance.h"
#include "relational/evaluator.h"

namespace setrec {

/// A row predicate for DELETE statements, evaluated against the *current*
/// instance state (which is what makes cursor semantics order-sensitive).
using RowPredicate =
    std::function<Result<bool>(const Instance&, ObjectId row)>;

/// Cursor-based DELETE (Section 7): visits the rows of `cls` in `order`
/// (default: sorted), re-evaluates `pred` against the evolving instance and
/// removes a satisfying row (with its incident edges) immediately, before
/// inspecting the next row.
Result<Instance> CursorDelete(const Instance& instance, ClassId cls,
                              const RowPredicate& pred,
                              std::span<const ObjectId> order = {},
                              ExecContext& ctx = ExecContext::Default());

/// Set-oriented DELETE: first identifies every row satisfying `pred` against
/// the *input* instance, then removes them all together — the two-phase
/// semantics of the standalone SQL statement. A copy plus
/// SetOrientedDeleteInPlace under the same options.
Result<Instance> SetOrientedDelete(const Instance& instance, ClassId cls,
                                   const RowPredicate& pred,
                                   const ExecOptions& options = {});

/// In-place set-oriented DELETE with all-or-nothing semantics: snapshots the
/// instance, removes the doomed rows incrementally, and restores the
/// snapshot on ANY failure (governance, injected fault, or structural
/// error), so a failed statement leaves `instance` bit-identical to its
/// pre-statement state. The options carry the context and the
/// observability sinks; logging the delta and publishing it to a view cache
/// are the caller's (DurableStore::Delete does both).
Status SetOrientedDeleteInPlace(Instance& instance, ClassId cls,
                                const RowPredicate& pred,
                                const ExecOptions& options = {});

/// Runs CursorDelete under every permutation of the rows (bounded by
/// `max_rows`!) and reports whether all outcomes agree; when they do not,
/// `disagreement` holds a second outcome differing from `first`.
struct CursorOrderReport {
  bool order_independent = false;
  std::optional<Instance> first;
  std::optional<Instance> disagreement;
};
Result<CursorOrderReport> TestCursorDeleteOrders(
    const Instance& instance, ClassId cls, const RowPredicate& pred,
    std::size_t max_rows = 6, ExecContext& ctx = ExecContext::Default());

/// Section 7 predicates over the payroll tables.
/// "Salary in table Fire" — used by the correct cursor delete.
RowPredicate SalaryInFire(const PayrollSchema& schema);
/// "exists E1 with E1.EmpId = Manager and E1.Salary in table Fire" — the
/// manager variant whose cursor form is order dependent (an employee
/// survives when their manager was visited and deleted first).
RowPredicate ManagerSalaryInFire(const PayrollSchema& schema);

/// Cursor-based UPDATE: sequential application of `method` to the receiver
/// list in the given order (update (B)/(C) of Section 7 are instances of
/// this with the library methods).
Result<Instance> CursorUpdate(const AlgebraicUpdateMethod& method,
                              const Instance& instance,
                              std::span<const Receiver> order,
                              ExecContext& ctx = ExecContext::Default());

/// The signature [C, B] of "a := arg1" for a property a of type C → B: the
/// type of every set-oriented UPDATE's receivers. InvalidArgument for an
/// unknown property.
Result<MethodSignature> AssignArgSignature(const Schema& schema,
                                           PropertyId property);

/// The trivial modification update "a := arg1" of type [C, B] that underlies
/// every set-oriented UPDATE statement (Section 7): key-order independent by
/// Proposition 5.8. The statements below do not build it; they run its
/// effect on a key set directly (ApplyAssignToKeySet).
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAssignArgMethod(
    const Schema* schema, PropertyId property);

/// Set-oriented UPDATE: computes the receiver key set with `receiver_query`
/// against the input instance (phase one), then applies `a := arg1` to it
/// (phase two). `receiver_query`'s scheme must be (receiving class, target
/// class of `property`). A copy plus SetOrientedUpdateInPlace under the same
/// options.
Result<Instance> SetOrientedUpdate(const Instance& instance,
                                   PropertyId property,
                                   const ExprPtr& receiver_query,
                                   const ExecOptions& options = {});

/// In-place set-oriented UPDATE with all-or-nothing semantics. Phase one,
/// ComputeUpdateReceivers, computes the receiver key set against the input
/// state: from options.view_cache when it serves the query, from scratch
/// on options.backend otherwise. Phase two is ApplyAssignToKeySet under the
/// same context. On ANY failure — a governance stop, an injected fault at
/// any probe point, or a structural error — `instance` is bit-identical to
/// its pre-statement state. The statement only reads options.view_cache;
/// the caller feeds it the committed delta (DurableStore does, after
/// logging it).
Status SetOrientedUpdateInPlace(Instance& instance, PropertyId property,
                                const ExprPtr& receiver_query,
                                const ExecOptions& options = {});

/// The result of the UPDATE's phase one.
struct UpdateReceivers {
  std::vector<Receiver> receivers;
  bool from_view_cache = false;  // options.view_cache served the query
};

/// Phase one of the set-oriented UPDATE, the one the statement and EXPLAIN
/// ANALYZE of it both run: the receivers of type `signature` that
/// `receiver_query` selects over `instance`, in canonical order. Read from
/// options.view_cache when it serves the query (CachedRead,
/// incremental/view_cache.h: a governance stop propagates, any other cache
/// error is a miss); on a miss, evaluated from scratch over
/// EncodeInstance(instance) by an Evaluator under `options` (its context
/// and backend), which records per-node statistics into `node_stats` when
/// given. Either way the rows become receivers through
/// ReceiversFromRelation.
Result<UpdateReceivers> ComputeUpdateReceivers(
    const Instance& instance, const ExprPtr& receiver_query,
    const MethodSignature& signature, const ExecOptions& options = {},
    std::unordered_map<const Expr*, EvalNodeStats>* node_stats = nullptr);

/// Phase two of the set-oriented UPDATE, the one the statement, its copying
/// form and EXPLAIN ANALYZE all run: applies `a := arg1` to the receivers of
/// type AssignArgSignature(property). Fails with FailedPrecondition before
/// any mutation unless `receivers` is a key set. Because it is one, the
/// update replaces each receiving row's a-edges by the single queried
/// target, row by row, after snapshotting the instance; on any failure the
/// snapshot is restored.
Status ApplyAssignToKeySet(Instance& instance, PropertyId property,
                           std::span<const Receiver> receivers,
                           const ExecOptions& options = {});

}  // namespace setrec

#endif  // SETREC_SQL_ENGINE_H_
