#ifndef SETREC_RELATIONAL_VECTORIZED_ENGINE_H_
#define SETREC_RELATIONAL_VECTORIZED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"
#include "relational/vectorized/batch.h"

namespace setrec::vectorized {

/// One flat-bytecode instruction. A node's block is
///   kMemoCheck (hit: load result, count a cache hit, jump past the block)
///   ...child blocks...
///   one materializing instruction (finishes the node: stores the memo
///   entry, records EvalNodeStats, leaves the result in `dst`)
/// so the program replays exactly the interpreter's memoized DFS, including
/// its cache-hit counts, while the per-operator work runs columnwise.
struct Insn {
  enum class Op : std::uint8_t {
    kMemoCheck,   // if memo[origin]: dst = it, ++hits, jump `target`
    kMemoLoad,    // dst = memo[origin] (must exist), ++hits
    kJump,        // pc = target
    kJumpIfEmpty, // if regs[a] has no rows: pc = target (π_∅ guards)
    kLoad,        // dst = columnar form of the scanned base relation
    kUnion,       // dst = regs[a] ∪ regs[b]
    kDifference,  // dst = regs[a] − regs[b]
    kProduct,     // dst = regs[a] × regs[b] (row-budget charged)
    kSelect,      // dst = σ_{filter}(regs[a])
    kProject,     // dst = π_{cols}(regs[a]), deduplicated
    kRename,      // dst = regs[a] under the node's scheme
    kHashJoin,    // dst = fused σ-chain over regs[a] × regs[b]
    kMakeEmpty,   // dst = empty table over the node's scheme (π_∅ guard)
  };

  Op op;
  /// The plan operator this instruction belongs to: its origin keys the
  /// memo and EvalNodeStats; materializers read their scheme, conditions
  /// and kind-specific payload from it. Null for jumps.
  const Plan::Node* node = nullptr;
  std::uint32_t dst = 0, a = 0, b = 0;
  std::uint32_t target = 0;  // jump destination (instruction index)

  // Column lists narrowed to the kernels' index width (empty where not
  // applicable).
  std::vector<std::uint32_t> cols;        // kProject: source columns
  std::vector<std::uint32_t> left_keys;   // kHashJoin: probe-side keys
  std::vector<std::uint32_t> right_keys;  // kHashJoin: build-side keys
};

/// A compiled expression: flat code plus the register budget. Holds the
/// plan, so the plan-node pointers baked into the code stay valid for the
/// program's lifetime.
struct Program {
  Plan plan;
  std::vector<Insn> code;
  std::uint32_t num_regs = 0;
};

/// The compiled vectorized backend. An Engine is bound to one Database
/// snapshot and one ExecContext, exactly like the Evaluator that owns it,
/// and replays the interpreter's observable contract: identical results,
/// identical error statuses for runtime failures, identical logical metrics
/// (evaluator.rows / join_probes / join_build_rows), identical memo
/// cache-hit counts and EvalNodeStats shape. Both lower the same Plan, so
/// type errors are reported identically, before any work.
///
/// Two caches live as long as the engine:
///  - loads_: transposed base relations by name,
///  - memo_:  per-node results — the analogue of the interpreter's memo,
///            keyed by node address, so the owner must keep every executed
///            expression alive for the engine's lifetime (the Evaluator
///            pins its roots).
class Engine {
 public:
  Engine(const Database* database, ExecContext* ctx)
      : database_(database), ctx_(ctx) {}

  /// Compiles `plan` (built against this engine's database) and runs it.
  /// `stats` may be null; when given it receives the same per-node
  /// statistics the interpreter records.
  Result<std::shared_ptr<const Relation>> Execute(
      Plan plan, std::unordered_map<const Expr*, EvalNodeStats>* stats);

 private:
  struct MemoEntry {
    std::shared_ptr<const ColumnTable> table;
    // Row form, materialized lazily (only the root of an Execute needs it;
    // interior results stay columnar). Leaf entries alias the Database's
    // shared storage, exactly like the interpreter's leaf memo.
    std::shared_ptr<const Relation> rel;
  };

  Result<std::shared_ptr<const Relation>> Run(
      const Program& program,
      std::unordered_map<const Expr*, EvalNodeStats>* stats);
  Result<ColumnTable> RunOp(
      const Insn& in,
      const std::vector<std::shared_ptr<const ColumnTable>>& regs);
  Result<ColumnTable> RunHashJoin(
      const Insn& in,
      const std::vector<std::shared_ptr<const ColumnTable>>& regs);

  const Database* database_;
  ExecContext* ctx_;
  // Stats sink of the Execute in flight (kHashJoin tallies build/probe rows
  // mid-operator, before its node finishes); null when stats are detached.
  std::unordered_map<const Expr*, EvalNodeStats>* join_stats_ = nullptr;
  std::unordered_map<const Expr*, MemoEntry> memo_;
  std::unordered_map<std::string, std::shared_ptr<const ColumnTable>> loads_;
};

}  // namespace setrec::vectorized

#endif  // SETREC_RELATIONAL_VECTORIZED_ENGINE_H_
