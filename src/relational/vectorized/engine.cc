#include "relational/vectorized/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "relational/vectorized/kernels.h"

namespace setrec::vectorized {

namespace {

using Op = Insn::Op;
using Clock = std::chrono::steady_clock;

std::vector<std::uint32_t> AllColumns(std::size_t arity) {
  std::vector<std::uint32_t> cols(arity);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

std::vector<std::uint32_t> Narrow(const std::vector<std::size_t>& cols) {
  return {cols.begin(), cols.end()};
}

/// Lowers one plan into a flat program. The compiler walks the plan in the
/// interpreter's exact evaluation order. Every repeated reference to a node
/// becomes a kMemoLoad, never a raw register reuse: a register defined
/// inside a block that an enclosing memo hit skipped would be stale, while
/// the memo is guaranteed populated for every non-conditional node emitted
/// earlier.
class Compiler {
 public:
  explicit Compiler(Program& program) : program_(program) {}

  void Compile() { Emit(program_.plan.root()); }

 private:
  const Plan::Node& Input(std::size_t i) const {
    return program_.plan.node(i);
  }

  std::uint32_t NewReg() { return program_.num_regs++; }

  std::size_t Push(Insn in) {
    program_.code.push_back(std::move(in));
    return program_.code.size() - 1;
  }

  /// Pushes an instruction of `op` for `node`, writing `dst` from inputs
  /// `a` and `b`.
  std::size_t Push(Op op, const Plan::Node* node, std::uint32_t dst,
                   std::uint32_t a = 0, std::uint32_t b = 0) {
    Insn in;
    in.op = op;
    in.node = node;
    in.dst = dst;
    in.a = a;
    in.b = b;
    return Push(std::move(in));
  }

  /// Emits the block computing `n` and returns its result register.
  std::uint32_t Emit(const Plan::Node& n) {
    if (available_.contains(&n)) {
      // Already computed unconditionally earlier in this program: at
      // runtime the memo provably holds it (a skipped ancestor implies the
      // ancestor's own memo hit, which implies this entry was stored on the
      // run that populated the ancestor). Mirrors an interpreter cache hit.
      const std::uint32_t reg = NewReg();
      Push(Op::kMemoLoad, &n, reg);
      return reg;
    }
    const std::uint32_t reg = NewReg();
    const std::size_t check_idx = Push(Op::kMemoCheck, &n, reg);
    switch (n.kind) {
      case Plan::Kind::kScan:
        Push(Op::kLoad, &n, reg);
        break;
      case Plan::Kind::kUnion:
      case Plan::Kind::kDifference: {
        const std::uint32_t l = Emit(Input(n.left));
        const std::uint32_t r = Emit(Input(n.right));
        Push(n.kind == Plan::Kind::kUnion ? Op::kUnion : Op::kDifference, &n,
             reg, l, r);
        break;
      }
      case Plan::Kind::kProduct:
        EmitProduct(n, reg);
        break;
      case Plan::Kind::kFilter:
        Push(Op::kSelect, &n, reg, Emit(Input(n.left)));
        break;
      case Plan::Kind::kProject: {
        Insn in;
        in.op = Op::kProject;
        in.node = &n;
        in.dst = reg;
        in.a = Emit(Input(n.left));
        in.cols = Narrow(n.columns);
        Push(std::move(in));
        break;
      }
      case Plan::Kind::kRename:
        Push(Op::kRename, &n, reg, Emit(Input(n.left)));
        break;
      case Plan::Kind::kJoin: {
        // The whole σ-chain is one kHashJoin owned by the chain's top node:
        // interior selections and the product never become blocks (no memo
        // entries, no stats), exactly as the interpreter executes it.
        Insn join;
        join.op = Op::kHashJoin;
        join.node = &n;
        join.dst = reg;
        join.a = Emit(Input(n.left));
        join.b = Emit(Input(n.right));
        join.left_keys = Narrow(n.left_key);
        join.right_keys = Narrow(n.right_key);
        Push(std::move(join));
        break;
      }
    }
    program_.code[check_idx].target =
        static_cast<std::uint32_t>(program_.code.size());
    available_.insert(&n);
    if (!regions_.empty()) regions_.back().push_back(&n);
    return reg;
  }

  /// Bare product: lowers the interpreter's π_∅ guard short-circuit as a
  /// conditional branch. The guard side evaluates unconditionally; the other
  /// side's block sits on the guard-non-empty path only, so every node first
  /// lowered there is conditionally computed and loses availability once the
  /// branch closes (a later reference re-emits a full, memo-checked block —
  /// which at runtime replays exactly the interpreter's first-eval or
  /// cache-hit behavior for that node).
  void EmitProduct(const Plan::Node& n, std::uint32_t reg) {
    const bool guarded = n.guard != Plan::Guard::kNone;
    std::size_t jie_idx = 0;
    if (guarded) {
      const std::uint32_t greg = Emit(
          Input(n.guard == Plan::Guard::kLeft ? n.left : n.right));
      jie_idx = Push(Op::kJumpIfEmpty, nullptr, 0, greg);
      regions_.emplace_back();
    }
    // Full-evaluation path, in the interpreter's left-then-right order; the
    // guard side resolves to a kMemoLoad (its block ran just above), which
    // is precisely the interpreter's extra cache hit.
    const std::uint32_t l = Emit(Input(n.left));
    const std::uint32_t r = Emit(Input(n.right));
    Push(Op::kProduct, &n, reg, l, r);
    if (guarded) {
      const std::size_t jmp_idx = Push(Op::kJump, nullptr, 0);
      for (const Plan::Node* x : regions_.back()) available_.erase(x);
      regions_.pop_back();
      program_.code[jie_idx].target =
          static_cast<std::uint32_t>(program_.code.size());
      // Guard empty: a type-only result. The guard contributes no
      // attributes, so the product scheme *is* the other side's scheme.
      Push(Op::kMakeEmpty, &n, reg);
      program_.code[jmp_idx].target =
          static_cast<std::uint32_t>(program_.code.size());
    }
  }

  Program& program_;
  std::unordered_set<const Plan::Node*> available_;
  std::vector<std::vector<const Plan::Node*>> regions_;
};

}  // namespace

Result<std::shared_ptr<const Relation>> Engine::Execute(
    Plan plan, std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  Program program{std::move(plan), {}, 0};
  Compiler(program).Compile();
  return Run(program, stats);
}

Result<std::shared_ptr<const Relation>> Engine::Run(
    const Program& program,
    std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  join_stats_ = stats;

  std::vector<std::shared_ptr<const ColumnTable>> regs(program.num_regs);
  // Open per-node timers, parent below child (pushed on memo miss, popped by
  // the node's materializer), giving the interpreter's inclusive wall_ns.
  std::vector<std::pair<const Expr*, Clock::time_point>> open;
  auto fail = [&](Status status) {
    if (stats != nullptr) {
      const Clock::time_point now = Clock::now();
      for (const auto& [origin, start] : open) {
        (*stats)[origin].wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                .count());
      }
    }
    return status;
  };
  auto finish = [&](const Insn& in, std::shared_ptr<const ColumnTable> table,
                    std::shared_ptr<const Relation> rel) {
    const Expr* origin = in.node->origin;
    regs[in.dst] = table;
    if (stats != nullptr) {
      EvalNodeStats& s = (*stats)[origin];
      s.rows = table->rows;
      s.backend = in.op == Op::kHashJoin ? "bytecode" : "vectorized";
      if (!open.empty() && open.back().first == origin) {
        s.wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - open.back().second)
                .count());
        open.pop_back();
      }
    }
    memo_[origin] = MemoEntry{std::move(table), std::move(rel)};
  };

  std::size_t pc = 0;
  while (pc < program.code.size()) {
    const Insn& in = program.code[pc];
    switch (in.op) {
      case Op::kMemoCheck: {
        const Expr* origin = in.node->origin;
        auto m = memo_.find(origin);
        if (m != memo_.end()) {
          regs[in.dst] = m->second.table;
          if (stats != nullptr) ++(*stats)[origin].cache_hits;
          pc = in.target;
          continue;
        }
        if (stats != nullptr) open.emplace_back(origin, Clock::now());
        break;
      }
      case Op::kMemoLoad: {
        const Expr* origin = in.node->origin;
        auto m = memo_.find(origin);
        if (m == memo_.end()) {
          return fail(Status::Internal("vectorized memo missing an operand"));
        }
        regs[in.dst] = m->second.table;
        if (stats != nullptr) ++(*stats)[origin].cache_hits;
        break;
      }
      case Op::kJump:
        pc = in.target;
        continue;
      case Op::kJumpIfEmpty:
        if (regs[in.a]->rows == 0) {
          pc = in.target;
          continue;
        }
        break;
      case Op::kLoad: {
        const std::string& name = in.node->origin->relation_name();
        Result<std::shared_ptr<const Relation>> rel =
            database_->FindShared(name);
        if (!rel.ok()) return fail(rel.status());
        std::shared_ptr<const ColumnTable> table;
        auto lit = loads_.find(name);
        if (lit != loads_.end()) {
          table = lit->second;
        } else {
          table = std::make_shared<const ColumnTable>(FromRelation(**rel));
          loads_.emplace(name, table);
        }
        finish(in, std::move(table), std::move(*rel));
        break;
      }
      default: {
        Result<ColumnTable> out = RunOp(in, regs);
        if (!out.ok()) return fail(out.status());
        finish(in, std::make_shared<const ColumnTable>(std::move(*out)),
               nullptr);
        break;
      }
    }
    ++pc;
  }

  MemoEntry& entry = memo_[program.plan.root().origin];
  if (entry.table == nullptr) {
    return Status::Internal("vectorized program produced no result");
  }
  if (entry.rel == nullptr) {
    entry.rel = std::make_shared<const Relation>(ToRelation(*entry.table));
  }
  return entry.rel;
}

Result<ColumnTable> Engine::RunOp(
    const Insn& in,
    const std::vector<std::shared_ptr<const ColumnTable>>& regs) {
  switch (in.op) {
    case Op::kMakeEmpty:
      return MakeTable(in.node->scheme);
    case Op::kRename: {
      const ColumnTable& c = *regs[in.a];
      ColumnTable out;
      out.scheme = in.node->scheme;
      out.columns = c.columns;
      out.rows = c.rows;
      return out;
    }
    case Op::kSelect: {
      const ColumnTable& c = *regs[in.a];
      std::vector<std::uint8_t> mask(c.rows, 1);
      const Plan::Cond& f = in.node->filter;
      AndEqualityMask(c, static_cast<std::uint32_t>(f.ia),
                      static_cast<std::uint32_t>(f.ib), f.equal, mask);
      const std::vector<std::uint32_t> sel = MaskToSelection(mask);
      return Gather(c, AllColumns(c.arity()), sel, in.node->scheme);
    }
    case Op::kProject: {
      const ColumnTable& c = *regs[in.a];
      ColumnTable out = MakeTable(in.node->scheme);
      const std::vector<std::uint32_t> out_cols = AllColumns(out.arity());
      RowHashTable dedup(&out, out_cols);
      dedup.Reserve(c.rows);
      std::vector<std::uint64_t> h;
      HashRows(c, in.cols, h);
      for (std::size_t i = 0; i < c.rows; ++i) {
        if (dedup.Find(c, in.cols, static_cast<std::uint32_t>(i), h[i]) !=
            RowHashTable::kNone) {
          continue;
        }
        for (std::size_t k = 0; k < out_cols.size(); ++k) {
          out.columns[k].push_back(c.columns[in.cols[k]][i]);
        }
        ++out.rows;
        dedup.Insert(static_cast<std::uint32_t>(out.rows - 1), h[i]);
      }
      return out;
    }
    case Op::kUnion: {
      const ColumnTable& l = *regs[in.a];
      const ColumnTable& r = *regs[in.b];
      ColumnTable out;
      out.scheme = in.node->scheme;
      out.columns = l.columns;
      out.rows = l.rows;
      const std::vector<std::uint32_t> all = AllColumns(out.arity());
      RowHashTable dedup(&out, all);
      dedup.Reserve(l.rows + r.rows);
      std::vector<std::uint64_t> h;
      HashRows(out, all, h);
      for (std::size_t i = 0; i < l.rows; ++i) {
        dedup.Insert(static_cast<std::uint32_t>(i), h[i]);
      }
      HashRows(r, all, h);
      for (std::size_t i = 0; i < r.rows; ++i) {
        if (dedup.Find(r, all, static_cast<std::uint32_t>(i), h[i]) !=
            RowHashTable::kNone) {
          continue;
        }
        for (std::size_t c = 0; c < out.columns.size(); ++c) {
          out.columns[c].push_back(r.columns[c][i]);
        }
        ++out.rows;
        dedup.Insert(static_cast<std::uint32_t>(out.rows - 1), h[i]);
      }
      return out;
    }
    case Op::kDifference: {
      const ColumnTable& l = *regs[in.a];
      const ColumnTable& r = *regs[in.b];
      const std::vector<std::uint32_t> all = AllColumns(l.arity());
      RowHashTable index(&r, all);
      index.Reserve(r.rows);
      std::vector<std::uint64_t> h;
      HashRows(r, all, h);
      for (std::size_t i = 0; i < r.rows; ++i) {
        index.Insert(static_cast<std::uint32_t>(i), h[i]);
      }
      HashRows(l, all, h);
      std::vector<std::uint32_t> sel;
      for (std::size_t i = 0; i < l.rows; ++i) {
        if (index.Find(l, all, static_cast<std::uint32_t>(i), h[i]) ==
            RowHashTable::kNone) {
          sel.push_back(static_cast<std::uint32_t>(i));
        }
      }
      return Gather(l, all, sel, in.node->scheme);
    }
    case Op::kProduct: {
      const ColumnTable& l = *regs[in.a];
      const ColumnTable& r = *regs[in.b];
      const std::uint64_t tuple_bytes =
          static_cast<std::uint64_t>(in.node->scheme.arity()) * sizeof(ObjectId);
      TraceSpan span = StartSpan(*ctx_, "evaluator/product");
      MetricsRegistry* metrics = ctx_->metrics();
      ColumnTable out = MakeTable(in.node->scheme);
      const std::size_t la = l.arity(), ra = r.arity();
      for (std::size_t i = 0; i < l.rows; ++i) {
        std::size_t j = 0;
        while (j < r.rows) {
          const std::size_t n = std::min(kBatchWidth, r.rows - j);
          SETREC_RETURN_IF_ERROR(ctx_->ChargeRows(n, "evaluator/product-row"));
          SETREC_RETURN_IF_ERROR(
              ctx_->ChargeMemory(n * tuple_bytes, "evaluator/product-row"));
          if (metrics != nullptr) metrics->engine.eval_rows.Add(n);
          for (std::size_t c = 0; c < la; ++c) {
            out.columns[c].insert(out.columns[c].end(), n, l.columns[c][i]);
          }
          for (std::size_t c = 0; c < ra; ++c) {
            const PackedValue* src = r.columns[c].data();
            out.columns[la + c].insert(out.columns[la + c].end(), src + j,
                                       src + j + n);
          }
          out.rows += n;
          j += n;
        }
      }
      return out;
    }
    case Op::kHashJoin:
      return RunHashJoin(in, regs);
    case Op::kMemoCheck:
    case Op::kMemoLoad:
    case Op::kJump:
    case Op::kJumpIfEmpty:
    case Op::kLoad:
      break;
  }
  return Status::Internal("unexpected vectorized instruction");
}

Result<ColumnTable> Engine::RunHashJoin(
    const Insn& in,
    const std::vector<std::shared_ptr<const ColumnTable>>& regs) {
  const ColumnTable& left = *regs[in.a];
  const ColumnTable& right = *regs[in.b];
  const Plan::Node& node = *in.node;
  TraceSpan join_span = StartSpan(*ctx_, "evaluator/join");
  MetricsRegistry* metrics = ctx_->metrics();
  const std::size_t la = left.arity(), ra = right.arity();
  const std::uint64_t tuple_bytes =
      static_cast<std::uint64_t>(node.scheme.arity()) * sizeof(ObjectId);
  const std::vector<std::uint32_t>& left_keys = in.left_keys;
  const std::vector<std::uint32_t>& right_keys = in.right_keys;
  auto filter = [](const ColumnTable& t, const std::vector<Plan::Cond>& conds,
                   std::vector<std::uint8_t>& mask) {
    for (const Plan::Cond& c : conds) {
      AndEqualityMask(t, static_cast<std::uint32_t>(c.ia),
                      static_cast<std::uint32_t>(c.ib), c.equal, mask);
    }
  };

  // Build: filter the right side with its local conditions, gather the
  // survivors into a dense build table, index it by the join keys. The
  // insertion count is the interpreter's build_rows.
  ColumnTable build;
  std::optional<RowHashTable> index;
  {
    TraceSpan build_span = StartSpan(*ctx_, "evaluator/join-build");
    std::vector<std::uint8_t> mask(right.rows, 1);
    filter(right, node.build_filters, mask);
    const std::vector<std::uint32_t> sel = MaskToSelection(mask);
    build = Gather(right, AllColumns(ra), sel, right.scheme);
    index.emplace(&build, right_keys);
    index->Reserve(build.rows);
    std::vector<std::uint64_t> bh;
    HashRows(build, right_keys, bh);
    for (std::size_t i = 0; i < build.rows; ++i) {
      index->Insert(static_cast<std::uint32_t>(i), bh[i]);
    }
    if (metrics != nullptr) {
      metrics->engine.eval_join_build_rows.Add(build.rows);
    }
    if (join_stats_ != nullptr) {
      (*join_stats_)[node.origin].build_rows += build.rows;
    }
  }

  // Probe: every left row counts as a probe (worker- and backend-invariant);
  // key-matched pairs are charged in batches before residual cross
  // conditions run, exactly the interpreter's per-pair charging order.
  ColumnTable out = MakeTable(in.node->scheme);
  TraceSpan probe_span = StartSpan(*ctx_, "evaluator/join-probe");
  if (metrics != nullptr) metrics->engine.eval_join_probes.Add(left.rows);
  if (join_stats_ != nullptr) {
    (*join_stats_)[node.origin].probe_rows += left.rows;
  }
  std::vector<std::uint8_t> lmask(left.rows, 1);
  filter(left, node.probe_filters, lmask);
  std::vector<std::uint64_t> lh;
  HashRows(left, left_keys, lh);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(kBatchWidth);
  auto flush = [&]() -> Status {
    if (pairs.empty()) return Status::OK();
    const std::uint64_t n = pairs.size();
    SETREC_RETURN_IF_ERROR(ctx_->ChargeRows(n, "evaluator/join-row"));
    SETREC_RETURN_IF_ERROR(
        ctx_->ChargeMemory(n * tuple_bytes, "evaluator/join-row"));
    std::uint64_t kept = 0;
    for (const auto& [li, ri] : pairs) {
      bool ok = true;
      for (const Plan::Cond& c : node.residuals) {
        const PackedValue va =
            c.a_left ? left.columns[c.ia][li] : build.columns[c.ia][ri];
        const PackedValue vb =
            c.b_left ? left.columns[c.ib][li] : build.columns[c.ib][ri];
        if ((va == vb) != c.equal) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++kept;
      for (std::size_t c = 0; c < la; ++c) {
        out.columns[c].push_back(left.columns[c][li]);
      }
      for (std::size_t c = 0; c < ra; ++c) {
        out.columns[la + c].push_back(build.columns[c][ri]);
      }
      ++out.rows;
    }
    if (metrics != nullptr && kept > 0) metrics->engine.eval_rows.Add(kept);
    pairs.clear();
    return Status::OK();
  };
  for (std::size_t li = 0; li < left.rows; ++li) {
    if (!lmask[li]) continue;
    std::uint32_t row =
        index->Find(left, left_keys, static_cast<std::uint32_t>(li), lh[li]);
    while (row != RowHashTable::kNone) {
      pairs.emplace_back(static_cast<std::uint32_t>(li), row);
      if (pairs.size() == kBatchWidth) SETREC_RETURN_IF_ERROR(flush());
      row = index->NextInChain(row);
    }
  }
  SETREC_RETURN_IF_ERROR(flush());
  return out;
}

}  // namespace setrec::vectorized
