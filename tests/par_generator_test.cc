// Seeded random update methods over the drinkers and payroll schemas, fed to
// the parallel-application oracles: the hoisting par(E) rewrite against the
// literal Definition 6.1 rewrite, M_par against M_seq on key sets
// (Theorem 6.5), and the interpreter against the vectorized backend at
// 1/2/8 workers with equal logical counters. Every method is generated in
// process from its seed; a failure names the seed and prints the method.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "core/thread_pool.h"
#include "obs/explain.h"
#include "par_literal.h"
#include "relational/builder.h"

namespace setrec {
namespace {

/// A generated subterm with its attributes (renamed apart, so any two
/// terms multiply without a clash unless both carry `self`).
struct Term {
  ExprPtr expr;
  std::vector<Attribute> attrs;
  bool has_self = false;
};

/// Generates positive update expressions for one statement `a := E` of a
/// method over `context`. E never reads the relation of the property `a`
/// updates, so sequential application on a key set sees no receiver's
/// update in another's expression, and Theorem 6.5 applies. The shapes
/// cover what the hoisting rewrite distinguishes: receiver-free operands on
/// either side of a product, products of two receiver-dependent sides,
/// σ-chains over products, π∅ guards, projections, unions mixing
/// receiver-free and receiver-dependent sides, receiver-free roots and
/// shared subterms.
class ExpressionGenerator {
 public:
  ExpressionGenerator(const MethodContext& context, std::string forbidden,
                      SplitMix64& rng)
      : context_(context), rng_(rng) {
    for (const std::string& name : context.catalog.Names()) {
      if (name != forbidden) leaves_.push_back(name);
    }
  }

  /// A unary expression whose attribute has domain `target`.
  ExprPtr Statement(ClassId target) {
    while (true) {
      Term t = Any(3, true);
      std::vector<std::string> outs = Candidates(t, target);
      if (outs.empty()) continue;
      ExprPtr e = Output(t, outs);
      if (rng_.Bernoulli(0.35)) {
        // The second branch reuses the first's term half of the time: a
        // subterm shared by both sides of the union.
        Term u = rng_.Bernoulli(0.5) ? t : Any(2, true);
        std::vector<std::string> more = Candidates(u, target);
        if (!more.empty()) e = ra::Union(e, Output(u, more));
      }
      return e;
    }
  }

 private:
  std::string Fresh() { return "v" + std::to_string(next_++); }

  std::vector<std::string> Candidates(const Term& t, ClassId target) const {
    std::vector<std::string> out;
    for (const Attribute& a : t.attrs) {
      if (a.domain == target && a.name != kSelfRelation) out.push_back(a.name);
    }
    return out;
  }

  ExprPtr Output(const Term& t, const std::vector<std::string>& outs) {
    const std::string& x = outs[rng_.UniformInt(outs.size())];
    return ra::Rename(ra::Project(t.expr, {x}), x, "out");
  }

  Term Leaf(bool allow_self) {
    while (true) {
      const std::string& name = leaves_[rng_.UniformInt(leaves_.size())];
      const RelationScheme& scheme =
          *std::move(context_.catalog.Find(name)).value();
      if (name == kSelfRelation) {
        if (!allow_self) continue;
        return Term{ra::Rel(name), scheme.attributes(), true};
      }
      Term t{ra::Rel(name), {}, false};
      for (const Attribute& a : scheme.attributes()) {
        const std::string to = Fresh();
        t.expr = ra::Rename(t.expr, a.name, to);
        t.attrs.push_back(Attribute{to, a.domain});
      }
      return t;
    }
  }

  /// One selection over `t` between two attributes of one domain, if any.
  void Select(Term& t) {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < t.attrs.size(); ++i) {
      for (std::size_t j = i + 1; j < t.attrs.size(); ++j) {
        if (t.attrs[i].domain == t.attrs[j].domain) pairs.emplace_back(i, j);
      }
    }
    if (pairs.empty()) return;
    const auto [i, j] = pairs[rng_.UniformInt(pairs.size())];
    t.expr = rng_.Bernoulli(0.75)
                 ? ra::SelectEq(t.expr, t.attrs[i].name, t.attrs[j].name)
                 : ra::SelectNeq(t.expr, t.attrs[i].name, t.attrs[j].name);
  }

  Term Any(int depth, bool allow_self) {
    const std::size_t pick = depth == 0 ? 0 : rng_.UniformInt(8);
    switch (pick) {
      case 0:
      case 1:
        return Leaf(allow_self);
      case 2:
      case 3:
      case 4: {  // σ-chain over a product
        Term l = Any(depth - 1, allow_self);
        Term r = Any(depth - 1, allow_self && !l.has_self);
        Term t{ra::Product(l.expr, r.expr), l.attrs, l.has_self || r.has_self};
        t.attrs.insert(t.attrs.end(), r.attrs.begin(), r.attrs.end());
        for (std::size_t k = rng_.UniformInt(3); k > 0; --k) Select(t);
        if (rng_.Bernoulli(0.3)) {
          // ∪ the same operands multiplied the other way round and
          // projected back into this order: par(E) must give both branches
          // one attribute order whichever operand is receiver-free.
          Term u{ra::Product(r.expr, l.expr), r.attrs, t.has_self};
          u.attrs.insert(u.attrs.end(), l.attrs.begin(), l.attrs.end());
          Select(u);
          std::vector<std::string> order;
          for (const Attribute& a : t.attrs) order.push_back(a.name);
          t.expr = ra::Union(t.expr, ra::Project(u.expr, std::move(order)));
        }
        return t;
      }
      case 5: {  // projection onto a nonempty subset
        Term t = Any(depth - 1, allow_self);
        std::vector<std::string> keep;
        std::vector<Attribute> attrs;
        for (const Attribute& a : t.attrs) {
          if (rng_.Bernoulli(0.6)) {
            keep.push_back(a.name);
            attrs.push_back(a);
          }
        }
        if (keep.empty()) {
          keep.push_back(t.attrs[0].name);
          attrs.push_back(t.attrs[0]);
        }
        bool has_self = false;
        for (const Attribute& a : attrs) has_self |= a.name == kSelfRelation;
        return Term{ra::Project(t.expr, std::move(keep)), std::move(attrs),
                    has_self};
      }
      case 6: {  // π∅ guard on either side: if-then-else
        Term t = Any(depth - 1, allow_self);
        ExprPtr guard = ra::Guard(Any(depth - 1, true).expr);
        t.expr = rng_.Bernoulli(0.5) ? ra::Product(t.expr, guard)
                                     : ra::Product(guard, t.expr);
        return t;
      }
      default: {  // a selection over a non-product
        Term t = Any(depth - 1, allow_self);
        Select(t);
        return t;
      }
    }
  }

  const MethodContext& context_;
  SplitMix64& rng_;
  std::vector<std::string> leaves_;
  int next_ = 0;
};

/// A random single-statement method over `schema`: a receiving class with
/// properties, one of its properties, zero to two arguments.
std::unique_ptr<AlgebraicUpdateMethod> RandomMethod(const Schema& schema,
                                                    SplitMix64& rng) {
  std::vector<PropertyId> properties;
  for (PropertyId p = 0; p < schema.num_properties(); ++p) {
    properties.push_back(p);
  }
  const PropertyId a = properties[rng.UniformInt(properties.size())];
  std::vector<ClassId> classes = {schema.property(a).source};
  for (std::size_t k = rng.UniformInt(3); k > 0; --k) {
    classes.push_back(
        static_cast<ClassId>(rng.UniformInt(schema.num_classes())));
  }
  const MethodSignature signature(classes);
  MethodContext context =
      std::move(BuildMethodContext(&schema, signature)).value();
  ExpressionGenerator gen(context, PropertyRelationName(schema, a), rng);
  ExprPtr e = gen.Statement(schema.property(a).target);
  return std::move(AlgebraicUpdateMethod::Make(&schema, signature, "random",
                                               {UpdateStatement{a, e}}))
      .value();
}

/// Every oracle for one generated method over one random instance.
void CheckMethod(const AlgebraicUpdateMethod& method, const Instance& instance,
                 InstanceGenerator& gen, ThreadPool& pool) {
  SCOPED_TRACE(method.ToString());
  const MethodContext& ctx = method.context();
  const std::vector<Receiver> any =
      gen.RandomReceiverSet(instance, method.signature(), 10);
  const std::vector<Receiver> keys =
      gen.RandomKeySet(instance, method.signature(), 5);
  ASSERT_TRUE(IsKeySet(keys));

  // Hoisted vs literal par(E), as relations, on every kind of receiver set.
  const ExprPtr& e = method.statements()[0].expression;
  Result<ExprPtr> hoisted = ParTransform(e, ctx);
  Result<ExprPtr> literal = LiteralParTransform(e, ctx);
  ASSERT_TRUE(hoisted.ok()) << hoisted.status().message();
  ASSERT_TRUE(literal.ok()) << literal.status().message();
  for (const std::vector<Receiver>* set :
       {&any, &keys, static_cast<const std::vector<Receiver>*>(nullptr)}) {
    std::span<const Receiver> rec;
    if (set != nullptr) rec = *set;
    Result<Relation> h = EvaluateParOver(*hoisted, instance, ctx, rec);
    Result<Relation> l = EvaluateParOver(*literal, instance, ctx, rec);
    ASSERT_TRUE(h.ok()) << h.status().message();
    ASSERT_TRUE(l.ok()) << l.status().message();
    EXPECT_TRUE(*h == *l) << "par(E) over " << rec.size() << " receivers";
  }

  // Theorem 6.5: M_par = M_seq on key sets.
  Result<Instance> sequential = ApplySequence(method, instance, keys);
  Result<Instance> parallel = ParallelApply(method, instance, keys);
  ASSERT_TRUE(sequential.ok()) << sequential.status().message();
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  EXPECT_EQ(*sequential, *parallel);

  // Interpreter vs vectorized at 1/2/8 workers: same instance, same
  // logical counters.
  auto run = [&](ExecBackend backend, std::size_t workers,
                 std::map<std::string, std::uint64_t>& counters) {
    MetricsRegistry metrics;
    Result<Instance> out = ParallelApply(method, instance, any,
                                         {.metrics = &metrics,
                                          .num_workers = workers,
                                          .pool = &pool,
                                          .backend = backend});
    counters = LogicalCounters(metrics);
    return out;
  };
  std::map<std::string, std::uint64_t> base_counters;
  const Result<Instance> base =
      run(ExecBackend::kInterpreter, 1, base_counters);
  ASSERT_TRUE(base.ok()) << base.status().message();
  for (ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      std::map<std::string, std::uint64_t> counters;
      const Result<Instance> out = run(backend, workers, counters);
      ASSERT_TRUE(out.ok()) << out.status().message();
      EXPECT_EQ(*out, *base) << workers << " workers";
      EXPECT_EQ(counters, base_counters) << workers << " workers";
    }
  }
}

class ParGeneratorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParGeneratorTest, RandomMethodsSatisfyEveryParOracle) {
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  ThreadPool pool(4);

  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator drinkers(&ds.schema, GetParam());
  const Instance bars = drinkers.RandomInstance(options);
  CheckMethod(*RandomMethod(ds.schema, drinkers.rng()), bars, drinkers, pool);

  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  InstanceGenerator payroll(&ps.schema, GetParam());
  const Instance staff = payroll.RandomInstance(options);
  CheckMethod(*RandomMethod(ps.schema, payroll.rng()), staff, payroll, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParGeneratorTest,
                         ::testing::Range<std::uint64_t>(0, 200));

}  // namespace
}  // namespace setrec
