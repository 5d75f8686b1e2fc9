// Differential validation of the Theorem 5.12 decision procedure: a corpus
// of randomly composed positive single-statement methods over the drinkers
// schema is classified statically, and every verdict is cross-checked
// against exhaustive pairwise semantics on sampled instances —
//   "independent"  ⇒ the refuter must find no witness (soundness), and
//   "dependent"    ⇒ the refuter must find one (the methods are small and
//                     the witness space is dense, so sampling suffices).

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/instance_generator.h"
#include "relational/builder.h"

namespace setrec {
namespace {

/// Generates a random positive unary expression of domain Ba (output
/// attribute "f") over the drinkers method context [D, Ba], from a small
/// grammar of leaves and combinators that covers reads of own rows, other
/// rows, class relations and guards.
class ExpressionGenerator {
 public:
  explicit ExpressionGenerator(std::uint64_t seed) : rng_(seed) {}

  ExprPtr Generate(int depth) {
    if (depth <= 0 || rng_.UniformInt(3) == 0) return Leaf();
    switch (rng_.UniformInt(3)) {
      case 0:
        return ra::Union(Generate(depth - 1), Generate(depth - 1));
      case 1:
        // Conditioning on a guard over some relation.
        return ra::Product(Generate(depth - 1), ra::Guard(GuardSource()));
      default:
        // "except the argument bar": π_f(σ_{f≠arg1}(e × arg1)).
        return ra::Project(
            ra::SelectNeq(ra::Product(Generate(depth - 1), ra::Rel("arg1")),
                          "f", "arg1"),
            {"f"});
    }
  }

 private:
  ExprPtr Leaf() {
    switch (rng_.UniformInt(4)) {
      case 0:
        return ra::Rename(ra::Rel("arg1"), "arg1", "f");
      case 1:
        return ra::Rename(ra::Rel("Ba"), "Ba", "f");  // every bar
      case 2:
        // The receiving drinker's own bars.
        return ra::Project(
            ra::JoinEq(ra::Rel("self"), ra::Rel("Df"), "self", "D"), {"f"});
      default:
        return ra::Project(ra::Rel("Df"), {"f"});  // anyone's bars
    }
  }

  ExprPtr GuardSource() {
    switch (rng_.UniformInt(4)) {
      case 0:
        return ra::Rel("Dl");
      case 1:
        return ra::Rel("Bas");
      case 2:
        return ra::Rel("Df");
      default:
        return ra::Rel("Be");
    }
  }

  SplitMix64 rng_;
};

class DecisionCrossValidation
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecisionCrossValidation, VerdictMatchesSampledSemantics) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  ExpressionGenerator gen(GetParam() * 7919);
  ExprPtr e = gen.Generate(2);
  auto method_or = AlgebraicUpdateMethod::Make(
      &ds.schema, MethodSignature({ds.drinker, ds.bar}), "random",
      {UpdateStatement{ds.frequents, e}});
  ASSERT_TRUE(method_or.ok()) << ExprToString(*e);
  auto method = std::move(method_or).value();
  ASSERT_TRUE(method->IsPositiveMethod());

  const bool absolute = std::move(DecideOrderIndependence(
                                      *method,
                                      OrderIndependenceKind::kAbsolute))
                            .value();
  const bool key_order = std::move(DecideOrderIndependence(
                                       *method,
                                       OrderIndependenceKind::kKeyOrder))
                             .value();
  // The boolean verdict, the certificate's and the bounded procedure's are
  // one decision.
  for (const auto& [kind, verdict] :
       {std::pair{OrderIndependenceKind::kAbsolute, absolute},
        std::pair{OrderIndependenceKind::kKeyOrder, key_order}}) {
    EXPECT_EQ(std::move(DecideOrderIndependenceCertified(*method, kind))
                  .value()
                  .order_independent,
              verdict)
        << ExprToString(*e);
    EXPECT_EQ(std::move(DecideOrderIndependenceBounded(*method, kind)).value(),
              verdict ? OrderIndependenceVerdict::kIndependent
                      : OrderIndependenceVerdict::kDependent)
        << ExprToString(*e);
  }
  // Absolute implies key-order (key sets are sets).
  if (absolute) {
    EXPECT_TRUE(key_order) << ExprToString(*e);
  }

  InstanceGenerator::Options options;
  options.min_objects_per_class = 0;
  options.max_objects_per_class = 3;
  options.edge_probability = 0.45;
  auto witness = std::move(SearchOrderDependenceWitness(*method, ds.schema,
                                                        GetParam(), 30,
                                                        options))
                     .value();
  EXPECT_EQ(witness.has_value(), !absolute) << ExprToString(*e);

  auto key_witness = std::move(SearchOrderDependenceWitness(
                                   *method, ds.schema, GetParam(), 30,
                                   options,
                                   /*key_pairs_only=*/true))
                         .value();
  EXPECT_EQ(key_witness.has_value(), !key_order) << ExprToString(*e);
}

INSTANTIATE_TEST_SUITE_P(Corpus, DecisionCrossValidation,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace setrec
