#ifndef SETREC_TXN_COMMUTATIVITY_CACHE_H_
#define SETREC_TXN_COMMUTATIVITY_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "algebraic/algebraic_method.h"
#include "algebraic/order_independence.h"

namespace setrec {

/// Memoizes "may transactions running these two methods commute?" so the
/// transaction layer's admission test is O(1) per pair on the hot path. The
/// underlying oracle is the paper's Theorem 5.12 decision procedure — exactly
/// the machine-checkable commutativity oracle that Malta & Martinez's
/// fine-grained concurrency control assumes.
///
/// Two verdict shapes:
///
///   * same method on both sides — the pair commutes iff the method is
///     *absolutely* order independent (DecideOrderIndependenceCertified with
///     kAbsolute): by the adjacent-swap argument, permutation invariance of
///     sequential application over any receiver multiset is precisely what
///     makes two transactions' interleaved applications order-free. The full
///     DecisionCertificate is retained and shared across transactions.
///   * distinct methods — decided syntactically by
///     SatisfyPairIsolationCondition, Proposition 5.8's isolation condition
///     lifted to the pair: the relations the two methods write are disjoint
///     and neither method's update expressions read a relation the other
///     writes.
///
/// Verdicts are keyed by (method name, epoch). Invalidate() bumps a name's
/// epoch, so redefining a method under the same name lazily orphans every
/// cached verdict and certificate mentioning the old definition — O(1), no
/// scan. Undecidable inputs (non-positive methods, exhausted decision
/// budgets) conservatively report "does not commute": the transaction layer
/// then falls back to MVCC, which is always safe.
///
/// Thread safety: lookups and insertions take the cache mutex; the decision
/// procedure itself runs *outside* it, so concurrent population never
/// serializes on the oracle (a lost race costs one duplicate decision whose
/// result is simply discarded).
class CommutativityCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// True when transactions applying `a` and `b` (to arbitrary receiver
  /// sets) commute, per the class comment. Never fails: undecidable means
  /// false.
  bool Commutes(const AlgebraicUpdateMethod& a, const AlgebraicUpdateMethod& b);

  /// Drops every cached verdict involving `method_name` by bumping its
  /// epoch. Call when a method is redefined under an existing name.
  void Invalidate(const std::string& method_name);

  /// The retained certificate from the self-pair decision of `method_name`
  /// at its current epoch, or null when none has been computed (cross-pair
  /// verdicts and invalidated epochs have no certificate).
  std::shared_ptr<const DecisionCertificate> CertificateFor(
      const std::string& method_name) const;

  Stats stats() const;

 private:
  struct Verdict {
    bool commutes = false;
    std::shared_ptr<const DecisionCertificate> certificate;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> epochs_;
  /// Key: "name@epoch|name@epoch" with the two sides canonically ordered.
  std::map<std::string, Verdict> verdicts_;
  Stats stats_;
};

}  // namespace setrec

#endif  // SETREC_TXN_COMMUTATIVITY_CACHE_H_
