#include "txn/commutativity_cache.h"

#include <utility>

namespace setrec {

bool CommutativityCache::Commutes(const AlgebraicUpdateMethod& a,
                                  const AlgebraicUpdateMethod& b) {
  const bool self_pair = a.name() == b.name();
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string ka = a.name() + "@" + std::to_string(epochs_[a.name()]);
    std::string kb = b.name() + "@" + std::to_string(epochs_[b.name()]);
    if (kb < ka) std::swap(ka, kb);
    key = ka + "|" + kb;
    auto it = verdicts_.find(key);
    if (it != verdicts_.end()) {
      ++stats_.hits;
      return it->second.commutes;
    }
    ++stats_.misses;
  }
  // Decide outside the mutex: the oracle can be expensive and concurrent
  // admissions must not serialize on it. A racing thread may decide the same
  // pair; both verdicts agree (the oracle is deterministic), so first-in
  // wins and the duplicate is dropped.
  Verdict verdict;
  if (self_pair) {
    Result<DecisionCertificate> decided = DecideOrderIndependenceCertified(
        a, OrderIndependenceKind::kAbsolute);
    if (decided.ok()) {
      verdict.commutes = decided->order_independent;
      verdict.certificate = std::make_shared<const DecisionCertificate>(
          std::move(decided).value());
    }
    // Undecidable (non-positive method, exhausted budget): conservatively
    // not commutative, with no certificate to show.
  } else {
    verdict.commutes = SatisfyPairIsolationCondition(a, b);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = verdicts_.emplace(key, std::move(verdict));
  return it->second.commutes;
}

void CommutativityCache::Invalidate(const std::string& method_name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++epochs_[method_name];
}

std::shared_ptr<const DecisionCertificate> CommutativityCache::CertificateFor(
    const std::string& method_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto epoch_it = epochs_.find(method_name);
  const std::uint64_t epoch = epoch_it == epochs_.end() ? 0 : epoch_it->second;
  const std::string side = method_name + "@" + std::to_string(epoch);
  auto it = verdicts_.find(side + "|" + side);
  return it == verdicts_.end() ? nullptr : it->second.certificate;
}

CommutativityCache::Stats CommutativityCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace setrec
