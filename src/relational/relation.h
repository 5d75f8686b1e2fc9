#ifndef SETREC_RELATIONAL_RELATION_H_
#define SETREC_RELATIONAL_RELATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace setrec {

/// A finite relation: a scheme plus a set of tuples over it. Insertions are
/// domain-checked (each value's class must equal the attribute's domain), so
/// a Relation is typed by construction.
///
/// Storage is a hash set (O(1) insert/lookup — relations are the hot-path
/// containers of the evaluator), so iteration order is unspecified.
/// Equality is content equality regardless of order. Consumers that need a
/// canonical order (deterministic enumeration, result reporting) go through
/// SortedTuples().
class Relation {
 public:
  using TupleSet = std::unordered_set<Tuple, TupleHash>;

  Relation() = default;
  explicit Relation(RelationScheme scheme) : scheme_(std::move(scheme)) {}

  // The sorted-view cache borrows pointers into tuples_, so it must never
  // travel with a copy (it would point into the *source*'s tuple set) and
  // is conservatively dropped on move too.
  Relation(const Relation& other)
      : scheme_(other.scheme_), tuples_(other.tuples_) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      scheme_ = other.scheme_;
      tuples_ = other.tuples_;
      InvalidateSortedCache();
    }
    return *this;
  }
  Relation(Relation&& other) noexcept
      : scheme_(std::move(other.scheme_)), tuples_(std::move(other.tuples_)) {}
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      scheme_ = std::move(other.scheme_);
      tuples_ = std::move(other.tuples_);
      InvalidateSortedCache();
    }
    return *this;
  }

  const RelationScheme& scheme() const { return scheme_; }

  /// Inserts a tuple; fails on arity or domain mismatch. Duplicate inserts
  /// are OK no-ops (relations are sets).
  Status Insert(Tuple tuple);

  /// Inserts a tuple whose conformance to the scheme the caller has already
  /// proven (e.g. the evaluator: operator outputs are built from tuples of
  /// already-checked operands, so re-checking every domain in the inner
  /// join/product loops is pure overhead).
  void InsertValidated(Tuple tuple) {
    tuples_.insert(std::move(tuple));
    InvalidateSortedCache();
  }

  /// Bulk form of InsertValidated: consumes a whole batch of already-checked
  /// tuples and invalidates the sorted-view memo once per batch instead of
  /// once per tuple. The vectorized engine materializes operator outputs in
  /// kBatchWidth-row batches (relational/vectorized/batch.h), so per-tuple
  /// invalidation would touch the memo state rows-many times per result.
  /// The batch is left empty (tuples are moved out).
  void InsertValidatedBatch(std::vector<Tuple>& batch) {
    if (batch.empty()) return;
    tuples_.reserve(tuples_.size() + batch.size());
    for (Tuple& t : batch) tuples_.insert(std::move(t));
    batch.clear();
    InvalidateSortedCache();
  }

  /// How many times the sorted-view memo has been invalidated over this
  /// relation's lifetime — a diagnostic counter that makes the bulk-insert
  /// contract testable (one invalidation per InsertValidatedBatch call, one
  /// per single-tuple mutation). Copies and moved-to relations restart the
  /// count from their own first invalidation.
  std::uint64_t sorted_cache_invalidations() const {
    return sorted_invalidations_;
  }

  /// Removes a tuple; returns whether it was present. Like InsertValidated,
  /// no scheme check — a tuple of the wrong shape is simply absent.
  bool Erase(const Tuple& tuple) {
    bool erased = tuples_.erase(tuple) > 0;
    if (erased) InvalidateSortedCache();
    return erased;
  }

  /// Pre-sizes the hash table for `n` tuples.
  void Reserve(std::size_t n) { tuples_.reserve(n); }

  bool Contains(const Tuple& tuple) const { return tuples_.contains(tuple); }
  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const TupleSet& tuples() const { return tuples_; }
  auto begin() const { return tuples_.begin(); }
  auto end() const { return tuples_.end(); }

  /// Canonical (lexicographic) view of the tuples; the pointers borrow from
  /// this relation and are invalidated by any insert. The view is memoized:
  /// the first call after a mutation sorts, later calls copy the cached
  /// pointer vector. Memoization is thread-safe for concurrent const use
  /// (the parallel runtime's shards share base relations read-only).
  std::vector<const Tuple*> SortedTuples() const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.scheme_ == b.scheme_ && a.tuples_ == b.tuples_;
  }

 private:
  void InvalidateSortedCache() {
    // Mutators run exclusively (they take `this` non-const), so no lock:
    // a concurrent SortedTuples() call would already be a data race on
    // tuples_ itself.
    sorted_valid_ = false;
    sorted_.clear();
    ++sorted_invalidations_;
  }

  RelationScheme scheme_;
  TupleSet tuples_;
  mutable std::mutex sorted_mu_;
  mutable std::vector<const Tuple*> sorted_;
  mutable bool sorted_valid_ = false;
  std::uint64_t sorted_invalidations_ = 0;
};

/// A relational database instance: named relations. The object-relational
/// encoding produces one; update expressions are evaluated against one.
///
/// Relations are held behind shared storage, so copying a Database is
/// O(#relations) regardless of data size — the sharded parallel-application
/// runtime gives every worker its own Database (base relations shared
/// read-only, plus that worker's `rec` shard) without duplicating the
/// encoded instance. Put never mutates a stored relation in place, and
/// Mutable clones a relation before handing it out while anyone else shares
/// it, which is what makes the sharing thread-safe.
class Database {
 public:
  /// Installs (or replaces) a relation under `name`.
  void Put(std::string name, Relation relation);

  /// In-place access to the relation under `name`, for maintaining it from
  /// a delta in O(|delta|). Copy-on-write: while another reader still
  /// shares the stored relation (a copy of this Database, a FindShared
  /// handle, an evaluator's memo), it is cloned first, so every reader
  /// keeps the contents it took.
  Result<Relation*> Mutable(std::string_view name);

  bool Has(std::string_view name) const;
  Result<const Relation*> Find(std::string_view name) const;

  /// Like Find, but returns the shared handle, so callers can keep the
  /// relation alive independently of this Database (the evaluator's memo
  /// cache holds results this way, making cache hits O(1)).
  Result<std::shared_ptr<const Relation>> FindShared(
      std::string_view name) const;

  /// Names in deterministic (sorted) order.
  std::vector<std::string> Names() const;

  /// Deep content equality (shared storage is an implementation detail).
  friend bool operator==(const Database& a, const Database& b);

 private:
  std::map<std::string, std::shared_ptr<Relation>, std::less<>> relations_;
};

}  // namespace setrec

#endif  // SETREC_RELATIONAL_RELATION_H_
