#ifndef SETREC_INCREMENTAL_VIEW_CACHE_H_
#define SETREC_INCREMENTAL_VIEW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/exec_context.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace setrec {

/// Tuning knobs and observability sinks for a ViewCache. Everything is
/// borrowed, not owned; the referents must outlive the cache.
struct ViewCacheOptions {
  /// Cap on buffered delta entries. When the pending log would exceed this,
  /// the oldest entries are dropped; views that had not consumed them go
  /// cold and rematerialize from scratch on their next read.
  std::size_t max_pending = 4096;

  /// Per-refresh propagation budget in delta rows summed over all plan
  /// nodes. A refresh that exceeds it abandons propagation and falls back
  /// to full rematerialization (counted in Stats::fallbacks) — past this
  /// point the incremental work costs more than rebuilding.
  std::size_t max_delta_rows_per_refresh = std::size_t{1} << 20;

  /// Cap on materialized views. Query() evicts the least-recently-read view
  /// to stay under it.
  std::size_t max_views = 256;

  MetricsRegistry* metrics = nullptr;  // incremental.* instruments
  Tracer* tracer = nullptr;            // incremental/* spans
};

/// Incrementally maintained materialized views over the relational encoding
/// of one object-base instance (Section 5.1), in the discipline of
/// *Demand-Driven Incremental Object Queries* (Liu et al.): committed
/// `InstanceDelta`s are absorbed eagerly into a base-relation mirror in
/// O(|delta|), while views are refreshed lazily — a delta only marks
/// dependent views stale, and the delta rules (insert/delete deltas
/// propagated through union/difference/join/select/project/rename nodes,
/// with per-node join indexes and projection support counts) run on the
/// next read of each view. Untouched views cost nothing; a view whose
/// referenced relations saw no changes answers a read in O(1).
///
/// The one read is Query(expr): the first read of an expression
/// materializes a view keyed by its printed form, later reads refresh it.
/// Correctness contract: a Query() is bit-identical to from-scratch
/// `Evaluate(expr, EncodeInstance(instance))` over the instance state the
/// cache has been fed (the from-scratch path remains the
/// differential-testing oracle). Fed deltas must be *closed* the way
/// `DiffInstances` produces them: an object removal is accompanied by
/// removals of its incident edges. Deltas are normalized against the
/// mirror, so re-feeding an already-absorbed delta is a harmless no-op.
///
/// Feeding: a cache attached to a DurableStore
/// (DurableStoreOptions::view_cache) is fed by the store alone, once per
/// committed statement, after the covering fsync. Engine entry points only
/// read a cache (ExecOptions::view_cache); a caller that mutates an
/// instance outside a store feeds its cache `DiffInstances` itself.
///
/// Thread safety: all public methods are safe to call concurrently (one
/// internal mutex). Returned relations are immutable snapshots: a refresh
/// never mutates a relation a previous Query() handed out (copy-on-write).
class ViewCache {
 public:
  /// Implementation detail (a view's plan plus per-node maintenance
  /// state), defined in the .cc; public only so file-local
  /// helpers there can name its nested types.
  struct View;

  /// Monotonic counters describing the cache's life so far.
  struct Stats {
    std::uint64_t hits = 0;           // reads answered without node work
    std::uint64_t refreshes = 0;      // reads that propagated deltas
    std::uint64_t rebuilds = 0;       // full rematerializations (any cause)
    std::uint64_t fallbacks = 0;      // rebuilds forced by budget/log overrun
    std::uint64_t invalidations = 0;  // view dirty-markings by ApplyDelta
    std::uint64_t delta_rows = 0;     // delta rows propagated through nodes
    std::uint64_t evictions = 0;      // views evicted by the max_views LRU
    std::size_t registered_views = 0;  // views held now
  };

  /// The schema must outlive the cache. Construction never fails, but a
  /// schema whose encoded relation names collide (see EncodeCatalog) makes
  /// every subsequent operation report the collision.
  explicit ViewCache(const Schema* schema, ViewCacheOptions options = {});
  ~ViewCache();

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// (Re)builds the base-relation mirror from a full instance state and
  /// resets the delta log; every view goes cold and
  /// rematerializes on its next read. Called once after recovery (and again
  /// after any out-of-band state replacement, e.g. a replica resync).
  Status Prime(const Instance& instance);

  /// Absorbs one committed delta: updates the mirror in O(|delta|), appends
  /// the normalized per-relation tuple delta to the pending log, bumps the
  /// epoch, and marks views whose referenced relations were touched as
  /// stale. No view is refreshed here — that happens on demand, at Query().
  ///
  /// Fails closed: a delta that does not validate against the schema or the
  /// mirror's current state (beyond the harmless already-absorbed case that
  /// normalization cancels) un-primes the cache — reads then fail with
  /// kFailedPrecondition until the next Prime() — rather than risk serving
  /// views that have silently diverged from the authoritative instance.
  Status ApplyDelta(const InstanceDelta& delta);

  /// The cache's one read: the current contents of `expr`'s view, keyed by
  /// the expression's printed form. The first read of an expression
  /// validates it against the encoded catalog (unknown relations or scheme
  /// violations fail here, leaving callers their from-scratch fallback) and
  /// materializes it, evicting the least-recently-read view when max_views
  /// are held; later reads refresh on demand: cold views rematerialize,
  /// stale views propagate the coalesced net delta through their plan,
  /// views with no relevant pending changes return immediately. Requires a
  /// primed cache (kFailedPrecondition otherwise). When `ctx` is given,
  /// refresh work runs under its governance — per-tuple probe points
  /// enforce deadlines, step budgets, cancellation and injected faults
  /// exactly like from-scratch evaluation; an interrupted refresh leaves
  /// the view cold (it rebuilds on the next read) and returns the
  /// governance error.
  Result<std::shared_ptr<const Relation>> Query(const ExprPtr& expr,
                                                ExecContext* ctx = nullptr);

  bool primed() const;
  /// Bumped by every Prime and every non-empty ApplyDelta.
  std::uint64_t epoch() const;
  Stats stats() const;
  std::vector<std::string> ViewNames() const;

 private:
  /// Normalized per-relation tuple delta of one absorbed InstanceDelta:
  /// exact with respect to the mirror state it was applied to (added tuples
  /// were absent, removed tuples present).
  struct TupleDelta {
    std::vector<Tuple> added;
    std::vector<Tuple> removed;
  };
  using PendingEntry = std::map<std::string, TupleDelta, std::less<>>;

  enum class RefreshOutcome {
    kNoChanges,   // unconsumed suffix did not touch this view: a hit
    kPropagated,  // delta rules ran; the view is current
    kOverBudget,  // abandoned mid-flight; node state is torn — rebuild
  };

  /// Builds the plan and node list of a new, cold view of `expr`.
  Result<std::unique_ptr<View>> MakeView(ExprPtr expr) const;
  Status RebuildView(View& view, ExecContext* ctx);
  /// Propagates the view's coalesced net delta through its plan. Non-OK =
  /// a governance stop from `ctx`; the view was left cold.
  Result<RefreshOutcome> PropagateView(View& view, ExecContext* ctx);
  const Relation& NodeRel(const View& view, std::size_t index) const;
  std::uint64_t PendingHead() const;
  void Compact();
  void EvictLeastRecentlyRead();

  const Schema* schema_;
  ViewCacheOptions options_;
  Status init_status_;
  Catalog catalog_;

  mutable std::mutex mu_;
  bool primed_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t read_tick_ = 0;
  // Mutable mirror of the encoded instance; always holds every catalog
  // relation once primed. Mutated in place (never handed out).
  std::map<std::string, std::shared_ptr<Relation>, std::less<>> mirror_;
  // Pending log; pending_[i] has global index pending_base_ + i. Views
  // remember the global index they have consumed up to.
  std::deque<PendingEntry> pending_;
  std::uint64_t pending_base_ = 0;
  std::map<std::string, std::unique_ptr<View>, std::less<>> views_;
  Stats stats_;
};

/// A read through the cache, for callers that fall back to from-scratch
/// evaluation: `cache`'s answer for `expr`, or nullopt when there is no
/// cache or it cannot serve the expression (unprimed, unsupported
/// expression). A governance stop from `ctx` is not a miss and propagates:
/// the answer was not computed, and a from-scratch retry would blow the
/// same budget.
Result<std::optional<std::shared_ptr<const Relation>>> CachedRead(
    ViewCache* cache, const ExprPtr& expr, ExecContext& ctx);

}  // namespace setrec

#endif  // SETREC_INCREMENTAL_VIEW_CACHE_H_
