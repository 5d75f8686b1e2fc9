#ifndef SETREC_CORE_EXEC_OPTIONS_H_
#define SETREC_CORE_EXEC_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/status.h"

namespace setrec {

class Instance;
class ThreadPool;
class ViewCache;
struct InstanceDelta;

/// Receiver of committed instance deltas. This is the layering seam between
/// the governed entry points (which live in the core and cannot link the
/// incremental library) and `ViewCache` (incremental/view_cache.h), which
/// implements it: call sites publish through the abstract interface, while
/// layers that need the concrete cache (the SQL engine's receiver-view
/// path) recover it via AsViewCache() without RTTI.
class DeltaSink {
 public:
  virtual ~DeltaSink() = default;

  /// Absorbs one committed delta. Publication happens *after* the mutation
  /// it describes durably succeeded; a sink that cannot absorb it must fail
  /// closed (stop serving reads) rather than serve stale state as fresh.
  virtual Status ApplyDelta(const InstanceDelta& delta) = 0;

  /// The concrete incremental view cache, when this sink is one.
  virtual ViewCache* AsViewCache() { return nullptr; }
};

/// A commit hook for mutating statements: invoked exactly once, after the
/// statement's in-memory application succeeded, with the pre- and
/// post-statement states. Returning non-OK *vetoes* the commit — the
/// statement restores the pre-state snapshot and propagates the hook's
/// error. This is the durability layer's interposition point (see
/// store/durable_store.h). An empty hook commits unconditionally.
using CommitHook =
    std::function<Status(const Instance& before, const Instance& after)>;

/// The one options struct every governed entry point accepts. It bundles
/// the execution concerns (context, commit hook, worker count and pool,
/// backend, observability sinks) that would otherwise accrete one by one on
/// each signature, so adding an execution concern never changes an API
/// again. All fields are optional; a default-constructed ExecOptions means
/// "permissive, unobserved, single-threaded, commit unconditionally" —
/// exactly the old default-argument behavior.
///
/// Everything here is borrowed, not owned; the referents must outlive the
/// call.
struct ExecOptions {
  /// Governing context. Null = a fresh permissive context per call.
  ExecContext* ctx = nullptr;

  /// Observability sinks, attached to the governing context for the call's
  /// duration (Fork() carries them into fan-outs). If `ctx` already has a
  /// tracer/metrics attached, the context's attachment wins.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// Flight recorder for the call's duration. Contexts are born recording
  /// into FlightRecorder::Global() (the recorder is always on), so unlike
  /// tracer/metrics this field *overrides* the context's recorder when set —
  /// point it at a private recorder to isolate a run's breadcrumbs, and the
  /// scope restores the previous recorder on exit. Null = keep the
  /// context's current recorder.
  FlightRecorder* recorder = nullptr;

  /// Multi-core runtime (honored by the entry point that shards:
  /// ParallelApply). `pool` is borrowed; when null and num_workers > 1, a
  /// transient pool is spawned.
  std::size_t num_workers = 1;
  ThreadPool* pool = nullptr;

  /// Request-family trace id (obs/trace.h TraceContext) stamped on the
  /// governing context for the call's duration, so spans opened on pool
  /// threads — where no ScopedTraceContext is installed — still join the
  /// request's family via ExecContext::trace_id(). 0 = untraced; a context
  /// that already carries a trace id wins.
  std::uint64_t trace_id = 0;

  /// Execution backend for relational evaluation (core/exec_backend.h).
  /// kAuto (the default) keeps the interpreter unless the compiled
  /// vectorized backend covers the expression and the inputs are large
  /// enough to pay for batching; kInterpreter and kVectorized force a
  /// backend. Results, error statuses and logical counters are
  /// backend-invariant, so this is a pure performance knob.
  ExecBackend backend = ExecBackend::kAuto;

  /// Commit interposition for the in-place SQL statements; ignored by
  /// read-only entry points.
  CommitHook commit_hook = nullptr;

  /// Incremental view cache (or any delta sink) to keep in sync with the
  /// call's effects. Mutating entry points publish the committed delta to
  /// it after they succeed; the SQL engine's set-oriented update also
  /// derives its receiver set through the cache (falling back to
  /// from-scratch evaluation on any cache miss or error). Null = no
  /// incremental maintenance — the old behavior.
  DeltaSink* view_cache = nullptr;
};

/// Resolves ExecOptions to a concrete ExecContext for the duration of one
/// entry-point call: materializes a fresh permissive context when none was
/// given, and attaches the options' tracer/metrics to it, detaching on
/// destruction anything it attached to a *borrowed* context (so a caller's
/// context is returned exactly as it came).
class ExecScope {
 public:
  explicit ExecScope(const ExecOptions& options) {
    if (options.ctx != nullptr) {
      ctx_ = options.ctx;
    } else {
      ctx_ = &local_.emplace();
    }
    if (options.tracer != nullptr && ctx_->tracer() == nullptr) {
      ctx_->set_tracer(options.tracer);
      attached_tracer_ = true;
    }
    if (options.metrics != nullptr && ctx_->metrics() == nullptr) {
      ctx_->set_metrics(options.metrics);
      attached_metrics_ = true;
    }
    if (options.recorder != nullptr) {
      previous_recorder_ = ctx_->recorder();
      ctx_->set_recorder(options.recorder);
      swapped_recorder_ = true;
    }
    if (options.trace_id != 0 && ctx_->trace_id() == 0) {
      ctx_->set_trace_id(options.trace_id);
      attached_trace_id_ = true;
    }
  }
  ~ExecScope() {
    if (attached_tracer_) ctx_->set_tracer(nullptr);
    if (attached_metrics_) ctx_->set_metrics(nullptr);
    if (swapped_recorder_) ctx_->set_recorder(previous_recorder_);
    if (attached_trace_id_) ctx_->set_trace_id(0);
  }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

  ExecContext& ctx() { return *ctx_; }

 private:
  std::optional<ExecContext> local_;
  ExecContext* ctx_ = nullptr;
  FlightRecorder* previous_recorder_ = nullptr;
  bool attached_tracer_ = false;
  bool attached_metrics_ = false;
  bool swapped_recorder_ = false;
  bool attached_trace_id_ = false;
};

}  // namespace setrec

#endif  // SETREC_CORE_EXEC_OPTIONS_H_
