#ifndef SETREC_SETREC_H_
#define SETREC_SETREC_H_

/// Umbrella header: the whole public surface of the setrec engine in one
/// include. Subsystem headers remain individually includable (and are what
/// the engine's own code uses); this header exists for applications and
/// examples, which usually want "the library", not a curated subset.
///
/// Layering (each group depends only on the ones above it):
///
///   obs/        tracing spans + metrics (zero dependencies)
///   core/       schema, instances, receivers, methods, ExecContext,
///               ExecOptions, sequential application
///   relational/ relational algebra: schemes, relations, expressions,
///               the shared operator plan, evaluator, vectorized engine
///   objrel/     object-relational encoding (Section 4)
///   conjunctive/ conjunctive/positive queries, homomorphisms, chase,
///               containment (Section 5 machinery)
///   algebraic/  algebraic update methods, the order-independence decision
///               procedure (Theorem 5.12), par(E) and ParallelApply
///               (Section 6)
///   coloring/   the coloring soundness framework
///   incremental/ delta-driven materialized receiver views with
///               demand-driven invalidation
///   sql/        SQL-style statements: cursor vs set-oriented semantics
///               (Section 7)
///   text/       parsing and printing of instances and deltas
///   store/      crash-consistent durability: WAL, snapshots, DurableStore

// Observability.
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

// Core model and execution governance.
#include "core/combination.h"
#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "core/fault_injection.h"
#include "core/ids.h"
#include "core/instance.h"
#include "core/instance_generator.h"
#include "core/partial_instance.h"
#include "core/printer.h"
#include "core/receiver.h"
#include "core/schema.h"
#include "core/sequential.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "core/update_method.h"

// Relational algebra.
#include "relational/builder.h"
#include "relational/dependencies.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/vectorized/batch.h"
#include "relational/vectorized/engine.h"
#include "relational/vectorized/kernels.h"

// Object-relational encoding.
#include "objrel/encoding.h"

// Conjunctive-query machinery.
#include "conjunctive/chase.h"
#include "conjunctive/conjunctive_query.h"
#include "conjunctive/containment.h"
#include "conjunctive/homomorphism.h"
#include "conjunctive/representative.h"
#include "conjunctive/translate.h"

// Algebraic methods, decision procedure, parallel application.
#include "algebraic/algebraic_method.h"
#include "algebraic/gadgets.h"
#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "algebraic/parallel.h"
#include "algebraic/update_expression.h"

// Coloring framework.
#include "coloring/coloring.h"
#include "coloring/counterexamples.h"
#include "coloring/inference.h"
#include "coloring/soundness.h"
#include "coloring/witness.h"

// Incremental view maintenance.
#include "incremental/view_cache.h"

// SQL-style statements.
#include "sql/engine.h"
#include "sql/improve.h"
#include "sql/table.h"

// Text round-tripping.
#include "text/parser.h"
#include "text/printer.h"

// Durability.
#include "store/durable_store.h"
#include "store/retry.h"
#include "store/snapshot.h"
#include "store/wal.h"

#endif  // SETREC_SETREC_H_
