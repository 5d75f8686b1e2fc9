#ifndef SETREC_CORE_UPDATE_METHOD_H_
#define SETREC_CORE_UPDATE_METHOD_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/exec_backend.h"
#include "core/exec_context.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "core/status.h"

namespace setrec {

/// An update method of some signature σ (Definition 2.6): a computable
/// function that maps an instance I and a receiver t over I of type σ to a
/// new instance M(I, t) of the same schema.
///
/// Apply may return a non-OK status to model partiality: `Diverges` plays
/// the role of non-termination in the witness constructions of Proposition
/// 4.13, and other errors signal contract violations (e.g. a receiver that
/// is not valid over the given instance).
class UpdateMethod {
 public:
  explicit UpdateMethod(MethodSignature signature, std::string name = "")
      : signature_(std::move(signature)), name_(std::move(name)) {}
  virtual ~UpdateMethod() = default;

  UpdateMethod(const UpdateMethod&) = delete;
  UpdateMethod& operator=(const UpdateMethod&) = delete;

  const MethodSignature& signature() const { return signature_; }
  /// Optional human-readable name, used by printers and error messages.
  const std::string& name() const { return name_; }

  /// Computes M(instance, receiver). Implementations may assume the receiver
  /// has the signature's arity but must tolerate (and report) receivers that
  /// are not valid over `instance`. Work the method does (an algebraic
  /// method's relational evaluation) is charged to and governed by `ctx`;
  /// every override declares the same default.
  virtual Result<Instance> Apply(
      const Instance& instance, const Receiver& receiver,
      ExecContext& ctx = ExecContext::Default()) const = 0;

  /// Computes M(instance, t1 ... tn) = M(M(instance, t1), t2 ... tn), the
  /// fold that defines sequential application (Section 3); ApplySequence
  /// (core/sequential.h) calls it. Each step runs SequenceStep first. The
  /// base body calls Apply once per receiver. An override may share work
  /// across the steps (AlgebraicUpdateMethod encodes the instance once),
  /// but returns what the base body returns: the same instance, and the
  /// same status when the sequence is undefined or M fails (doing less
  /// work, it may exhaust a budget later or not at all). Relational
  /// evaluation runs on `backend`; the base body, which evaluates nothing
  /// itself, ignores it.
  virtual Result<Instance> FoldSequence(const Instance& instance,
                                        std::span<const Receiver> sequence,
                                        ExecContext& ctx,
                                        ExecBackend backend) const;

 protected:
  /// Standard guard shared by implementations: fails unless `receiver` is a
  /// receiver over `instance` of this method's type.
  Status CheckReceiver(const Instance& instance,
                       const Receiver& receiver) const;

  /// The guard of one step of a sequence, run before M(current, receiver):
  /// a "sequential/receiver" checkpoint, one `sequential.receivers` count,
  /// and FailedPrecondition ("sequence is undefined") unless `receiver` is
  /// a receiver over the intermediate instance `current`.
  Status SequenceStep(const Instance& current, const Receiver& receiver,
                      ExecContext& ctx) const;

 private:
  MethodSignature signature_;
  std::string name_;
};

/// Wraps an arbitrary callable as an update method. This realizes the
/// paper's most general notion of update method ("some computable function",
/// Definition 2.6) and is the form used by the coloring witnesses, the
/// counterexample families, and ad-hoc tests.
class FunctionalUpdateMethod final : public UpdateMethod {
 public:
  using Body =
      std::function<Result<Instance>(const Instance&, const Receiver&)>;

  FunctionalUpdateMethod(MethodSignature signature, std::string name,
                         Body body)
      : UpdateMethod(std::move(signature), std::move(name)),
        body_(std::move(body)) {}

  Result<Instance> Apply(
      const Instance& instance, const Receiver& receiver,
      ExecContext& /*ctx*/ = ExecContext::Default()) const override {
    SETREC_RETURN_IF_ERROR(CheckReceiver(instance, receiver));
    return body_(instance, receiver);
  }

 private:
  Body body_;
};

/// Convenience factory for FunctionalUpdateMethod.
std::unique_ptr<UpdateMethod> MakeMethod(MethodSignature signature,
                                         std::string name,
                                         FunctionalUpdateMethod::Body body);

}  // namespace setrec

#endif  // SETREC_CORE_UPDATE_METHOD_H_
