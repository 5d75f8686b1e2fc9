#include "core/update_method.h"

namespace setrec {

Status UpdateMethod::CheckReceiver(const Instance& instance,
                                   const Receiver& receiver) const {
  if (!receiver.IsValidOver(signature_, instance)) {
    return Status::FailedPrecondition(
        "receiver is not valid over the instance for method " +
        (name_.empty() ? std::string("<anonymous>") : name_));
  }
  return Status::OK();
}

Status UpdateMethod::SequenceStep(const Instance& current,
                                  const Receiver& receiver,
                                  ExecContext& ctx) const {
  SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sequential/receiver"));
  if (MetricsRegistry* metrics = ctx.metrics(); metrics != nullptr) {
    metrics->engine.sequential_receivers.Add(1);
  }
  if (!receiver.IsValidOver(signature_, current)) {
    return Status::FailedPrecondition(
        "sequence is undefined: receiver not valid over intermediate "
        "instance");
  }
  return Status::OK();
}

Result<Instance> UpdateMethod::FoldSequence(const Instance& instance,
                                            std::span<const Receiver> sequence,
                                            ExecContext& ctx,
                                            ExecBackend /*backend*/) const {
  Instance current = instance;
  for (const Receiver& t : sequence) {
    SETREC_RETURN_IF_ERROR(SequenceStep(current, t, ctx));
    SETREC_ASSIGN_OR_RETURN(current, Apply(current, t, ctx));
  }
  return current;
}

std::unique_ptr<UpdateMethod> MakeMethod(MethodSignature signature,
                                         std::string name,
                                         FunctionalUpdateMethod::Body body) {
  return std::make_unique<FunctionalUpdateMethod>(
      std::move(signature), std::move(name), std::move(body));
}

}  // namespace setrec
