#pragma once

#include <string>

#include "cost/amalur_cost_model.h"
#include "metadata/di_metadata.h"

/// \file optimizer.h
/// The Amalur optimizer (Figure 3): given derived DI metadata and the user's
/// constraints, decide how training executes — push computation down to the
/// silos (factorize), integrate and export the target table (materialize),
/// or split the learning process across silos (federate, forced by privacy
/// constraints).

namespace amalur {
namespace core {

/// How the training run will be executed.
enum class ExecutionStrategy : int8_t {
  kFactorize = 0,
  kMaterialize = 1,
  kFederate = 2,
};

const char* ExecutionStrategyToString(ExecutionStrategy strategy);

/// The optimizer's verdict — also the payload `Amalur::Explain` returns for
/// integrations and trained models. For a model trained with a
/// `force_strategy` override, `strategy` is the forced one and
/// `explanation` records both the override and the optimizer's own choice;
/// `estimate` always carries the cost model's numbers.
struct Plan {
  ExecutionStrategy strategy = ExecutionStrategy::kMaterialize;
  /// Cost estimate backing the decision (absent for privacy-forced plans).
  cost::CostEstimate estimate;
  /// Human-readable justification.
  std::string explanation;
};

/// Cost-based plan chooser with a privacy override.
class Optimizer {
 public:
  explicit Optimizer(cost::AmalurCostModelOptions cost_options = {})
      : cost_model_(cost_options) {}

  /// Chooses the strategy. `privacy_constrained` reflects whether any
  /// participating source forbids data movement (§II.C: "In the existence
  /// of privacy constraints, Amalur will ... split the learning process").
  Plan Choose(const metadata::DiMetadata& metadata,
              bool privacy_constrained) const;

 private:
  cost::AmalurCostModel cost_model_;
};

}  // namespace core
}  // namespace amalur
