#pragma once

#include <optional>
#include <string>

#include "cost/cost_features.h"
#include "integration/schema_mapping.h"

/// \file amalur_cost_model.h
/// Amalur's cost estimation (§IV.B): an analytical work model over the DI
/// metadata that prices both strategies for a gradient-descent training run
/// and picks the cheaper one, with a logic-rule prescreen over the tgds
/// (Example IV.1) that resolves the easy cases without estimation.
///
/// Per iteration, factorized training touches Σ_k (effective contribution
/// cells of source k), while materialized training touches rT·cT cells but
/// must first pay the join + export to build the target table. The model
/// prices both in abstract "cell-op" units with calibratable constants; what
/// matters for the decision is their ratio, not absolute wall-clock.

namespace amalur {
namespace cost {

/// Calibration knobs of the analytical model.
struct AmalurCostModelOptions {
  /// Gradient-descent iterations the training run will perform (the horizon
  /// the one-time materialization cost is amortized over).
  double training_iterations = 20.0;
  /// Cost of one dense multiply-add on a cell (the work unit).
  double flop_cost = 1.0;
  /// Relative cost of one factorized multiply-add (gathers and indirection
  /// make the pushed-down kernels slower per cell than a straight-line
  /// dense GEMM; calibrated at ~1.3 on this implementation).
  double factorized_cell_cost = 1.3;
  /// One-time per-cell cost of materializing the target (join probe, copy,
  /// allocation). Calibrated against the materializer: 13–34 flop units
  /// depending on size; 20 is the mid-range default.
  double materialize_cell_cost = 20.0;
  /// Per-target-row-per-source bookkeeping of the factorized path
  /// (gather/scatter through CI/CM).
  double factorized_row_overhead = 2.0;
  /// Provenance of the four per-op constants above, surfaced through
  /// `Explain` (and therefore every optimizer `Plan.explanation`): false
  /// means the analytic defaults decided; true means the constants were
  /// fitted from measured observations (see cost/calibrator.h).
  bool calibrated = false;
  /// Human-readable provenance, e.g. "analytic defaults" or "fitted from 7
  /// observations in 'observations.jsonl'".
  std::string constants_source = "analytic defaults";
};

/// A priced pair of strategies.
struct CostEstimate {
  double factorized_cost = 0.0;
  double materialized_cost = 0.0;
  /// True when the tgd prescreen decided without the analytical model.
  bool decided_by_logic_rule = false;

  /// The cheaper strategy. The tie-break is explicit and deliberate: an
  /// exact price tie materializes, because equal estimates mean
  /// factorization has no predicted advantage and the materialized plan is
  /// the structurally simpler one (straight dense kernels, no
  /// gather/scatter bookkeeping, and every downstream consumer — serving,
  /// export — can reuse the built target).
  Strategy Decision() const {
    if (factorized_cost == materialized_cost) return Strategy::kMaterialize;
    return factorized_cost < materialized_cost ? Strategy::kFactorize
                                               : Strategy::kMaterialize;
  }
};

/// The Amalur estimator.
class AmalurCostModel {
 public:
  explicit AmalurCostModel(AmalurCostModelOptions options = {})
      : options_(options) {}

  /// Logic-rule prescreen (Example IV.1): when every tgd is full and the
  /// target has no more rows than the sources combined, the materialized
  /// target cannot contain more redundancy than the sources — materialize.
  /// Returns nullopt when logic alone cannot decide (Figure 5's Area III).
  std::optional<Strategy> PruneWithTgds(const CostFeatures& features) const;

  /// Prices both strategies (after the prescreen; a prescreen hit is
  /// reflected by `decided_by_logic_rule` and a forced-materialize price).
  CostEstimate Estimate(const CostFeatures& features) const;

  /// Convenience: estimate + decide.
  Strategy Decide(const CostFeatures& features) const {
    return Estimate(features).Decision();
  }

  /// Human-readable cost breakdown.
  std::string Explain(const CostFeatures& features) const;

 private:
  /// Work units of one factorized GD iteration.
  double FactorizedIterationCost(const CostFeatures& features) const;
  /// Work units of one materialized GD iteration.
  double MaterializedIterationCost(const CostFeatures& features) const;
  /// One-time cost of building the target table.
  double MaterializationCost(const CostFeatures& features) const;

  AmalurCostModelOptions options_;
};

}  // namespace cost
}  // namespace amalur
