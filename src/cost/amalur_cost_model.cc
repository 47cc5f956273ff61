#include "cost/amalur_cost_model.h"

#include <sstream>

namespace amalur {
namespace cost {

namespace {

/// Columns of the LMM right-hand side (1 for GD on a single model).
constexpr double kRhsCols = 1.0;
/// The tgd prescreen (Example IV.1) only applies when the one-time
/// materialization cost is amortized: join cost ≤ this fraction of the
/// horizon's per-iteration work. Near the boundary the analytical model
/// decides instead.
constexpr double kPrescreenAmortizationLimit = 0.5;

}  // namespace

std::optional<Strategy> AmalurCostModel::PruneWithTgds(
    const CostFeatures& features) const {
  // Example IV.1: full tgds mean every target attribute is copied from some
  // source. If additionally the target does not multiply rows (rT ≤ Σ rS_k),
  // materialization cannot introduce more redundancy than the sources
  // already carry, so factorization cannot win — Area II, materialize.
  if (!features.all_tgds_full) return std::nullopt;
  size_t total_source_rows = 0;
  for (const SourceFeatures& s : features.sources) total_source_rows += s.rows;
  if (features.target_rows > total_source_rows ||
      features.TargetCells() > features.TotalSourceCells()) {
    return std::nullopt;
  }
  // The structural argument bounds per-iteration work only; the one-time
  // materialization cost must be amortized for the conclusion to hold.
  const double join_cost = MaterializationCost(features);
  const double horizon_work =
      options_.training_iterations * MaterializedIterationCost(features);
  if (join_cost > kPrescreenAmortizationLimit * horizon_work) {
    return std::nullopt;
  }
  return Strategy::kMaterialize;
}

double AmalurCostModel::FactorizedIterationCost(
    const CostFeatures& features) const {
  // One GD iteration = LMM (forward) + transpose-LMM (gradient). Each pass
  // touches every fan-out-deduplicated compute cell once (nulls are stored
  // as zeros and skipped, so they are discounted) and then expands/reduces
  // through the indicator: one add per contributed target row per rhs
  // column, plus constant per-row bookkeeping.
  double cells = 0.0;
  double expansion_rows = 0.0;
  for (const SourceFeatures& s : features.sources) {
    cells += static_cast<double>(s.compute_cells) * (1.0 - s.null_ratio);
    expansion_rows += static_cast<double>(s.contributed_rows);
  }
  return 2.0 * cells * kRhsCols * options_.flop_cost *
             options_.factorized_cell_cost +
         2.0 * expansion_rows * kRhsCols * options_.flop_cost +
         expansion_rows * options_.factorized_row_overhead;
}

double AmalurCostModel::MaterializedIterationCost(
    const CostFeatures& features) const {
  // Dense LMM + transpose-LMM over the full rT × cT target. The dense
  // kernel is a BLAS-style GEMM: it multiplies through materialized zeros
  // (NULL padding included), so the full target extent is paid every
  // iteration.
  return 2.0 * static_cast<double>(features.TargetCells()) *
         kRhsCols * options_.flop_cost;
}

double AmalurCostModel::MaterializationCost(const CostFeatures& features) const {
  // Hash join probe + coalesce + export: every target cell is written once;
  // every source row is hashed/probed once (folded into the cell constant).
  return static_cast<double>(features.TargetCells()) *
         options_.materialize_cell_cost;
}

CostEstimate AmalurCostModel::Estimate(const CostFeatures& features) const {
  CostEstimate estimate;
  const std::optional<Strategy> pruned = PruneWithTgds(features);
  if (pruned.has_value()) {
    estimate.decided_by_logic_rule = true;
    // Encode the verdict as prices so Decision() honours it.
    estimate.factorized_cost = *pruned == Strategy::kFactorize ? 0.0 : 1.0;
    estimate.materialized_cost = *pruned == Strategy::kMaterialize ? 0.0 : 1.0;
    return estimate;
  }
  const double iterations = options_.training_iterations;
  estimate.factorized_cost = iterations * FactorizedIterationCost(features);
  estimate.materialized_cost =
      MaterializationCost(features) +
      iterations * MaterializedIterationCost(features);
  return estimate;
}

std::string AmalurCostModel::Explain(const CostFeatures& features) const {
  const CostEstimate estimate = Estimate(features);
  std::ostringstream out;
  out << "amalur-cost-model: ";
  if (estimate.decided_by_logic_rule) {
    out << "tgd prescreen (full tgds, rT=" << features.target_rows
        << " ≤ Σ rS, target cells ≤ source cells) -> "
        << StrategyToString(estimate.Decision());
  } else {
    out << "factorized=" << estimate.factorized_cost
        << " vs materialized=" << estimate.materialized_cost << " ("
        << MaterializationCost(features) << " one-time + "
        << options_.training_iterations << " x "
        << MaterializedIterationCost(features) << ") -> "
        << StrategyToString(estimate.Decision());
  }
  // Every explanation names the constants' provenance so plans answer
  // "did calibrated or default constants decide this?" directly.
  out << "; constants: "
      << (options_.calibrated ? "calibrated (" + options_.constants_source + ")"
                              : options_.constants_source);
  return out.str();
}

}  // namespace cost
}  // namespace amalur
