#include "cost/cost_features.h"

#include <vector>

#include "relational/join.h"

namespace amalur {
namespace cost {

const char* StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kFactorize:
      return "factorize";
    case Strategy::kMaterialize:
      return "materialize";
  }
  return "?";
}

CostFeatures CostFeatures::FromMetadata(const metadata::DiMetadata& metadata) {
  CostFeatures features;
  features.target_rows = metadata.target_rows();
  features.target_cols = metadata.target_cols();
  const metadata::RowSlotIndex& index = metadata.slot_index();
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const metadata::SourceMetadata& s = metadata.source(k);
    const metadata::SourceSlots& slots = index.sources[k];
    SourceFeatures sf;
    sf.rows = s.data.rows();
    sf.cols = s.data.cols();
    sf.contributed_rows = slots.covered_rows;
    sf.redundant_cells = s.redundancy.RedundantCellCount();
    sf.null_ratio = s.null_ratio;
    sf.duplicate_ratio = s.duplicate_ratio;
    // The fan-out-deduplicated compute cells: per row class of the
    // integration's row-slot index, distinct source rows × allowed pairs.
    for (const metadata::SlotClass& cls : slots.classes) {
      sf.compute_cells += cls.unique_source_rows.size() * cls.dk_cols.size();
    }
    features.sources.push_back(sf);
  }
  // Full tgds: the joint tgd of an inner join is full; union tgds are full
  // when each source maps every target column. Left/full-outer have
  // existential variables by construction.
  switch (metadata.kind()) {
    case rel::JoinKind::kInnerJoin:
      features.all_tgds_full = true;
      break;
    case rel::JoinKind::kUnion: {
      features.all_tgds_full = true;
      for (size_t k = 0; k < metadata.num_sources(); ++k) {
        const size_t mapped =
            metadata.source(k).mapping.MappedTargetColumns().size();
        features.all_tgds_full &= mapped == metadata.target_cols();
      }
      break;
    }
    case rel::JoinKind::kLeftJoin:
    case rel::JoinKind::kFullOuterJoin:
      features.all_tgds_full = false;
      break;
  }
  return features;
}

double CostFeatures::TupleRatio(size_t k) const {
  AMALUR_CHECK_LT(k, sources.size()) << "source index";
  return sources[k].rows == 0 ? 0.0
                              : static_cast<double>(target_rows) /
                                    static_cast<double>(sources[k].rows);
}

double CostFeatures::FeatureRatio(size_t k) const {
  AMALUR_CHECK_LT(k, sources.size()) << "source index";
  if (sources.empty() || sources[0].cols == 0) return 0.0;
  return static_cast<double>(sources[k].cols) /
         static_cast<double>(sources[0].cols);
}

size_t CostFeatures::TotalSourceCells() const {
  size_t total = 0;
  for (const SourceFeatures& s : sources) total += s.rows * s.cols;
  return total;
}

}  // namespace cost
}  // namespace amalur
