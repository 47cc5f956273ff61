#include "cost/cost_features.h"

#include <sstream>
#include <vector>

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
  features.kind = metadata.kind();
  features.shape = metadata.shape();
  features.num_shards = metadata.num_shards();
  features.join_depth = metadata.join_depth();
  features.shared_dimensions = metadata.num_shared_dimensions();
  features.target_rows = metadata.target_rows();
  features.target_cols = metadata.target_cols();
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const metadata::SourceMetadata& s = metadata.source(k);
    SourceFeatures sf;
    sf.rows = s.data.rows();
    sf.cols = s.data.cols();
    sf.contributed_rows = s.indicator.ContributedRows();
    sf.redundant_cells = s.redundancy.RedundantCellCount();
    sf.null_ratio = s.null_ratio;
    sf.duplicate_ratio = s.duplicate_ratio;
    // Group rows as the factorized planner does and count each class's
    // distinct source rows (the fan-out-deduplicated compute cells): a
    // source row is new to class c while its stamp is not c + 1.
    const size_t mapped_cols = s.mapping.MappedTargetColumns().size();
    const std::vector<int64_t>& indicator = s.indicator.values();
    const std::vector<std::vector<metadata::RowId>> classes =
        metadata::RowClassTargets(s);
    std::vector<size_t> stamp(s.data.rows(), 0);
    for (size_t c = 0; c < classes.size(); ++c) {
      size_t unique_rows = 0;
      for (metadata::RowId i : classes[c]) {
        size_t& row_stamp = stamp[static_cast<size_t>(indicator[i])];
        if (row_stamp != c + 1) {
          row_stamp = c + 1;
          ++unique_rows;
        }
      }
      const size_t masked =
          c == 0 ? 0 : s.redundancy.column_sets()[c - 1].size();
      sf.compute_cells += unique_rows * (mapped_cols - masked);
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

std::string CostFeatures::ToString() const {
  std::ostringstream out;
  out << "CostFeatures[" << rel::JoinKindToString(kind) << ", "
      << metadata::IntegrationShapeToString(shape) << ", shards=" << num_shards
      << ", depth=" << join_depth << ", shared_dims=" << shared_dimensions
      << ", T " << target_rows << "x" << target_cols
      << ", full_tgds=" << (all_tgds_full ? "yes" : "no");
  for (size_t k = 0; k < sources.size(); ++k) {
    const SourceFeatures& s = sources[k];
    out << "; S" << k + 1 << " " << s.rows << "x" << s.cols << " contrib="
        << s.contributed_rows << " redundant=" << s.redundant_cells
        << " null=" << s.null_ratio << " dup=" << s.duplicate_ratio;
  }
  out << "]";
  return out.str();
}

}  // namespace cost
}  // namespace amalur
