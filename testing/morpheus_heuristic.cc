#include "testing/morpheus_heuristic.h"

#include <sstream>

namespace amalur {
namespace cost {

Strategy MorpheusHeuristic::Decide(const CostFeatures& features) const {
  // [27] frames the rule per joined (dimension) table: redundancy appears
  // when many fact rows share one dimension row (tuple ratio) and the
  // dimension brings enough columns to matter (feature ratio).
  for (size_t k = 1; k < features.sources.size(); ++k) {
    if (features.TupleRatio(k) >= options_.tuple_ratio_threshold &&
        features.FeatureRatio(k) >= options_.feature_ratio_threshold) {
      return Strategy::kFactorize;
    }
  }
  return Strategy::kMaterialize;
}

std::string MorpheusHeuristic::Explain(const CostFeatures& features) const {
  std::ostringstream out;
  out << "morpheus-heuristic:";
  for (size_t k = 1; k < features.sources.size(); ++k) {
    out << " S" << k + 1 << "(TR=" << features.TupleRatio(k)
        << (features.TupleRatio(k) >= options_.tuple_ratio_threshold ? "≥" : "<")
        << options_.tuple_ratio_threshold << ", FR=" << features.FeatureRatio(k)
        << (features.FeatureRatio(k) >= options_.feature_ratio_threshold ? "≥"
                                                                         : "<")
        << options_.feature_ratio_threshold << ")";
  }
  out << " -> " << StrategyToString(Decide(features));
  return out.str();
}

}  // namespace cost
}  // namespace amalur
