#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/amalur.h"
#include "testing/running_example.h"

/// `Amalur::Integrate` remembers its last successful integration and hands
/// back a copy of it when the planned graph repeats. A hit must equal a
/// fresh integration of the same tables bit for bit, share the first call's
/// derived state, and leave names, errors and training as they would be
/// without the memo. A handle that shares another's D_0 came from the same
/// pipeline run; a fresh run derives a D_0 of its own.

namespace amalur {
namespace core {
namespace {

rel::Table Dimension(const std::string& name, const std::string& key,
                     size_t rows, size_t features, Rng* rng) {
  rel::Table table(name);
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
  AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(key, keys)));
  for (size_t f = 0; f < features; ++f) {
    std::vector<double> values(rows);
    for (double& v : values) v = rng->NextGaussian();
    AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromDoubles(
        name.substr(0, 3) + "_" + std::to_string(f), values)));
  }
  return table;
}

/// Registers a fact table referencing three keyed dimensions; the same seed
/// registers the same tables in every `Amalur`.
void RegisterStar(Amalur* amalur) {
  Rng rng(2701);
  const size_t fact_rows = 2000;
  rel::Table fact("sales");
  for (const auto& [name, rows] :
       std::vector<std::pair<std::string, size_t>>{
           {"stores", 40}, {"items", 120}, {"days", 30}}) {
    const std::string key = name + "_id";
    AMALUR_CHECK_OK(amalur->catalog()->RegisterSource(
        {name, Dimension(name, key, rows, 3, &rng), "", false}));
    std::vector<int64_t> refs(fact_rows);
    for (int64_t& ref : refs) ref = static_cast<int64_t>(rng.NextUint64(rows));
    AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromInt64s(key, refs)));
  }
  std::vector<double> quantity(fact_rows), amount(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    quantity[i] = rng.NextGaussian();
    amount[i] = 0.8 * quantity[i] + 0.1 * rng.NextGaussian();
  }
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("quantity", quantity)));
  AMALUR_CHECK_OK(fact.AddColumn(rel::Column::FromDoubles("amount", amount)));
  AMALUR_CHECK_OK(amalur->catalog()->RegisterSource({"sales", fact, "", false}));
}

/// The flat form over `sources`, every edge a left join.
IntegrationSpec Flat(std::vector<std::string> sources) {
  IntegrationSpec spec;
  spec.sources = std::move(sources);
  spec.relationships = {rel::JoinKind::kLeftJoin};
  return spec;
}

IntegrationSpec Star() { return Flat({"sales", "stores", "items", "days"}); }

/// The same star as an edge list, with `stores` joined by `kind`.
IntegrationSpec StarEdges(rel::JoinKind kind = rel::JoinKind::kLeftJoin) {
  IntegrationSpec spec;
  spec.edges = {{"sales", "stores", kind},
                {"sales", "items", rel::JoinKind::kLeftJoin},
                {"sales", "days", rel::JoinKind::kLeftJoin}};
  return spec;
}

IntegrationSpec Named(IntegrationSpec spec, const std::string& name) {
  spec.name = name;
  return spec;
}

IntegrationHandle MustIntegrate(Amalur* amalur, const IntegrationSpec& spec) {
  auto integration = amalur->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  return *std::move(integration);
}

/// True when both handles came from one pipeline run.
bool SharesState(const IntegrationHandle& a, const IntegrationHandle& b) {
  return &a.metadata.source(0).data == &b.metadata.source(0).data;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Field by field and bit for bit, everything but the name.
void ExpectSameIntegration(const IntegrationHandle& a,
                           const IntegrationHandle& b) {
  EXPECT_EQ(a.source_names, b.source_names);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t e = 0; e < a.edges.size(); ++e) {
    EXPECT_EQ(a.edges[e].left, b.edges[e].left) << "edge " << e;
    EXPECT_EQ(a.edges[e].right, b.edges[e].right) << "edge " << e;
    EXPECT_EQ(a.edges[e].kind, b.edges[e].kind) << "edge " << e;
  }
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.privacy_constrained, b.privacy_constrained);

  ASSERT_EQ(a.edge_matches.size(), b.edge_matches.size());
  for (size_t e = 0; e < a.edge_matches.size(); ++e) {
    ASSERT_EQ(a.edge_matches[e].size(), b.edge_matches[e].size());
    for (size_t m = 0; m < a.edge_matches[e].size(); ++m) {
      const integration::ColumnMatch& x = a.edge_matches[e][m];
      const integration::ColumnMatch& y = b.edge_matches[e][m];
      EXPECT_EQ(x.left_column, y.left_column) << "edge " << e;
      EXPECT_EQ(x.right_column, y.right_column) << "edge " << e;
      EXPECT_TRUE(SameBits(x.score, y.score)) << "edge " << e;
    }
  }

  EXPECT_EQ(a.mapping.kind(), b.mapping.kind());
  EXPECT_EQ(a.mapping.target_schema(), b.mapping.target_schema());
  ASSERT_EQ(a.mapping.num_sources(), b.mapping.num_sources());
  for (size_t k = 0; k < a.mapping.num_sources(); ++k) {
    const auto& x = a.mapping.source(k);
    const auto& y = b.mapping.source(k);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.schema, y.schema);
    ASSERT_EQ(x.to_target.size(), y.to_target.size());
    for (size_t c = 0; c < x.to_target.size(); ++c) {
      EXPECT_EQ(x.to_target[c].source_column, y.to_target[c].source_column);
      EXPECT_EQ(x.to_target[c].target_column, y.to_target[c].target_column);
    }
  }
  EXPECT_TRUE(a.mapping.tgds() == b.mapping.tgds());

  ASSERT_EQ(a.matchings.size(), b.matchings.size());
  for (size_t e = 0; e < a.matchings.size(); ++e) {
    EXPECT_EQ(a.matchings[e].matched, b.matchings[e].matched) << "edge " << e;
    EXPECT_EQ(a.matchings[e].left_only, b.matchings[e].left_only);
    EXPECT_EQ(a.matchings[e].right_only, b.matchings[e].right_only);
  }

  const metadata::DiMetadata& x = a.metadata;
  const metadata::DiMetadata& y = b.metadata;
  EXPECT_EQ(x.shape(), y.shape());
  EXPECT_EQ(x.target_rows(), y.target_rows());
  EXPECT_EQ(x.target_cols(), y.target_cols());
  EXPECT_EQ(x.target_schema(), y.target_schema());
  ASSERT_EQ(x.num_sources(), y.num_sources());
  for (size_t k = 0; k < x.num_sources(); ++k) {
    SCOPED_TRACE("source " + std::to_string(k));
    const metadata::SourceMetadata& s = x.source(k);
    const metadata::SourceMetadata& t = y.source(k);
    EXPECT_EQ(s.name, t.name);
    EXPECT_TRUE(BitEqual(s.data, t.data));
    EXPECT_EQ(s.column_names, t.column_names);
    EXPECT_EQ(s.mapping.values(), t.mapping.values());
    EXPECT_EQ(s.indicator.values(), t.indicator.values());
    EXPECT_EQ(s.indicator.source_rows(), t.indicator.source_rows());
    EXPECT_EQ(s.redundancy.column_sets(), t.redundancy.column_sets());
    ASSERT_EQ(s.redundancy.target_rows(), t.redundancy.target_rows());
    for (size_t i = 0; i < s.redundancy.target_rows(); ++i) {
      ASSERT_EQ(s.redundancy.row_set(i), t.redundancy.row_set(i)) << "row " << i;
    }
    EXPECT_TRUE(SameBits(s.null_ratio, t.null_ratio));
    EXPECT_TRUE(SameBits(s.duplicate_ratio, t.duplicate_ratio));
  }
}

TEST(IntegrationMemoTest, AHitEqualsAFreshIntegrationBitForBit) {
  Amalur amalur, fresh_amalur;
  RegisterStar(&amalur);
  RegisterStar(&fresh_amalur);
  const IntegrationHandle first = MustIntegrate(&amalur, Star());
  const IntegrationHandle hit = MustIntegrate(&amalur, Star());
  const IntegrationHandle fresh = MustIntegrate(&fresh_amalur, Star());
  EXPECT_TRUE(SharesState(first, hit));
  EXPECT_FALSE(SharesState(hit, fresh));
  ExpectSameIntegration(hit, fresh);
}

TEST(IntegrationMemoTest, AnEntityResolvedHitEqualsAFreshIntegration) {
  const integration::RunningExample ex = integration::MakeRunningExample();
  Amalur amalur, fresh_amalur;
  for (Amalur* system : {&amalur, &fresh_amalur}) {
    AMALUR_CHECK_OK(system->catalog()->RegisterSource({"S1", ex.s1, "", false}));
    AMALUR_CHECK_OK(system->catalog()->RegisterSource({"S2", ex.s2, "", true}));
  }
  const auto kind = rel::JoinKind::kFullOuterJoin;
  auto first = amalur.Integrate("S1", "S2", kind);
  auto hit = amalur.Integrate("S1", "S2", kind);
  auto fresh = fresh_amalur.Integrate("S1", "S2", kind);
  ASSERT_TRUE(first.ok() && hit.ok() && fresh.ok()) << fresh.status();
  ASSERT_TRUE(hit->privacy_constrained);
  ASSERT_EQ(hit->matchings[0].matched.size(), 1u);  // ER found Jane
  EXPECT_TRUE(SharesState(*first, *hit));
  ExpectSameIntegration(*hit, *fresh);
}

TEST(IntegrationMemoTest, AHitSharesTheFirstCallsRowSlotIndex) {
  Amalur amalur;
  RegisterStar(&amalur);
  const IntegrationHandle first = MustIntegrate(&amalur, Star());
  TrainRequest request;
  request.label_column = "amount";
  request.gd.iterations = 5;
  request.force_strategy = ExecutionStrategy::kFactorize;
  ASSERT_TRUE(amalur.Train(first, request).ok());
  const IntegrationHandle second = MustIntegrate(&amalur, Star());
  EXPECT_EQ(&first.metadata.slot_index(), &second.metadata.slot_index());
}

TEST(IntegrationMemoTest, TheFlatFormAndItsEdgeListHitEachOther) {
  Amalur flat_first, edges_first;
  RegisterStar(&flat_first);
  RegisterStar(&edges_first);
  const IntegrationHandle flat = MustIntegrate(&flat_first, Star());
  EXPECT_TRUE(SharesState(flat, MustIntegrate(&flat_first, StarEdges())));
  const IntegrationHandle edges = MustIntegrate(&edges_first, StarEdges());
  EXPECT_TRUE(SharesState(edges, MustIntegrate(&edges_first, Star())));
  ExpectSameIntegration(flat, edges);
}

TEST(IntegrationMemoTest, ADifferentGraphMissesAndTheMemoKeepsOneEntry) {
  const std::vector<std::pair<std::string, IntegrationSpec>> others = {
      {"another join kind", StarEdges(rel::JoinKind::kInnerJoin)},
      {"fewer sources", Flat({"sales", "stores", "items"})},
      {"a pair", Flat({"sales", "stores"})}};
  for (const auto& [what, other] : others) {
    SCOPED_TRACE(what);
    Amalur amalur;
    RegisterStar(&amalur);
    const IntegrationHandle star = MustIntegrate(&amalur, Star());
    EXPECT_FALSE(SharesState(star, MustIntegrate(&amalur, other)));
    // One entry: the star's second run is a miss too, and equals the first.
    const IntegrationHandle again = MustIntegrate(&amalur, Star());
    EXPECT_FALSE(SharesState(star, again));
    ExpectSameIntegration(star, again);
  }

  // Another base over the same two sources.
  Amalur amalur;
  RegisterStar(&amalur);
  const IntegrationHandle sales_first =
      MustIntegrate(&amalur, Flat({"sales", "stores"}));
  const IntegrationHandle stores_first =
      MustIntegrate(&amalur, Flat({"stores", "sales"}));
  EXPECT_FALSE(SharesState(sales_first, stores_first));
  EXPECT_EQ(stores_first.source_names,
            (std::vector<std::string>{"stores", "sales"}));
}

TEST(IntegrationMemoTest, AHitAtAnotherPoolWidthEqualsAFreshIntegrationThere) {
  Amalur amalur, fresh_amalur;
  RegisterStar(&amalur);
  RegisterStar(&fresh_amalur);
  IntegrationHandle first;
  {
    common::ScopedNumThreads threads(1);
    first = MustIntegrate(&amalur, Star());
  }
  common::ScopedNumThreads threads(4);
  const IntegrationHandle hit = MustIntegrate(&amalur, Star());
  EXPECT_TRUE(SharesState(first, hit));
  ExpectSameIntegration(hit, MustIntegrate(&fresh_amalur, Star()));
}

TEST(IntegrationMemoTest, NamesAndErrorsAreThoseOfAMiss) {
  Amalur amalur;
  RegisterStar(&amalur);
  const IntegrationHandle first = MustIntegrate(&amalur, Star());

  // A named hit is registered under its name.
  const IntegrationHandle named = MustIntegrate(&amalur, Named(Star(), "star"));
  EXPECT_EQ(named.name, "star");
  EXPECT_TRUE(SharesState(first, named));
  auto registered = amalur.catalog()->GetIntegration("star");
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ((*registered)->name, "star");
  EXPECT_TRUE(SharesState(first, **registered));
  // Reusing the name fails on a hit and on a miss alike.
  EXPECT_TRUE(
      amalur.Integrate(Named(Star(), "star")).status().IsAlreadyExists());
  EXPECT_TRUE(amalur.Integrate(Named(Flat({"sales", "days"}), "star"))
                  .status()
                  .IsAlreadyExists());
  // The remembered handle stays unnamed, and no failed call replaced it.
  const IntegrationHandle unnamed = MustIntegrate(&amalur, Star());
  EXPECT_EQ(unnamed.name, "");
  EXPECT_TRUE(SharesState(first, unnamed));

  // An unknown source and a malformed graph return their status, and the
  // next repeat is still a hit.
  EXPECT_TRUE(
      amalur.Integrate(Flat({"sales", "nowhere"})).status().IsNotFound());
  EXPECT_TRUE(SharesState(first, MustIntegrate(&amalur, Star())));
  IntegrationSpec cycle;
  cycle.edges = {{"sales", "stores", rel::JoinKind::kLeftJoin},
                 {"stores", "sales", rel::JoinKind::kLeftJoin}};
  EXPECT_TRUE(amalur.Integrate(cycle).status().IsInvalidArgument());
  IntegrationSpec lone;
  lone.sources = {"sales"};
  EXPECT_TRUE(amalur.Integrate(lone).status().IsInvalidArgument());
  EXPECT_TRUE(SharesState(first, MustIntegrate(&amalur, Star())));
}

TEST(IntegrationMemoTest, TrainingOverAHitEqualsTrainingOverAFreshHandle) {
  Amalur amalur, fresh_amalur;
  RegisterStar(&amalur);
  RegisterStar(&fresh_amalur);
  MustIntegrate(&amalur, Star());
  const IntegrationHandle hit = MustIntegrate(&amalur, Star());
  const IntegrationHandle fresh = MustIntegrate(&fresh_amalur, Star());
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kFactorize, ExecutionStrategy::kMaterialize}) {
    SCOPED_TRACE(ExecutionStrategyToString(strategy));
    TrainRequest request;
    request.label_column = "amount";
    request.gd.iterations = 20;
    request.gd.learning_rate = 0.1;
    request.force_strategy = strategy;
    auto over_hit = amalur.Train(hit, request);
    auto over_fresh = fresh_amalur.Train(fresh, request);
    ASSERT_TRUE(over_hit.ok()) << over_hit.status();
    ASSERT_TRUE(over_fresh.ok()) << over_fresh.status();
    EXPECT_TRUE(BitEqual(over_hit->weights(), over_fresh->weights()));
    EXPECT_TRUE(BitEqual(over_hit->outcome().loss_history,
                         over_fresh->outcome().loss_history));
  }
}

}  // namespace
}  // namespace core
}  // namespace amalur
