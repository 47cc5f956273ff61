#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "integration/schema_mapping.h"
#include "integration/schema_matching.h"
#include "metadata/di_metadata.h"
#include "relational/join.h"
#include "relational/table.h"

/// \file catalog.h
/// The hybrid metadata catalog of Figure 3: basic metadata of each source
/// (schema, provenance, privacy constraints), the DI metadata of named
/// integration runs (each `IntegrationHandle` carries its column matches,
/// row matchings and derived matrices), and model metadata of trained
/// models. In this in-process reproduction the catalog also holds the data
/// handles; in a deployed system those would be silo connections.
///
/// Registration semantics are uniform across sources, integrations and
/// models: names are unique, re-registering an existing name returns
/// `kAlreadyExists` (never a silent overwrite), and the empty name is
/// `kInvalidArgument`.
///
/// Lifetime rules for catalog lookups: `GetSource` / `GetIntegration` /
/// `GetModel` return pointers into the catalog's own storage (node-stable
/// maps). A returned pointer stays valid until the catalog is destroyed —
/// registering further entries does not move existing ones, and the catalog
/// never overwrites or erases — but callers that need a value to outlive
/// the catalog must copy it. `IntegrationHandle` is designed for exactly
/// that: it is self-contained (it shares ownership of the derived metadata),
/// so a copied handle survives any catalog mutation.
///
/// Thread safety: every method takes the catalog's reader/writer lock
/// (shared for lookups, exclusive for mutation), so concurrent lookups —
/// e.g. serving-tier deploys resolving models while an orchestrator
/// registers new sources — are safe. The lock covers the *map structure*;
/// a returned pointer is lock-free to read because every registered entry
/// (source, integration, model) is immutable once inserted — the
/// `kAlreadyExists` semantics forbid overwrites and nothing erases. Serving
/// never relies on any of this — a `serving::DeployedModel` holds
/// everything it needs from deploy time on.

namespace amalur {
namespace core {

/// One edge of an integration graph: how the rows of two registered sources
/// relate. `left` is the retained/parent side (a fact table or an upstream
/// dimension), `right` the child. Join kinds: `kLeftJoin` attaches a
/// dimension (snowflake chains allowed — a dimension may itself be a
/// `left`, and several edges may share one `right`: a conformed dimension);
/// `kInnerJoin` attaches a dimension AND restricts the target to rows where
/// it matched; `kUnion` stacks a sibling fact shard; `kFullOuterJoin` is
/// valid only on single-edge (pairwise) specs.
struct IntegrationEdge {
  std::string left;
  std::string right;
  rel::JoinKind kind = rel::JoinKind::kLeftJoin;
};

/// One registered data source (a silo's table).
struct SourceEntry {
  std::string name;
  rel::Table table;
  /// Provenance: where the silo lives (free-form, e.g. "hospital-er").
  std::string silo_location;
  /// Privacy constraint: data may not leave the silo (forces federated
  /// execution, §II.C).
  bool privacy_sensitive = false;
};

/// A completed integration over n >= 2 registered sources: everything the
/// automatic pipeline derived. Handles are self-contained and can outlive
/// catalog mutations: copies share one immutable `DiMetadata` state (D_k,
/// CI_k, R_k and the row-slot index built on first use) instead of copying
/// it. `Amalur::Integrate` hands back a copy of its last integration when
/// the planned graph repeats, so the handles of repeated calls share that
/// state too. Named handles are additionally stored in the catalog as
/// first-class reusable objects.
struct IntegrationHandle {
  /// Catalog registration name; empty for ad-hoc (unregistered) handles.
  std::string name;
  /// Participating sources in topological order; element 0 is the fact root
  /// (the base of pairwise scenarios).
  std::vector<std::string> source_names;
  /// The integration graph's edges in topological order (parents before
  /// children). Pairwise scenarios have one edge; specs given in the legacy
  /// `sources`/`relationships` form are lowered into edges here.
  std::vector<IntegrationEdge> edges;
  /// Structural shape of the graph: a copy of `metadata.shape()` (also
  /// reported by `Amalur::Explain`).
  metadata::IntegrationShape shape = metadata::IntegrationShape::kPairwise;
  /// Schema-matching output per edge: `edge_matches[i]` relates
  /// `edges[i].left` to `edges[i].right`.
  std::vector<std::vector<integration::ColumnMatch>> edge_matches;
  integration::SchemaMapping mapping;
  /// Row matchings per edge, same indexing as `edge_matches` (entries are
  /// empty for union edges, which match no rows).
  std::vector<rel::RowMatching> matchings;
  metadata::DiMetadata metadata;
  /// True when any participating source forbids data movement.
  bool privacy_constrained = false;
};

/// Metadata of a trained model (the model-zoo side of the catalog [24]).
struct ModelEntry {
  std::string name;
  std::string task;  // e.g. "linear_regression"
  std::map<std::string, double> hyperparameters;
  /// Evaluation metric value (task-dependent: MSE, accuracy, ...).
  double metric = 0.0;
  /// Names of the sources the model was trained over.
  std::vector<std::string> training_sources;
  /// Execution strategy that produced it ("factorize"/"materialize"/...).
  std::string strategy;
};

/// The catalog. Thread-safe per the reader/writer rules above; holding the
/// lock makes it non-copyable (nothing copies catalogs — handles are the
/// copyable currency).
class Catalog {
 public:
  /// Registers a source; the name must be unique (`kAlreadyExists` otherwise).
  Status RegisterSource(SourceEntry entry);
  Result<const SourceEntry*> GetSource(const std::string& name) const;
  bool HasSource(const std::string& name) const;
  std::vector<std::string> SourceNames() const;

  /// Registers a completed integration under `entry.name`; the name must be
  /// non-empty and unique (`kAlreadyExists` otherwise).
  Status RegisterIntegration(IntegrationHandle entry);
  Result<const IntegrationHandle*> GetIntegration(const std::string& name) const;
  bool HasIntegration(const std::string& name) const;
  std::vector<std::string> IntegrationNames() const;

  /// Registers a trained model; the name must be unique (`kAlreadyExists`
  /// otherwise).
  Status RegisterModel(ModelEntry entry);
  Result<const ModelEntry*> GetModel(const std::string& name) const;
  std::vector<std::string> ModelNames() const;

 private:
  /// Guards the maps below (shared: lookups; exclusive: registration).
  mutable common::SharedMutex mu_;
  std::map<std::string, SourceEntry> sources_ GUARDED_BY(mu_);
  std::map<std::string, IntegrationHandle> integrations_ GUARDED_BY(mu_);
  std::map<std::string, ModelEntry> models_ GUARDED_BY(mu_);
};

}  // namespace core
}  // namespace amalur
