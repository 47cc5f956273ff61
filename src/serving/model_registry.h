#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "serving/deployed_model.h"

/// \file model_registry.h
/// The read-mostly deployment catalog of the serving tier. Lookups (the hot
/// path — every request resolves a name) take a shared lock and copy one
/// `shared_ptr`; deployment mutations build the new snapshot *outside* the
/// lock, then swap a copy-on-write map under the exclusive lock. Readers
/// therefore never wait on snapshot construction, and an in-flight request
/// keeps scoring the version it resolved even while a redeploy publishes
/// the next one.
///
/// Registration semantics mirror `core::Catalog`: names are unique
/// (`kAlreadyExists` on re-deploy without `Redeploy`), missing names are
/// `kNotFound`, the empty name is `kInvalidArgument` — never a silent
/// overwrite. Versions are per-name and monotonic: first `Deploy` is
/// version 1, each `Redeploy` increments.

namespace amalur {
namespace serving {

/// Thread-safe deployed-model catalog.
class ModelRegistry {
 public:
  /// Name → deployment snapshot (the COW map readers copy a pointer to).
  using DeploymentMap =
      std::map<std::string, std::shared_ptr<const DeployedModel>>;

  /// Builds a snapshot of `model` and publishes it under `name` (version
  /// 1). `kAlreadyExists` when the name is live (use `Redeploy`);
  /// `kInvalidArgument` for the empty name; `Create`'s errors pass through.
  Result<std::shared_ptr<const DeployedModel>> Deploy(
      const std::string& name, const core::ModelHandle& model);

  /// Replaces the deployment under `name` with a fresh snapshot of `model`
  /// at version +1. `kNotFound` when nothing is deployed under the name.
  /// In-flight batches on the previous snapshot are unaffected — they hold
  /// their own `shared_ptr`.
  Result<std::shared_ptr<const DeployedModel>> Redeploy(
      const std::string& name, const core::ModelHandle& model);

  /// Removes the deployment under `name` (`kNotFound` otherwise). The
  /// snapshot itself lives on until the last in-flight holder drops it.
  Status Undeploy(const std::string& name);

  /// Resolves a live deployment (`kNotFound` otherwise). The returned
  /// snapshot is immune to later registry mutations.
  Result<std::shared_ptr<const DeployedModel>> Get(
      const std::string& name) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> DeployedNames() const;

  /// The full deployment map as of now — one atomic read; iterating it
  /// never blocks or observes a mutation.
  std::shared_ptr<const DeploymentMap> Snapshot() const;

 private:
  mutable common::SharedMutex mu_;
  /// COW: mutations replace the map wholesale; readers share the old one.
  /// The *pointer* is what the lock guards — the pointed-to map is immutable
  /// once published.
  std::shared_ptr<const DeploymentMap> deployments_ GUARDED_BY(mu_) =
      std::make_shared<const DeploymentMap>();
};

}  // namespace serving
}  // namespace amalur
