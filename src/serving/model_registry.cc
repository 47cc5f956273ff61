#include "serving/model_registry.h"

#include <utility>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace amalur {
namespace serving {

Result<std::shared_ptr<const DeployedModel>> ModelRegistry::Deploy(
    const std::string& name, const core::ModelHandle& model) {
  // Build the snapshot outside the lock — partial-score extraction is the
  // expensive part and must never stall readers. The optimistic build can
  // lose a deploy race; the name check under the lock is authoritative.
  AMALUR_ASSIGN_OR_RETURN(std::shared_ptr<DeployedModel> snapshot,
                          DeployedModel::Create(name, model));
  common::MutexLock lock(mu_);
  if (deployments_->count(name) > 0) {
    return Status::AlreadyExists("deployment '", name,
                                 "'; use Redeploy to replace it");
  }
  // Version is stamped before publication: the snapshot is not yet visible
  // to any reader, so the non-const write is race-free.
  snapshot->version_ = 1;
  auto next = std::make_shared<DeploymentMap>(*deployments_);
  (*next)[name] = snapshot;
  deployments_ = std::move(next);
  return std::shared_ptr<const DeployedModel>(std::move(snapshot));
}

Result<std::shared_ptr<const DeployedModel>> ModelRegistry::Redeploy(
    const std::string& name, const core::ModelHandle& model) {
  AMALUR_ASSIGN_OR_RETURN(std::shared_ptr<DeployedModel> snapshot,
                          DeployedModel::Create(name, model));
  common::MutexLock lock(mu_);
  auto it = deployments_->find(name);
  if (it == deployments_->end()) {
    return Status::NotFound("deployment '", name, "'");
  }
  snapshot->version_ = it->second->version() + 1;
  auto next = std::make_shared<DeploymentMap>(*deployments_);
  (*next)[name] = snapshot;
  deployments_ = std::move(next);
  return std::shared_ptr<const DeployedModel>(std::move(snapshot));
}

Status ModelRegistry::Undeploy(const std::string& name) {
  common::MutexLock lock(mu_);
  if (deployments_->count(name) == 0) {
    return Status::NotFound("deployment '", name, "'");
  }
  auto next = std::make_shared<DeploymentMap>(*deployments_);
  next->erase(name);
  deployments_ = std::move(next);
  return Status::OK();
}

Result<std::shared_ptr<const DeployedModel>> ModelRegistry::Get(
    const std::string& name) const {
  std::shared_ptr<const DeploymentMap> snapshot = Snapshot();
  auto it = snapshot->find(name);
  if (it == snapshot->end()) {
    return Status::NotFound("deployment '", name, "'");
  }
  return it->second;
}

bool ModelRegistry::Has(const std::string& name) const {
  return Snapshot()->count(name) > 0;
}

std::vector<std::string> ModelRegistry::DeployedNames() const {
  std::shared_ptr<const DeploymentMap> snapshot = Snapshot();
  std::vector<std::string> names;
  names.reserve(snapshot->size());
  for (const auto& [name, model] : *snapshot) names.push_back(name);
  return names;
}

std::shared_ptr<const ModelRegistry::DeploymentMap> ModelRegistry::Snapshot()
    const {
  common::SharedLock lock(mu_);
  return deployments_;
}

}  // namespace serving

namespace core {

// Defined here rather than in core/amalur.cc: core is layered below serving
// and only forward-declares these types.
Result<std::shared_ptr<const serving::DeployedModel>> ModelHandle::Deploy(
    serving::ModelRegistry* registry, const std::string& name) const {
  if (registry == nullptr) {
    return Status::InvalidArgument("cannot deploy model '", name_,
                                   "' into a null registry");
  }
  // Default the deployment name to the model's catalog name.
  return registry->Deploy(name.empty() ? name_ : name, *this);
}

}  // namespace core
}  // namespace amalur
