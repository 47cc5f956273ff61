#include "core/catalog.h"

#include "common/status.h"
#include "common/thread_annotations.h"

namespace amalur {
namespace core {

// Locking idiom: shared_lock for lookups, unique_lock for mutation. See the
// header for why dereferencing a returned pointer after the lock is
// released is safe (node-stable maps, no overwrites, no erasure).

Status Catalog::RegisterSource(SourceEntry entry) {
  if (entry.name.empty()) return Status::InvalidArgument("empty source name");
  common::MutexLock lock(mu_);
  auto [it, inserted] = sources_.try_emplace(entry.name, std::move(entry));
  if (!inserted) return Status::AlreadyExists("source '", it->first, "'");
  return Status::OK();
}

Result<const SourceEntry*> Catalog::GetSource(const std::string& name) const {
  common::SharedLock lock(mu_);
  auto it = sources_.find(name);
  if (it == sources_.end()) return Status::NotFound("source '", name, "'");
  return &it->second;
}

bool Catalog::HasSource(const std::string& name) const {
  common::SharedLock lock(mu_);
  return sources_.count(name) > 0;
}

std::vector<std::string> Catalog::SourceNames() const {
  common::SharedLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(sources_.size());
  for (const auto& [name, entry] : sources_) names.push_back(name);
  return names;
}

Status Catalog::RegisterIntegration(IntegrationHandle entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("empty integration name");
  }
  common::MutexLock lock(mu_);
  auto [it, inserted] = integrations_.try_emplace(entry.name, std::move(entry));
  if (!inserted) return Status::AlreadyExists("integration '", it->first, "'");
  return Status::OK();
}

Result<const IntegrationHandle*> Catalog::GetIntegration(
    const std::string& name) const {
  common::SharedLock lock(mu_);
  auto it = integrations_.find(name);
  if (it == integrations_.end()) {
    return Status::NotFound("integration '", name, "'");
  }
  return &it->second;
}

bool Catalog::HasIntegration(const std::string& name) const {
  common::SharedLock lock(mu_);
  return integrations_.count(name) > 0;
}

std::vector<std::string> Catalog::IntegrationNames() const {
  common::SharedLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(integrations_.size());
  for (const auto& [name, entry] : integrations_) names.push_back(name);
  return names;
}

Status Catalog::RegisterModel(ModelEntry entry) {
  if (entry.name.empty()) return Status::InvalidArgument("empty model name");
  common::MutexLock lock(mu_);
  auto [it, inserted] = models_.try_emplace(entry.name, std::move(entry));
  if (!inserted) return Status::AlreadyExists("model '", it->first, "'");
  return Status::OK();
}

Result<const ModelEntry*> Catalog::GetModel(const std::string& name) const {
  common::SharedLock lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) return Status::NotFound("model '", name, "'");
  return &it->second;
}

std::vector<std::string> Catalog::ModelNames() const {
  common::SharedLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

}  // namespace core
}  // namespace amalur
