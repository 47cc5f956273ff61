#include "testing/probe.h"

#include "common/thread_annotations.h"

namespace fixture {

void Probe::OnAudit() {
  common::MutexLock lock(mu_);
}

void Probe::Drain() {
  common::MutexLock lock(mu_);
  ledger_->Record();
}

}  // namespace fixture
