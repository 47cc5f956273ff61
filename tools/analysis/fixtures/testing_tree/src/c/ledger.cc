#include "c/ledger.h"

#include "common/thread_annotations.h"

namespace c {

void Ledger::Record() {
  common::MutexLock lock(mu_);
}

void Ledger::Audit() {
  common::MutexLock lock(mu_);
  listener_->OnAudit();
}

}  // namespace c
