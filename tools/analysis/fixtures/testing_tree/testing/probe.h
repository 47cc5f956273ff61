#pragma once

#include "c/ledger.h"
#include "common/thread_annotations.h"

namespace fixture {

class Probe : public c::Listener {
 public:
  void OnAudit() override;
  void Drain();

 private:
  c::Ledger* ledger_ = nullptr;
  common::Mutex mu_;
};

}  // namespace fixture
