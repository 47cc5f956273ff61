#pragma once

#include "common/thread_annotations.h"

namespace c {

class Listener {
 public:
  virtual ~Listener() = default;
  virtual void OnAudit() = 0;
};

class Ledger {
 public:
  void Record();
  void Audit();

 private:
  Listener* listener_ = nullptr;
  common::Mutex mu_;
};

}  // namespace c
