#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

/// \file trace.h
/// In-memory spans and counters recorded by the benchmark around the public
/// calls it makes. Nothing here reaches into the library: a span times one
/// call the benchmark itself issues.
///
/// Two kinds of child exist. A *nested* child runs inside its parent's
/// interval (an LMM call inside a GD run). A *replayed* child re-runs, after
/// its parent ended, work the parent did internally where the benchmark
/// cannot see it (the replay of `Amalur::Integrate`'s matching calls, or
/// `DuplicateRatio` re-run after `DeriveGraph`). A span's self time is its
/// duration minus the part of its interval nested children cover, minus the
/// durations of its replayed children.

namespace facadebench {

/// Process-wide monotonic clock, seconds since the benchmark started.
double Now();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t op = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  bool replayed = false;
  double duration() const { return end - start; }
};

/// A count or measured value attached to a span (e.g. bytes moved by one
/// federated train, rows matched correctly by one integrate).
struct Counter {
  uint64_t parent = 0;
  std::string name;
  double value = 0.0;
};

/// Thread-safe span store. Spans stay in memory until `WriteJson`.
class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1); }
  /// Records a finished span and returns its id (`span.id` is assigned when 0).
  uint64_t Add(Span span) EXCLUDES(mu_);
  /// Merges a thread-local buffer (reader threads record without locking).
  void AddAll(std::vector<Span> spans) EXCLUDES(mu_);
  void Count(uint64_t parent, const std::string& name, double value)
      EXCLUDES(mu_);

  std::vector<Span> Spans() const EXCLUDES(mu_);
  std::vector<Counter> Counters() const EXCLUDES(mu_);

  /// Writes every span (with its self time) and counter as one JSON object.
  amalur::Status WriteJson(const std::string& path) const EXCLUDES(mu_);

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable amalur::common::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  std::vector<Counter> counters_ GUARDED_BY(mu_);
};

/// Times one call. With a null tracer it records nothing and costs two clock
/// reads. Nested scopes on the same thread become children automatically;
/// an explicit `parent` marks the span as a replayed child of it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name);
  ScopedSpan(Tracer* tracer, const char* name, uint64_t replayed_parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Sets the op id stamped on spans recorded by this thread.
void SetCurrentOp(uint64_t op);

/// Self time of every span, keyed by span id.
std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans);

}  // namespace facadebench
