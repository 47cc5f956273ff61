#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/stopwatch.h"

namespace facadebench {

namespace {

const amalur::Stopwatch& Clock() {
  static const amalur::Stopwatch clock;
  return clock;
}

thread_local uint64_t t_parent = 0;
thread_local uint64_t t_op = 0;

}  // namespace

double Now() { return Clock().ElapsedSeconds(); }

void SetCurrentOp(uint64_t op) { t_op = op; }

uint64_t Tracer::Add(Span span) {
  if (span.id == 0) span.id = NextId();
  const uint64_t id = span.id;
  amalur::common::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
  return id;
}

void Tracer::AddAll(std::vector<Span> spans) {
  amalur::common::MutexLock lock(mu_);
  for (Span& span : spans) {
    if (span.id == 0) span.id = NextId();
    spans_.push_back(std::move(span));
  }
}

void Tracer::Count(uint64_t parent, const std::string& name, double value) {
  amalur::common::MutexLock lock(mu_);
  counters_.push_back({parent, name, value});
}

std::vector<Span> Tracer::Spans() const {
  amalur::common::MutexLock lock(mu_);
  return spans_;
}

std::vector<Counter> Tracer::Counters() const {
  amalur::common::MutexLock lock(mu_);
  return counters_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NextId();
  span_.parent = t_parent;
  span_.op = t_op;
  span_.name = name;
  saved_parent_ = t_parent;
  t_parent = span_.id;
  span_.start = Now();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       uint64_t replayed_parent)
    : ScopedSpan(tracer, name) {
  span_.parent = replayed_parent;
  span_.replayed = true;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = Now();
  t_parent = saved_parent_;
  tracer_->Add(std::move(span_));
}

std::map<uint64_t, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, const Span*> by_id;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    by_id[span.id] = &span;
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<uint64_t, double> self;
  for (const Span& span : spans) {
    double replayed = 0.0;
    std::vector<std::pair<double, double>> nested;
    for (const Span* child : children[span.id]) {
      if (child->replayed) {
        replayed += child->duration();
      } else {
        nested.emplace_back(std::max(child->start, span.start),
                            std::min(child->end, span.end));
      }
    }
    // Union of the nested intervals, clipped to the parent.
    std::sort(nested.begin(), nested.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [begin, end] : nested) {
      const double from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[span.id] = span.duration() - covered - replayed;
  }
  return self;
}

amalur::Status Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  const std::vector<Counter> counters = Counters();
  const std::map<uint64_t, double> self = SelfTimes(spans);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return amalur::Status::IOError("cannot write trace to '", path, "'");
  }
  std::fprintf(out, "{\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n {\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                 "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"self\": %.9f, \"replayed\": %s}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name.c_str(),
                 s.start, s.end, self.at(s.id), s.replayed ? "true" : "false");
  }
  std::fprintf(out, "\n], \"counters\": [");
  for (size_t i = 0; i < counters.size(); ++i) {
    const Counter& c = counters[i];
    std::fprintf(out, "%s\n {\"parent\": %llu, \"name\": \"%s\", \"value\": %.17g}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(c.parent),
                 c.name.c_str(), c.value);
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  return ok ? amalur::Status::OK()
            : amalur::Status::IOError("cannot finish trace '", path, "'");
}

}  // namespace facadebench
