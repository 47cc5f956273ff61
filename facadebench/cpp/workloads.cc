#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/amalur.h"
#include "inputs.h"
#include "replay.h"
#include "serving/model_registry.h"
#include "trace.h"

namespace facadebench {

namespace {

namespace rel = amalur::rel;
using amalur::Result;
using amalur::Rng;
using amalur::common::ScopedNumThreads;

/// Set-up runs this many times per run; `setup_s` is their median.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kMaxFailureMessages = 5;
/// Tolerance of the twin checks (the contract tests/system pins).
constexpr double kTwinTolerance = 1e-8;
/// Rows scored by the output check of every deploy.
constexpr size_t kProbeRows = 1024;
/// serve-refresh: rows per reader request, distinct batches per reader, and
/// the nominal length of one refresh cycle that turns --seconds into a fixed
/// cycle count.
constexpr size_t kReadBatchRows = 8192;
constexpr size_t kReadBatches = 8;
constexpr double kNominalCycleSeconds = 0.5;
const char kServedModel[] = "sales-model";
/// Pool width of every facade call. On the 4-vCPU VM the benchmark was
/// sized on, width-4 Train medians swung between 0.13 s and 0.39 s from one
/// 3 s window to the next with no mean speed-up, while width 1 stayed within
/// 0.15-0.18 s; the width is fixed at 1 so timings repeat. serve-refresh still
/// runs nproc threads: nproc - 1 readers beside the writer.
constexpr size_t kPoolWidth = 1;

// ------------------------------------------------------------- statistics

/// Linear-interpolation quantile (the same rule as numpy's default).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Empty when the loss history is healthy: finite and falling.
std::string LossProblem(const std::vector<double>& history) {
  if (history.empty()) return "empty loss history";
  for (double loss : history) {
    if (!std::isfinite(loss)) return "non-finite loss";
  }
  if (!(history.back() < history.front())) return "loss did not fall";
  return "";
}

// ------------------------------------------------------------ run state

class Run {
 public:
  explicit Run(const RunOptions& options)
      : options_(options),
        tracer_(options.trace ? std::make_unique<Tracer>() : nullptr) {}

  const RunOptions& options() const { return options_; }
  Tracer* tracer() { return tracer_.get(); }
  RunResult& result() { return result_; }

  void Attempt(size_t n = 1) { result_.attempted += n; }
  /// Counts one failed op; always returns false so callers can `return`.
  bool Fail(const std::string& message) {
    ++result_.failed;
    if (result_.failures.size() < kMaxFailureMessages) {
      result_.failures.push_back(message);
    }
    return false;
  }
  /// A replay that does not reproduce the facade fails its op and the run.
  bool Replayed(const amalur::Status& status, const std::string& what) {
    if (status.ok()) return true;
    result_.replay_equal = false;
    return Fail("replay of " + what + ": " + status.ToString());
  }
  void Setting(const std::string& setting) {
    result_.settings.push_back(setting);
  }
  void Put(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    result_.metrics.push_back({name, value, unit, samples});
  }
  void PutMedian(const std::string& name, const std::vector<double>& values,
                 const std::string& unit, double scale = 1.0) {
    Put(name, scale * Median(values), unit, values.size());
  }
  /// Facade time of one op, split by whether it was traced (trace.overhead).
  void OpTime(bool traced, double seconds) {
    (traced ? traced_ops_ : untraced_ops_).push_back(seconds);
  }
  double TraceOverhead() const {
    if (traced_ops_.empty() || untraced_ops_.empty()) return 0.0;
    return Median(traced_ops_) / Median(untraced_ops_) - 1.0;
  }

 private:
  RunOptions options_;
  std::unique_ptr<Tracer> tracer_;
  RunResult result_;
  std::vector<double> traced_ops_;
  std::vector<double> untraced_ops_;
};

/// Times `fn` as the facade phase `name` of op `op`; with tracing on, also
/// records it as a root span and returns the span id through `span`.
double Phase(Tracer* tracer, const char* name, uint64_t op, uint64_t* span,
             const std::function<void()>& fn) {
  const double start = Now();
  fn();
  const double end = Now();
  if (tracer != nullptr) {
    Span record;
    record.op = op;
    record.name = name;
    record.start = start;
    record.end = end;
    *span = tracer->Add(std::move(record));
  }
  return end - start;
}

/// Scores the program's row matching against the generator's truth.
void CountMatches(Tracer* tracer, uint64_t phase,
                  const rel::RowMatching& matching, TruePairs truth) {
  if (tracer == nullptr) return;
  TruePairs found = matching.matched;
  std::sort(found.begin(), found.end());
  std::sort(truth.begin(), truth.end());
  TruePairs hits;
  std::set_intersection(found.begin(), found.end(), truth.begin(),
                        truth.end(), std::back_inserter(hits));
  tracer->Count(phase, "match.true_pairs_found", static_cast<double>(hits.size()));
  tracer->Count(phase, "match.pairs_found", static_cast<double>(found.size()));
  tracer->Count(phase, "match.true_pairs", static_cast<double>(truth.size()));
}

/// Every deploy's output check: the snapshot scores `probe` bitwise-equal to
/// the model's in-sample `Predict()` at the same rows.
amalur::Status CheckProbe(const serving::DeployedModel& deployed,
                          const core::ModelHandle& model,
                          const std::vector<serving::RowRef>& probe) {
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix in_sample, model.Predict());
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix scores, deployed.PredictBatch(probe));
  for (size_t i = 0; i < probe.size(); ++i) {
    if (!BitEqual(scores.At(i, 0), in_sample.At(probe[i].row, 0))) {
      return amalur::Status::Internal("snapshot v", deployed.version(),
                                      " scores row ", probe[i].row,
                                      " unlike Predict()");
    }
  }
  return amalur::Status::OK();
}

std::vector<serving::RowRef> RandomRows(size_t n, size_t rows, Rng* rng) {
  std::vector<serving::RowRef> out(n);
  for (serving::RowRef& ref : out) ref.row = rng->NextUint64(rows);
  return out;
}

const rel::Table* SourceTable(const core::Amalur& system,
                              const std::string& name) {
  auto entry = system.catalog().GetSource(name);
  AMALUR_CHECK_OK(entry.status());
  return &(*entry)->table;
}

std::vector<const rel::Table*> SourceTables(
    const core::Amalur& system, const core::IntegrationHandle& handle) {
  std::vector<const rel::Table*> tables;
  for (const std::string& name : handle.source_names) {
    tables.push_back(SourceTable(system, name));
  }
  return tables;
}

/// Output check of every Integrate: each edge pairs exactly one column,
/// the one name its two generated tables share (a key or the entity name).
amalur::Status CheckEdgeMatches(const core::Amalur& system,
                                const core::IntegrationHandle& handle) {
  for (size_t e = 0; e < handle.edges.size(); ++e) {
    const rel::Table& left = *SourceTable(system, handle.edges[e].left);
    const rel::Table& right = *SourceTable(system, handle.edges[e].right);
    const auto& matches = handle.edge_matches[e];
    if (matches.size() != 1 ||
        left.column(matches[0].left_column).name() !=
            right.column(matches[0].right_column).name()) {
      return amalur::Status::Internal(
          "schema matching paired ", matches.size(), " columns of ",
          handle.edges[e].left, " and ", handle.edges[e].right,
          "; the tables share exactly one");
    }
  }
  return amalur::Status::OK();
}

void Register(core::Amalur* system, const std::string& name, rel::Table table,
              bool privacy_sensitive) {
  AMALUR_CHECK_OK(system->catalog()->RegisterSource(
      {name, std::move(table), "silo-" + name, privacy_sensitive}));
}

std::string MatcherSetting(const core::AmalurOptions& options) {
  return "matcher.threshold=" + std::to_string(options.matcher.threshold) +
         " matcher.sample_size=" + std::to_string(options.matcher.sample_size) +
         " resolver.threshold=" + std::to_string(options.resolver.threshold) +
         " resolver.use_blocking=" +
         (options.resolver.use_blocking ? "true" : "false");
}

std::string GdSetting(const core::TrainRequest& request) {
  return "iterations=" + std::to_string(request.gd.iterations) +
         " learning_rate=" + std::to_string(request.gd.learning_rate) +
         " l2=" + std::to_string(request.gd.l2) +
         " num_threads=" + std::to_string(request.num_threads);
}

// ------------------------------------------------------ per-layer metrics

/// How a per-layer metric aggregates one facade phase call: the summed
/// durations, self times or number of its spans of one name, or the sum of
/// its counters of one name.
enum class Agg { kTotal, kSelf, kCount, kCounter };

struct LayerMetric {
  const char* metric;
  const char* source;  ///< span or counter name
  const char* phase;
  Agg agg;
  const char* unit;
};

/// Per facade phase call, median over the run's calls of that phase. A call
/// without such spans or counters counts 0 (the layer did no work there).
const LayerMetric kLayerMetrics[] = {
    {"relational.match_rows_s", "relational.match_rows", "core.integrate", Agg::kTotal, "s"},
    {"integration.match_schemas_s", "integration.match_schemas", "core.integrate", Agg::kTotal, "s"},
    {"integration.resolve_entities_s", "integration.resolve_entities", "core.integrate", Agg::kTotal, "s"},
    {"integration.duplicate_ratio_s", "integration.duplicate_ratio", "core.integrate", Agg::kTotal, "s"},
    {"metadata.derive_s", "metadata.derive", "core.integrate", Agg::kTotal, "s"},
    {"core.integrate_self_s", "core.integrate", "core.integrate", Agg::kSelf, "s"},
    {"cost.plan_s", "cost.plan", "core.train", Agg::kTotal, "s"},
    {"factorized.plan_build_s", "factorized.plan_build", "core.train", Agg::kTotal, "s"},
    {"factorized.lmm_s", "factorized.lmm", "core.train", Agg::kTotal, "s"},
    {"factorized.lmm_calls", "factorized.lmm", "core.train", Agg::kCount, "count"},
    {"factorized.tlmm_s", "factorized.tlmm", "core.train", Agg::kTotal, "s"},
    {"factorized.tlmm_calls", "factorized.tlmm", "core.train", Agg::kCount, "count"},
    {"ml.gd_self_s", "ml.gd", "core.train", Agg::kSelf, "s"},
    {"ml.iterations", "ml.iterations", "core.train", Agg::kCounter, "count"},
    {"federated.align_s", "federated.align", "core.train", Agg::kTotal, "s"},
    {"federated.wire_s", "federated.wire", "core.train", Agg::kTotal, "s"},
    {"federated.compute_s", "federated.train", "core.train", Agg::kSelf, "s"},
    {"federated.messages", "federated.messages", "core.train", Agg::kCounter, "count"},
    {"federated.bytes", "federated.bytes", "core.train", Agg::kCounter, "B"},
    {"core.train_self_s", "core.train", "core.train", Agg::kSelf, "s"},
    {"factorized.partial_scores_s", "factorized.partial_scores", "core.deploy", Agg::kTotal, "s"},
    {"serving.snapshot_s", "serving.snapshot", "core.deploy", Agg::kTotal, "s"},
};

const char* const kPhases[] = {"core.integrate", "core.train", "core.deploy"};

class TraceIndex {
 public:
  explicit TraceIndex(const Tracer& tracer)
      : spans_(tracer.Spans()),
        counters_(tracer.Counters()),
        self_(SelfTimes(spans_)) {
    for (const Span& span : spans_) by_id_[span.id] = &span;
  }

  /// The facade phase call a span belongs to (0 = none).
  uint64_t PhaseOf(uint64_t id) const {
    while (id != 0) {
      const Span& span = *by_id_.at(id);
      for (const char* phase : kPhases) {
        if (span.name == phase) return id;
      }
      id = span.parent;
    }
    return 0;
  }

  /// Median over calls of `metric.phase` of the per-call aggregate.
  double PerPhaseMedian(const LayerMetric& metric) const {
    const std::string source = metric.source;
    std::map<uint64_t, double> per_call;
    for (const Span& span : spans_) {
      if (span.name == metric.phase) per_call[span.id] = 0.0;
    }
    auto add = [&](uint64_t id, double value) {
      auto call = per_call.find(PhaseOf(id));
      if (call != per_call.end()) call->second += value;
    };
    if (metric.agg == Agg::kCounter) {
      for (const Counter& counter : counters_) {
        if (counter.name == source) add(counter.parent, counter.value);
      }
    } else {
      for (const Span& span : spans_) {
        if (span.name != source) continue;
        add(span.id, metric.agg == Agg::kCount  ? 1.0
                     : metric.agg == Agg::kSelf ? self_.at(span.id)
                                                : span.duration());
      }
    }
    std::vector<double> values;
    for (const auto& [call, value] : per_call) values.push_back(value);
    return Median(values);
  }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.duration());
    }
    return out;
  }

  double CounterSum(const std::string& name) const {
    double sum = 0.0;
    for (const Counter& counter : counters_) {
      if (counter.name == name) sum += counter.value;
    }
    return sum;
  }

  /// Replayed time under a phase ÷ the phase's facade time, over the run.
  double Coverage(const std::string& phase) const {
    double facade = 0.0;
    double replayed = 0.0;
    for (const Span& span : spans_) {
      if (span.name == phase) facade += span.duration();
      if (span.replayed && span.parent != 0 &&
          by_id_.at(span.parent)->name == phase) {
        replayed += span.duration();
      }
    }
    return facade > 0.0 ? replayed / facade : 0.0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::map<uint64_t, double> self_;
  std::map<uint64_t, const Span*> by_id_;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Fills the per-layer metrics from the traced run's spans and counters.
void PutLayerMetrics(Run* run, double regret) {
  const TraceIndex index(*run->tracer());
  for (const LayerMetric& metric : kLayerMetrics) {
    run->Put(metric.metric, index.PerPhaseMedian(metric), metric.unit);
  }
  run->Put("integration.er_precision",
           Ratio(index.CounterSum("match.true_pairs_found"),
                 index.CounterSum("match.pairs_found")),
           "ratio");
  run->Put("integration.er_recall",
           Ratio(index.CounterSum("match.true_pairs_found"),
                 index.CounterSum("match.true_pairs")),
           "ratio");
  run->Put("metadata.redundancy",
           Ratio(index.CounterSum("metadata.target_cells"),
                 index.CounterSum("metadata.source_cells")),
           "ratio");
  run->Put("cost.regret", regret, "ratio");
  const std::vector<double> gets = index.Durations("serving.registry_get");
  const std::vector<double> batches = index.Durations("serving.predict_batch");
  run->Put("serving.registry_get_s", Median(gets), "s", gets.size());
  run->Put("serving.predict_batch_s", Median(batches), "s", batches.size());
  run->Put("serving.lookups_per_row",
           Ratio(index.CounterSum("serving.cache_hits"),
                 index.CounterSum("serving.rows")),
           "count");
  run->Put("trace.coverage.integrate", index.Coverage("core.integrate"), "ratio");
  run->Put("trace.coverage.train", index.Coverage("core.train"), "ratio");
  run->Put("trace.coverage.deploy", index.Coverage("core.deploy"), "ratio");
  run->Put("trace.overhead", run->TraceOverhead(), "ratio");
}

/// Shared tail: per-layer metrics (traced) or the workload-wide ones.
void Finish(Run* run, double regret) {
  if (run->tracer() != nullptr) {
    PutLayerMetrics(run, regret);
    if (!run->options().trace_out.empty()) {
      const amalur::Status written =
          run->tracer()->WriteJson(run->options().trace_out);
      if (!written.ok()) run->Fail(written.ToString());
    }
    return;
  }
  run->Put("peak_rss_mb", PeakRssMb(), "MiB");
  RunResult& result = run->result();
  run->Put("ops_failed_frac",
           Ratio(static_cast<double>(result.failed),
                 static_cast<double>(result.attempted)),
           "ratio");
}

/// Time of one `Train` of `request`, or a negative value when it fails.
double TimedTrain(core::Amalur* system, const core::IntegrationHandle& handle,
                  const core::TrainRequest& request) {
  const double start = Now();
  const bool ok = system->Train(handle, request).ok();
  return ok ? Now() - start : -1.0;
}

/// cost.regret: time of the optimizer's strategy ÷ time of the faster of
/// forced factorize and forced materialize (one measurement each).
double MeasureRegret(core::Amalur* system, const core::IntegrationHandle& handle,
                     core::TrainRequest request) {
  const core::ExecutionStrategy chosen = system->Explain(handle).strategy;
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  const double factorize = TimedTrain(system, handle, request);
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  const double materialize = TimedTrain(system, handle, request);
  if (factorize <= 0.0 || materialize <= 0.0) return 0.0;
  const double chosen_time =
      chosen == core::ExecutionStrategy::kFactorize ? factorize : materialize;
  return chosen_time / std::min(factorize, materialize);
}

/// Runs `op(id, traced)` back to back: one untimed warm-up op, then ops
/// until `seconds` have passed. With tracing on every second op is traced.
void ClosedLoop(Run* run, const std::function<bool(uint64_t, bool)>& op) {
  run->Attempt();
  op(0, false);
  const double start = Now();
  for (uint64_t id = 1; Now() - start < run->options().seconds; ++id) {
    run->Attempt();
    op(id, run->options().trace && id % 2 == 0);
  }
}

// ---------------------------------------------------------- star-augment

RunResult RunStarAugment(const RunOptions& options) {
  Run run(options);
  const StarSpec spec;
  core::AmalurOptions amalur_options;
  amalur_options.matcher.threshold = 0.75;
  std::vector<core::TrainRequest> sweep(3);
  const double rates[] = {0.1, 0.2, 0.4};
  const double l2s[] = {1e-2, 1e-3, 0.0};
  for (size_t i = 0; i < sweep.size(); ++i) {
    sweep[i].label_column = "revenue";
    sweep[i].gd.iterations = 30;
    sweep[i].gd.learning_rate = rates[i];
    sweep[i].gd.l2 = l2s[i];
    sweep[i].num_threads = kPoolWidth;
  }
  run.Setting(MatcherSetting(amalur_options));
  run.Setting("pool=" + std::to_string(kPoolWidth) + " sweep=3x{" +
              GdSetting(sweep[0]) + "}, (learning_rate, l2) in "
              "{(0.1,1e-2), (0.2,1e-3), (0.4,0)}");
  run.Setting("fact_rows=" + std::to_string(spec.fact_rows) + " dims=" +
              std::to_string(spec.dim_rows[0]) + "/" +
              std::to_string(spec.dim_rows[1]) + "/" +
              std::to_string(spec.dim_rows[2]));

  std::unique_ptr<core::Amalur> system;
  std::vector<TruePairs> truth;
  std::vector<double> setup;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    system.reset();
    const double start = Now();
    StarInputs inputs = MakeStar(spec, SubSeed(options.seed, 0));
    system = std::make_unique<core::Amalur>(amalur_options);
    Register(system.get(), "sales", std::move(inputs.fact), false);
    const char* const names[] = {"customers", "products", "stores"};
    for (size_t d = 0; d < 3; ++d) {
      Register(system.get(), names[d], std::move(inputs.dims[d]), false);
    }
    setup.push_back(Now() - start);
    truth = std::move(inputs.truth);
  }
  core::IntegrationSpec integration_spec;
  integration_spec.sources = {"sales", "customers", "products", "stores"};
  integration_spec.relationships = {rel::JoinKind::kLeftJoin};
  Rng probe_rng(SubSeed(options.seed, 1));
  const std::vector<serving::RowRef> probe =
      RandomRows(kProbeRows, spec.fact_rows, &probe_rng);

  std::vector<double> integrate_s, train_s, deploy_s, final_loss;
  std::vector<la::DenseMatrix> reference;  // weights of the first op's sweep
  std::string strategy;
  ClosedLoop(&run, [&](uint64_t id, bool traced) {
    Tracer* tracer = traced ? run.tracer() : nullptr;
    SetCurrentOp(id);
    ScopedNumThreads threads(kPoolWidth);
    uint64_t phase = 0;
    Result<core::IntegrationHandle> integration = core::IntegrationHandle{};
    const double integrate = Phase(tracer, "core.integrate", id, &phase, [&] {
      integration = system->Integrate(integration_spec);
    });
    if (!integration.ok()) return run.Fail(integration.status().ToString());
    if (integration->shape != amalur::metadata::IntegrationShape::kStar) {
      return run.Fail("star-augment integrated as a non-star");
    }
    const amalur::Status matched = CheckEdgeMatches(*system, *integration);
    if (!matched.ok()) return run.Fail(matched.ToString());
    if (tracer != nullptr) {
      for (size_t e = 0; e < truth.size(); ++e) {
        CountMatches(tracer, phase, integration->matchings[e], truth[e]);
      }
      if (!run.Replayed(ReplayIntegrate(*integration,
                                        SourceTables(*system, *integration),
                                        amalur_options, Derivation::kStar,
                                        tracer, phase),
                        "Integrate")) {
        return false;
      }
    }
    std::vector<double> trains;
    std::vector<core::ModelHandle> models;
    for (const core::TrainRequest& request : sweep) {
      Result<core::ModelHandle> model = core::ModelHandle{};
      trains.push_back(Phase(tracer, "core.train", id, &phase, [&] {
        model = system->Train(*integration, request);
      }));
      if (!model.ok()) return run.Fail(model.status().ToString());
      const std::string problem = LossProblem(model->outcome().loss_history);
      if (!problem.empty()) return run.Fail("Train: " + problem);
      if (tracer != nullptr &&
          !run.Replayed(ReplayTrain(*system, *integration, request, *model,
                                    tracer, phase),
                        "Train")) {
        return false;
      }
      strategy = core::ExecutionStrategyToString(model->outcome().strategy_used);
      models.push_back(*std::move(model));
    }
    size_t best = 0;
    for (size_t i = 1; i < models.size(); ++i) {
      if (models[i].outcome().loss_history.back() <
          models[best].outcome().loss_history.back()) {
        best = i;
      }
    }
    serving::ModelRegistry registry;
    Result<std::shared_ptr<const serving::DeployedModel>> deployed =
        std::shared_ptr<const serving::DeployedModel>();
    const double deploy = Phase(tracer, "core.deploy", id, &phase, [&] {
      deployed = models[best].Deploy(&registry, "star-model");
    });
    if (!deployed.ok()) return run.Fail(deployed.status().ToString());
    const amalur::Status probed = CheckProbe(**deployed, models[best], probe);
    if (!probed.ok()) return run.Fail(probed.ToString());
    if (tracer != nullptr &&
        !run.Replayed(ReplayDeploy(models[best], **deployed, tracer, phase),
                      "Deploy")) {
      return false;
    }
    // Same inputs and requests every op: the weights must repeat bitwise.
    if (reference.empty()) {
      for (const core::ModelHandle& model : models) {
        reference.push_back(model.weights());
      }
    }
    for (size_t i = 0; i < models.size(); ++i) {
      if (!BitEqual(models[i].weights(), reference[i])) {
        return run.Fail("swept weights differ between ops");
      }
    }
    if (id == 0) return true;  // warm-up: checked, not timed
    double facade = integrate + deploy;
    for (double t : trains) facade += t;
    run.OpTime(traced, facade);
    integrate_s.push_back(integrate);
    train_s.insert(train_s.end(), trains.begin(), trains.end());
    deploy_s.push_back(deploy);
    final_loss.push_back(models[best].outcome().loss_history.back());
    return true;
  });
  run.Setting("optimizer strategy=" + strategy);

  // Once per run: the swept models match a forced-materialize twin.
  double regret = 0.0;
  {
    run.Attempt();
    ScopedNumThreads threads(kPoolWidth);
    auto integration = system->Integrate(integration_spec);
    if (!integration.ok() || reference.empty()) {
      run.Fail("twin: no integration or no swept model to compare");
    } else {
      for (size_t i = 0; i < sweep.size(); ++i) {
        core::TrainRequest materialize = sweep[i];
        materialize.force_strategy = core::ExecutionStrategy::kMaterialize;
        auto twin = system->Train(*integration, materialize);
        if (!twin.ok()) {
          run.Fail("twin: " + twin.status().ToString());
          break;
        }
        const double diff = reference[i].MaxAbsDiff(twin->weights());
        if (!(diff < kTwinTolerance)) {
          run.Fail("twin: factorized and materialized weights differ by " +
                   std::to_string(diff));
          break;
        }
      }
      if (options.trace) regret = MeasureRegret(system.get(), *integration, sweep[0]);
    }
  }

  if (!options.trace) {
    run.PutMedian("setup_s", setup, "s");
    run.PutMedian("integrate_s", integrate_s, "s");
    run.PutMedian("train_s", train_s, "s");
    run.PutMedian("deploy_s", deploy_s, "s");
    run.PutMedian("final_loss", final_loss, "MSE");
  }
  Finish(&run, regret);
  return run.result();
}

// ---------------------------------------------------------------- er-vfl

RunResult RunErVfl(const RunOptions& options) {
  Run run(options);
  const ErPairSpec spec;
  core::AmalurOptions amalur_options;
  // The entity-name column matches on its own only when the instance sample
  // covers it and the threshold rejects Gaussian-vs-Gaussian numeric pairs.
  amalur_options.matcher.threshold = 0.75;
  amalur_options.matcher.sample_size = 2 * spec.rows;
  core::TrainRequest request;
  request.label_column = "outcome";
  request.gd.iterations = 100;
  request.gd.learning_rate = 0.1;
  request.num_threads = kPoolWidth;
  run.Setting(MatcherSetting(amalur_options));
  run.Setting("pool=" + std::to_string(kPoolWidth) + " " +
              GdSetting(request) + " privacy=plaintext");
  run.Setting("rows=" + std::to_string(spec.rows) + " per side, overlap=" +
              std::to_string(spec.overlap) + " typo_rate=" +
              std::to_string(spec.typo_rate));

  core::IntegrationSpec integration_spec;
  integration_spec.sources = {"patients", "genomics"};
  integration_spec.relationships = {rel::JoinKind::kInnerJoin};

  // One fresh, privacy-constrained pair per op.
  auto make_system = [&](uint64_t id, bool privacy, TruePairs* truth) {
    ErPair pair = MakeErPair(spec, SubSeed(options.seed, id));
    auto system = std::make_unique<core::Amalur>(amalur_options);
    Register(system.get(), "patients", std::move(pair.left), privacy);
    Register(system.get(), "genomics", std::move(pair.right), privacy);
    if (truth != nullptr) *truth = std::move(pair.truth);
    return system;
  };

  std::vector<double> setup, integrate_s, train_s, wire_bytes, final_loss;
  ClosedLoop(&run, [&](uint64_t id, bool traced) {
    Tracer* tracer = traced ? run.tracer() : nullptr;
    SetCurrentOp(id);
    TruePairs truth;
    const double setup_start = Now();
    std::unique_ptr<core::Amalur> system = make_system(id, true, &truth);
    const double setup_time = Now() - setup_start;
    ScopedNumThreads threads(kPoolWidth);
    uint64_t phase = 0;
    Result<core::IntegrationHandle> integration = core::IntegrationHandle{};
    const double integrate = Phase(tracer, "core.integrate", id, &phase, [&] {
      integration = system->Integrate(integration_spec);
    });
    if (!integration.ok()) return run.Fail(integration.status().ToString());
    if (!integration->privacy_constrained ||
        integration->metadata.target_rows() == 0) {
      return run.Fail("er-vfl: expected a non-empty privacy-constrained pair");
    }
    const amalur::Status matched = CheckEdgeMatches(*system, *integration);
    if (!matched.ok()) return run.Fail(matched.ToString());
    if (tracer != nullptr) {
      CountMatches(tracer, phase, integration->matchings[0], truth);
      if (!run.Replayed(ReplayIntegrate(*integration,
                                        SourceTables(*system, *integration),
                                        amalur_options, Derivation::kPair,
                                        tracer, phase),
                        "Integrate")) {
        return false;
      }
    }
    Result<core::ModelHandle> model = core::ModelHandle{};
    const double train = Phase(tracer, "core.train", id, &phase, [&] {
      model = system->Train(*integration, request);
    });
    if (!model.ok()) return run.Fail(model.status().ToString());
    if (model->outcome().strategy_used != core::ExecutionStrategy::kFederate) {
      return run.Fail("er-vfl: privacy-constrained Train did not federate");
    }
    const std::string problem = LossProblem(model->outcome().loss_history);
    if (!problem.empty()) return run.Fail("Train: " + problem);
    if (tracer != nullptr &&
        !run.Replayed(ReplayTrain(*system, *integration, request, *model,
                                  tracer, phase),
                      "Train")) {
      return false;
    }
    if (id == 0) return true;
    run.OpTime(traced, integrate + train);
    setup.push_back(setup_time);
    integrate_s.push_back(integrate);
    train_s.push_back(train);
    wire_bytes.push_back(static_cast<double>(model->outcome().bytes_transferred));
    final_loss.push_back(model->outcome().loss_history.back());
    return true;
  });

  // Once per run: op 1's federated model matches a non-private materialized
  // twin over the same pair.
  {
    run.Attempt();
    ScopedNumThreads threads(kPoolWidth);
    std::unique_ptr<core::Amalur> secret = make_system(1, true, nullptr);
    std::unique_ptr<core::Amalur> open = make_system(1, false, nullptr);
    auto secret_integration = secret->Integrate(integration_spec);
    auto open_integration = open->Integrate(integration_spec);
    core::TrainRequest materialize = request;
    materialize.force_strategy = core::ExecutionStrategy::kMaterialize;
    if (!secret_integration.ok() || !open_integration.ok()) {
      run.Fail("twin: Integrate failed");
    } else {
      auto federated = secret->Train(*secret_integration, request);
      auto central = open->Train(*open_integration, materialize);
      if (!federated.ok() || !central.ok()) {
        run.Fail("twin: Train failed");
      } else {
        const double diff = federated->weights().MaxAbsDiff(central->weights());
        if (!(diff < kTwinTolerance)) {
          run.Fail("twin: federated and materialized weights differ by " +
                   std::to_string(diff));
        }
      }
    }
  }

  if (!options.trace) {
    run.PutMedian("setup_s", setup, "s");
    run.PutMedian("integrate_s", integrate_s, "s");
    run.PutMedian("train_s", train_s, "s");
    run.PutMedian("fed_wire_bytes", wire_bytes, "B");
    run.PutMedian("final_loss", final_loss, "MSE");
  }
  // Federation is the only legal strategy over privacy-constrained silos,
  // so the optimizer's choice is the best one available.
  Finish(&run, 1.0);
  return run.result();
}

// --------------------------------------------------------- serve-refresh

struct ReaderLog {
  std::vector<double> latencies;
  uint64_t rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::vector<Span> spans;
};

/// One reader: `Get` + `PredictBatch` on fixed-size batches until `stop`.
/// Its requests' spans carry op ids `op_base + request`.
void ReadLoop(const serving::ModelRegistry& registry,
              const std::vector<std::vector<serving::RowRef>>& batches,
              const std::atomic<bool>& stop, bool trace, uint64_t op_base,
              ReaderLog* log) {
  ScopedNumThreads threads(kPoolWidth);
  uint64_t last_version = 0;
  for (size_t request = 0; !stop.load(std::memory_order_acquire); ++request) {
    const std::vector<serving::RowRef>& batch =
        batches[request % batches.size()];
    const double start = Now();
    auto snapshot = registry.Get(kServedModel);
    const double got = Now();
    Result<la::DenseMatrix> scores = la::DenseMatrix();
    if (snapshot.ok()) scores = (*snapshot)->PredictBatch(batch);
    const double end = Now();
    ++log->attempted;
    std::string problem;
    if (!snapshot.ok()) {
      problem = snapshot.status().ToString();
    } else if (!scores.ok()) {
      problem = scores.status().ToString();
    } else if (scores->rows() != batch.size()) {
      problem = "short score batch";
    } else if ((*snapshot)->version() < last_version) {
      problem = "registry version went backwards";
    }
    if (!problem.empty()) {
      ++log->failed;
      if (log->first_failure.empty()) log->first_failure = problem;
      continue;
    }
    last_version = (*snapshot)->version();
    log->latencies.push_back(end - start);
    log->rows += batch.size();
    if (trace) {
      Span get;
      get.op = op_base + request;
      get.name = "serving.registry_get";
      get.start = start;
      get.end = got;
      Span predict = get;
      predict.name = "serving.predict_batch";
      predict.start = got;
      predict.end = end;
      log->spans.push_back(std::move(get));
      log->spans.push_back(std::move(predict));
    }
  }
}

/// The readers of serve-refresh. Stops and joins them on destruction too,
/// so no reader outlives the registry and batches it reads.
class Readers {
 public:
  Readers(const serving::ModelRegistry& registry,
          const std::vector<std::vector<std::vector<serving::RowRef>>>& batches,
          bool trace)
      : logs_(batches.size()) {
    for (size_t r = 0; r < batches.size(); ++r) {
      // Reader r's op ids start at (r + 1) << 32, clear of the writer's.
      threads_.emplace_back(ReadLoop, std::cref(registry), std::cref(batches[r]),
                            std::cref(stop_), trace, uint64_t{r + 1} << 32,
                            &logs_[r]);
    }
  }
  ~Readers() { Stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  /// Stops and joins every reader; returns their logs.
  std::vector<ReaderLog>& Stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    return logs_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<ReaderLog> logs_;
  std::vector<std::thread> threads_;  // last: the threads use the members above
};

RunResult RunServeRefresh(const RunOptions& options) {
  Run run(options);
  const SnowflakeSpec spec;
  core::AmalurOptions amalur_options;
  amalur_options.matcher.threshold = 0.75;
  core::TrainRequest request;
  request.label_column = "demand";
  request.gd.iterations = 30;
  request.gd.learning_rate = 0.4;
  request.num_threads = kPoolWidth;
  const size_t readers = std::max<size_t>(1, options.nproc - 1);
  const size_t cycles = std::max<size_t>(
      4, static_cast<size_t>(std::llround(options.seconds / kNominalCycleSeconds)));
  run.Setting(MatcherSetting(amalur_options));
  run.Setting("writer: " + GdSetting(request) + " cycles=" +
              std::to_string(cycles));
  run.Setting("readers=" + std::to_string(readers) + " pool=" +
              std::to_string(kPoolWidth) + " batch_rows=" +
              std::to_string(kReadBatchRows));
  run.Setting("fact_rows=" + std::to_string(spec.fact_rows) + " items=" +
              std::to_string(spec.item_rows) + " categories=" +
              std::to_string(spec.category_rows));

  auto spec_for = [](const std::string& fact) {
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{fact, "items", rel::JoinKind::kLeftJoin},
                              {"items", "categories", rel::JoinKind::kLeftJoin}};
    return integration_spec;
  };

  // Set-up: dimensions, the first fact version, and the first
  // Integrate -> Train -> Deploy, all at the writer's pool width.
  ScopedNumThreads writer_threads(kPoolWidth);
  std::unique_ptr<core::Amalur> system;
  std::unique_ptr<serving::ModelRegistry> registry;
  SnowflakeDims dims;
  std::vector<double> setup;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    registry.reset();
    system.reset();
    const double start = Now();
    dims = MakeSnowflakeDims(spec, SubSeed(options.seed, 0));
    FactVersion first = MakeFactVersion(spec, dims, SubSeed(options.seed, 1000));
    system = std::make_unique<core::Amalur>(amalur_options);
    registry = std::make_unique<serving::ModelRegistry>();
    Register(system.get(), "items", dims.items, false);
    Register(system.get(), "categories", dims.categories, false);
    Register(system.get(), "sales_v0", std::move(first.fact), false);
    auto integration = system->Integrate(spec_for("sales_v0"));
    AMALUR_CHECK_OK(integration.status());
    auto model = system->Train(*integration, request);
    AMALUR_CHECK_OK(model.status());
    AMALUR_CHECK_OK(model->Deploy(registry.get(), kServedModel).status());
    setup.push_back(Now() - start);
  }

  Rng batch_rng(SubSeed(options.seed, 1));
  const std::vector<serving::RowRef> probe =
      RandomRows(kProbeRows, spec.fact_rows, &batch_rng);
  std::vector<std::vector<std::vector<serving::RowRef>>> batches(readers);
  for (auto& reader_batches : batches) {
    for (size_t b = 0; b < kReadBatches; ++b) {
      reader_batches.push_back(RandomRows(kReadBatchRows, spec.fact_rows, &batch_rng));
    }
  }

  std::vector<double> integrate_s, train_s, deploy_s, final_loss;
  uint64_t expected_version = 1;
  auto cycle = [&](uint64_t id, bool traced) {
    Tracer* tracer = traced ? run.tracer() : nullptr;
    SetCurrentOp(id);
    const std::string fact = "sales_v" + std::to_string(id);
    FactVersion version = MakeFactVersion(spec, dims, SubSeed(options.seed, 1000 + id));
    Register(system.get(), fact, std::move(version.fact), false);
    uint64_t phase = 0;
    Result<core::IntegrationHandle> integration = core::IntegrationHandle{};
    const double integrate = Phase(tracer, "core.integrate", id, &phase, [&] {
      integration = system->Integrate(spec_for(fact));
    });
    if (!integration.ok()) return run.Fail(integration.status().ToString());
    if (integration->shape != amalur::metadata::IntegrationShape::kSnowflake) {
      return run.Fail("serve-refresh integrated as a non-snowflake");
    }
    const amalur::Status matched = CheckEdgeMatches(*system, *integration);
    if (!matched.ok()) return run.Fail(matched.ToString());
    if (tracer != nullptr) {
      CountMatches(tracer, phase, integration->matchings[0], version.truth);
      CountMatches(tracer, phase, integration->matchings[1], dims.item_to_category);
      if (!run.Replayed(ReplayIntegrate(*integration,
                                        SourceTables(*system, *integration),
                                        amalur_options, Derivation::kGraph,
                                        tracer, phase),
                        "Integrate")) {
        return false;
      }
    }
    Result<core::ModelHandle> model = core::ModelHandle{};
    const double train = Phase(tracer, "core.train", id, &phase, [&] {
      model = system->Train(*integration, request);
    });
    if (!model.ok()) return run.Fail(model.status().ToString());
    const std::string problem = LossProblem(model->outcome().loss_history);
    if (!problem.empty()) return run.Fail("Train: " + problem);
    if (tracer != nullptr &&
        !run.Replayed(ReplayTrain(*system, *integration, request, *model,
                                  tracer, phase),
                      "Train")) {
      return false;
    }
    Result<std::shared_ptr<const serving::DeployedModel>> deployed =
        std::shared_ptr<const serving::DeployedModel>();
    const double deploy = Phase(tracer, "core.deploy", id, &phase, [&] {
      deployed = registry->Redeploy(kServedModel, *model);
    });
    if (!deployed.ok()) return run.Fail(deployed.status().ToString());
    if ((*deployed)->version() != ++expected_version) {
      return run.Fail("Redeploy stamped an unexpected version");
    }
    const amalur::Status probed = CheckProbe(**deployed, *model, probe);
    if (!probed.ok()) return run.Fail(probed.ToString());
    if (tracer != nullptr &&
        !run.Replayed(ReplayDeploy(*model, **deployed, tracer, phase),
                      "Deploy")) {
      return false;
    }
    run.OpTime(traced, integrate + train + deploy);
    integrate_s.push_back(integrate);
    train_s.push_back(train);
    deploy_s.push_back(deploy);
    final_loss.push_back(model->outcome().loss_history.back());
    return true;
  };

  const double window_start = Now();
  Readers reader_threads(*registry, batches, options.trace);
  for (uint64_t id = 1; id <= cycles; ++id) {
    run.Attempt();
    cycle(id, options.trace && id % 2 == 0);
  }
  std::vector<ReaderLog>& logs = reader_threads.Stop();
  const double window = Now() - window_start;

  std::vector<double> latencies;
  uint64_t rows = 0;
  for (ReaderLog& log : logs) {
    run.Attempt(log.attempted);
    for (uint64_t f = 0; f < log.failed; ++f) run.Fail("reader: " + log.first_failure);
    latencies.insert(latencies.end(), log.latencies.begin(), log.latencies.end());
    rows += log.rows;
    if (run.tracer() != nullptr) run.tracer()->AddAll(std::move(log.spans));
  }

  double regret = 0.0;
  if (options.trace) {
    auto integration = system->Integrate(spec_for("sales_v0"));
    if (integration.ok()) regret = MeasureRegret(system.get(), *integration, request);
  }
  if (!options.trace) {
    run.PutMedian("setup_s", setup, "s");
    run.PutMedian("integrate_s", integrate_s, "s");
    run.PutMedian("train_s", train_s, "s");
    run.PutMedian("deploy_s", deploy_s, "s");
    run.PutMedian("predict_p50_ms", latencies, "ms", 1e3);
    run.Put("predict_p99_ms", 1e3 * Quantile(latencies, 0.99), "ms",
            latencies.size());
    run.Put("predict_rows_per_s", static_cast<double>(rows) / window, "rows/s");
    run.PutMedian("final_loss", final_loss, "MSE");
  }
  Finish(&run, regret);
  return run.result();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"star-augment", "er-vfl",
                                                 "serve-refresh"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "star-augment") return RunStarAugment(options);
  if (options.workload == "er-vfl") return RunErVfl(options);
  return RunServeRefresh(options);
}

}  // namespace facadebench
