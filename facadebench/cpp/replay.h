#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/amalur.h"
#include "federated/message_bus.h"
#include "ml/training_matrix.h"
#include "serving/deployed_model.h"
#include "trace.h"

/// \file replay.h
/// The traced replay: after a facade call returns, the benchmark calls the
/// same public layer functions the facade called, in the same order, with
/// the handle's own mapping, edge matches and matchings, the same
/// `TrainRequest` and the same pool width — each one inside a span — and
/// proves with equality checks that it did the same work. A replay whose
/// results differ from the facade's returns a non-OK status naming the
/// first difference.

namespace facadebench {

namespace core = amalur::core;
namespace la = amalur::la;
namespace serving = amalur::serving;
using amalur::Status;

/// Times `LeftMultiply` / `TransposeLeftMultiply` of the wrapped matrix as
/// `factorized.lmm` / `factorized.tlmm` spans, then forwards.
class TimedTrainingMatrix : public amalur::ml::TrainingMatrix {
 public:
  TimedTrainingMatrix(const amalur::ml::TrainingMatrix& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  size_t rows() const override { return inner_.rows(); }
  size_t cols() const override { return inner_.cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    ScopedSpan span(tracer_, "factorized.lmm");
    return inner_.LeftMultiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(
      const la::DenseMatrix& x) const override {
    ScopedSpan span(tracer_, "factorized.tlmm");
    return inner_.TransposeLeftMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override {
    return inner_.RowSquaredNorms();
  }
  la::DenseMatrix ColSums() const override { return inner_.ColSums(); }

 private:
  const amalur::ml::TrainingMatrix& inner_;
  Tracer* tracer_;
};

/// A plain bus whose transfer calls are timed as `federated.wire` spans.
class TimedMessageBus : public amalur::federated::MessageBus {
 public:
  explicit TimedMessageBus(Tracer* tracer) : tracer_(tracer) {}

  void Send(const std::string& from, const std::string& to,
            la::DenseMatrix payload) override;
  void SendBytes(const std::string& from, const std::string& to,
                 std::vector<uint64_t> payload) override;
  void SendCiphertextWords(const std::string& from, const std::string& to,
                           std::vector<uint64_t> packed) override;
  amalur::Result<la::DenseMatrix> Receive(const std::string& from,
                                          const std::string& to) override;
  amalur::Result<std::vector<uint64_t>> ReceiveBytes(
      const std::string& from, const std::string& to) override;

 private:
  Tracer* tracer_;
};

/// Which derivation the facade path used for an integration.
enum class Derivation { kPair, kStar, kGraph };

/// Replays `Amalur::Integrate` for `handle`. `tables` are the registered
/// source tables in `handle.source_names` order. Spans hang off `phase`.
Status ReplayIntegrate(const core::IntegrationHandle& handle,
                       const std::vector<const amalur::rel::Table*>& tables,
                       const core::AmalurOptions& options,
                       Derivation derivation, Tracer* tracer, uint64_t phase);

/// Replays `Amalur::Train(integration, request)`, which returned `model`.
Status ReplayTrain(const core::Amalur& system,
                   const core::IntegrationHandle& integration,
                   const core::TrainRequest& request,
                   const core::ModelHandle& model, Tracer* tracer,
                   uint64_t phase);

/// Replays the deploy of `model` that produced `deployed`: builds a second
/// snapshot and re-extracts the partial scores, and requires both to score
/// every target row bitwise-equal to `deployed`.
Status ReplayDeploy(const core::ModelHandle& model,
                    const serving::DeployedModel& deployed, Tracer* tracer,
                    uint64_t phase);

/// Bitwise equality of two values / matrices (same shape, same bits).
bool BitEqual(double a, double b);
bool BitEqual(const la::DenseMatrix& a, const la::DenseMatrix& b);

}  // namespace facadebench
