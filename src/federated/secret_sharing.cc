#include "federated/secret_sharing.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace amalur {
namespace federated {

uint64_t AdditiveSecretSharing::Encode(double value) const {
  // Round-to-nearest fixed point; negatives wrap via two's complement.
  AMALUR_CHECK(std::fabs(value) < EncodableBound())
      << "fixed-point overflow: " << value;
  return static_cast<uint64_t>(
      static_cast<int64_t>(std::llround(value * scale_)));
}

double AdditiveSecretSharing::Decode(uint64_t encoded) const {
  return static_cast<double>(static_cast<int64_t>(encoded)) / scale_;
}

std::vector<ShareMatrix> AdditiveSecretSharing::Share(
    const la::DenseMatrix& values, size_t parties, Rng* rng) const {
  AMALUR_CHECK_GE(parties, 2u) << "need at least two parties";
  std::vector<ShareMatrix> shares(parties);
  for (ShareMatrix& share : shares) {
    share.rows = values.rows();
    share.cols = values.cols();
    share.data.assign(values.size(), 0);
  }
  for (size_t cell = 0; cell < values.size(); ++cell) {
    const uint64_t secret = Encode(values.data()[cell]);
    uint64_t acc = 0;
    for (size_t p = 0; p + 1 < parties; ++p) {
      const uint64_t r = rng->Next();
      shares[p].data[cell] = r;
      acc += r;  // wrap-around is the ring addition
    }
    shares[parties - 1].data[cell] = secret - acc;  // wrap-around subtraction
  }
  return shares;
}

la::DenseMatrix AdditiveSecretSharing::Reconstruct(
    const std::vector<ShareMatrix>& shares) const {
  AMALUR_CHECK(!shares.empty()) << "no shares";
  const size_t rows = shares[0].rows, cols = shares[0].cols;
  la::DenseMatrix out(rows, cols);
  for (size_t cell = 0; cell < rows * cols; ++cell) {
    uint64_t acc = 0;
    for (const ShareMatrix& share : shares) {
      AMALUR_CHECK(share.rows == rows && share.cols == cols)
          << "share shape mismatch";
      acc += share.data[cell];
    }
    out.data()[cell] = Decode(acc);
  }
  return out;
}

ShareMatrix AdditiveSecretSharing::AddShares(const ShareMatrix& a,
                                             const ShareMatrix& b) {
  AMALUR_CHECK(a.rows == b.rows && a.cols == b.cols) << "share shape mismatch";
  ShareMatrix out = a;
  for (size_t cell = 0; cell < out.data.size(); ++cell) {
    out.data[cell] += b.data[cell];
  }
  return out;
}

}  // namespace federated
}  // namespace amalur
