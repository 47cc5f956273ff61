#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "la/dense_matrix.h"

/// \file secret_sharing.h
/// Additive secret sharing over ℤ_{2⁶⁴} with fixed-point encoding — one of
/// the §V privacy primitives. A value matrix is split into n random shares
/// whose wrap-around sum reconstructs the fixed-point encoding; any n−1
/// shares are uniformly random and reveal nothing. Addition is homomorphic:
/// summing the share-wise sums of two sharings reconstructs the sum.

namespace amalur {
namespace federated {

/// A matrix of 64-bit ring elements (one share of a secret matrix).
struct ShareMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<uint64_t> data;  // row-major, size rows*cols

  uint64_t At(size_t i, size_t j) const { return data[i * cols + j]; }
};

/// Fixed-point additive secret sharing.
class AdditiveSecretSharing {
 public:
  /// `fractional_bits` controls precision: values are scaled by
  /// 2^fractional_bits before rounding. 24 bits keeps ~1e-7 absolute error
  /// for gradient-scale magnitudes.
  explicit AdditiveSecretSharing(int fractional_bits = 24)
      : scale_(static_cast<double>(uint64_t{1} << fractional_bits)) {}

  /// Splits `values` into `parties` shares (parties >= 2).
  std::vector<ShareMatrix> Share(const la::DenseMatrix& values, size_t parties,
                                 Rng* rng) const;

  /// Reconstructs the secret from all shares.
  la::DenseMatrix Reconstruct(const std::vector<ShareMatrix>& shares) const;

  /// Share-wise addition: Add(a, b)[p] = a[p] + b[p] (mod 2⁶⁴); the
  /// reconstruction of the result is the sum of the two secrets.
  static ShareMatrix AddShares(const ShareMatrix& a, const ShareMatrix& b);

  /// Fixed-point encoding of one double (two's-complement wrap for
  /// negatives). `|value|` must be below `EncodableBound()`.
  uint64_t Encode(double value) const;
  /// The fixed-point range: `Encode` takes values of magnitude strictly
  /// below it (never NaN).
  double EncodableBound() const { return kMaxScaled / scale_; }
  /// Inverse of `Encode`.
  double Decode(uint64_t encoded) const;

 private:
  /// Largest scaled magnitude `Encode` accepts: inside int64's range.
  static constexpr double kMaxScaled = 9.0e18;

  double scale_;
};

}  // namespace federated
}  // namespace amalur
