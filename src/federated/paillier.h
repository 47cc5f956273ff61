#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "la/dense_matrix.h"

/// \file paillier.h
/// The Paillier additively homomorphic cryptosystem [67], the workhorse of
/// vertical-FL gradient exchange (§V.B). This is a *real* implementation of
/// the scheme — key generation with deterministic Miller–Rabin primes,
/// g = n+1 encryption, L-function decryption — at a deliberately small key
/// size (n ≤ 62 bits so ciphertexts fit `unsigned __int128`). Small keys
/// keep the experiments laptop-fast while exercising the genuine
/// encrypt → homomorphic-aggregate → decrypt code path; the key size is an
/// experiment parameter, not a structural difference. NOT cryptographically
/// secure at this size — research harness only.

namespace amalur {
namespace federated {

/// Ciphertexts live in [0, n²), up to 124 bits.
using PaillierCiphertext = unsigned __int128;

/// Public key (n, n²); g is fixed to n+1.
struct PaillierPublicKey {
  uint64_t n = 0;
  PaillierCiphertext n_squared = 0;
};

/// Private key (λ = lcm(p−1, q−1), μ = λ⁻¹ mod n).
struct PaillierPrivateKey {
  uint64_t lambda = 0;
  uint64_t mu = 0;
};

/// A Paillier key pair.
struct PaillierKeyPair {
  PaillierPublicKey public_key;
  PaillierPrivateKey private_key;
};

/// Paillier cryptosystem with fixed-point encoding of doubles.
class Paillier {
 public:
  /// Generates a key pair from two random `prime_bits`-bit primes
  /// (prime_bits in [16, 31]); deterministic in `seed`.
  static PaillierKeyPair GenerateKeys(uint64_t seed, int prime_bits = 30);

  /// `fractional_bits` of fixed-point precision for double encoding.
  explicit Paillier(PaillierKeyPair keys, int fractional_bits = 16);

  /// Encrypts one plaintext in [0, n).
  PaillierCiphertext EncryptRaw(uint64_t message, Rng* rng) const;
  /// Decrypts to a plaintext in [0, n).
  uint64_t DecryptRaw(PaillierCiphertext ciphertext) const;

  /// Homomorphic addition: Dec(CipherAdd(Enc(a), Enc(b))) = a + b mod n.
  PaillierCiphertext CipherAdd(PaillierCiphertext a, PaillierCiphertext b) const;
  /// Homomorphic scalar multiply: Dec(CipherScale(Enc(a), k)) = k·a mod n.
  PaillierCiphertext CipherScale(PaillierCiphertext ciphertext,
                                 uint64_t scalar) const;

  /// Encrypts a double: fixed-point, negatives mapped to the upper
  /// half-space [n/2, n). `|value|` must be below `EncodableBound()`.
  PaillierCiphertext EncryptDouble(double value, Rng* rng) const;
  /// The fixed-point range: `EncryptDouble` takes values of magnitude
  /// strictly below it (never NaN), whose image fits the half of [0, n)
  /// that the value's sign maps to.
  double EncodableBound() const {
    return static_cast<double>(keys_.public_key.n / 2) / scale_;
  }
  /// Decrypts a double.
  double DecryptDouble(PaillierCiphertext ciphertext) const;

  /// Encrypts every cell of a matrix (row-major ciphertext vector).
  std::vector<PaillierCiphertext> EncryptMatrix(const la::DenseMatrix& values,
                                                Rng* rng) const;
  /// Decrypts a ciphertext vector back into a rows×cols matrix.
  la::DenseMatrix DecryptMatrix(const std::vector<PaillierCiphertext>& ciphertexts,
                                size_t rows, size_t cols) const;

  const PaillierPublicKey& public_key() const { return keys_.public_key; }

 private:
  PaillierKeyPair keys_;
  double scale_;
};

/// Serializes ciphertexts as (lo, hi) word pairs for bus transmission.
std::vector<uint64_t> PackCiphertexts(
    const std::vector<PaillierCiphertext>& ciphertexts);
/// Inverse of `PackCiphertexts`.
std::vector<PaillierCiphertext> UnpackCiphertexts(
    const std::vector<uint64_t>& words);

/// Deterministic Miller–Rabin primality for 64-bit integers (exposed for
/// tests).
bool IsPrime64(uint64_t value);

}  // namespace federated
}  // namespace amalur
