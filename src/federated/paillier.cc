#include "federated/paillier.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"

namespace amalur {
namespace federated {

namespace {

using uint128 = unsigned __int128;

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t mod) {
  return static_cast<uint64_t>(static_cast<uint128>(a) * b % mod);
}

uint64_t PowMod(uint64_t base, uint64_t exponent, uint64_t mod) {
  uint64_t result = 1 % mod;
  base %= mod;
  while (exponent > 0) {
    if (exponent & 1) result = MulMod(result, base, mod);
    base = MulMod(base, base, mod);
    exponent >>= 1;
  }
  return result;
}

/// Multiply mod n² where n² < 2¹²⁴: shift-and-add keeps every intermediate
/// below 2¹²⁵, inside the 128-bit range.
uint128 MulMod128(uint128 a, uint128 b, uint128 mod) {
  a %= mod;
  b %= mod;
  uint128 result = 0;
  while (b > 0) {
    if (b & 1) {
      result += a;
      if (result >= mod) result -= mod;
    }
    a <<= 1;
    if (a >= mod) a -= mod;
    b >>= 1;
  }
  return result;
}

uint128 PowMod128(uint128 base, uint128 exponent, uint128 mod) {
  uint128 result = 1 % mod;
  base %= mod;
  while (exponent > 0) {
    if (exponent & 1) result = MulMod128(result, base, mod);
    base = MulMod128(base, base, mod);
    exponent >>= 1;
  }
  return result;
}

uint64_t ModInverse(uint64_t value, uint64_t mod) {
  // Extended Euclid on signed 128-bit accumulators.
  __int128 t = 0, new_t = 1;
  __int128 r = mod, new_r = value % mod;
  while (new_r != 0) {
    const __int128 q = r / new_r;
    const __int128 tmp_t = t - q * new_t;
    t = new_t;
    new_t = tmp_t;
    const __int128 tmp_r = r - q * new_r;
    r = new_r;
    new_r = tmp_r;
  }
  AMALUR_CHECK_EQ(static_cast<int64_t>(r), 1) << "value not invertible";
  if (t < 0) t += mod;
  return static_cast<uint64_t>(t);
}

}  // namespace

bool IsPrime64(uint64_t value) {
  if (value < 2) return false;
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                     29ULL, 31ULL, 37ULL}) {
    if (value == p) return true;
    if (value % p == 0) return false;
  }
  // Deterministic Miller–Rabin for 64-bit with the standard witness set.
  uint64_t d = value - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                     29ULL, 31ULL, 37ULL}) {
    uint64_t x = PowMod(a, d, value);
    if (x == 1 || x == value - 1) continue;
    bool witness = true;
    for (int i = 0; i < r - 1; ++i) {
      x = MulMod(x, x, value);
      if (x == value - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

PaillierKeyPair Paillier::GenerateKeys(uint64_t seed, int prime_bits) {
  AMALUR_CHECK(prime_bits >= 16 && prime_bits <= 31) << "prime_bits in [16,31]";
  Rng rng(seed);
  auto next_prime = [&rng, prime_bits]() {
    while (true) {
      uint64_t candidate = (rng.Next() >> (64 - prime_bits)) | 1ULL |
                           (uint64_t{1} << (prime_bits - 1));
      if (IsPrime64(candidate)) return candidate;
    }
  };
  uint64_t p = next_prime();
  uint64_t q = next_prime();
  while (q == p) q = next_prime();

  PaillierKeyPair keys;
  keys.public_key.n = p * q;
  keys.public_key.n_squared =
      static_cast<uint128>(keys.public_key.n) * keys.public_key.n;
  const uint64_t lambda = std::lcm(p - 1, q - 1);
  keys.private_key.lambda = lambda;
  // With g = n+1: L(g^λ mod n²) = λ mod n, so μ = λ⁻¹ mod n.
  keys.private_key.mu =
      ModInverse(lambda % keys.public_key.n, keys.public_key.n);
  return keys;
}

Paillier::Paillier(PaillierKeyPair keys, int fractional_bits)
    : keys_(keys), scale_(static_cast<double>(uint64_t{1} << fractional_bits)) {}

PaillierCiphertext Paillier::EncryptRaw(uint64_t message, Rng* rng) const {
  const uint64_t n = keys_.public_key.n;
  const uint128 n2 = keys_.public_key.n_squared;
  AMALUR_CHECK_LT(message, n) << "plaintext out of range";
  uint64_t r = 1 + rng->NextUint64(n - 1);
  while (std::gcd(r, n) != 1) r = 1 + rng->NextUint64(n - 1);
  // c = (1 + m·n) · rⁿ mod n²  (g = n+1 shortcut).
  const uint128 g_m = (1 + static_cast<uint128>(message) * n) % n2;
  const uint128 r_n = PowMod128(r, n, n2);
  return MulMod128(g_m, r_n, n2);
}

uint64_t Paillier::DecryptRaw(PaillierCiphertext ciphertext) const {
  const uint64_t n = keys_.public_key.n;
  const uint128 n2 = keys_.public_key.n_squared;
  // m = L(c^λ mod n²) · μ mod n with L(x) = (x − 1) / n.
  const uint128 c_lambda = PowMod128(ciphertext, keys_.private_key.lambda, n2);
  const uint64_t l = static_cast<uint64_t>((c_lambda - 1) / n);
  return MulMod(l % n, keys_.private_key.mu, n);
}

PaillierCiphertext Paillier::CipherAdd(PaillierCiphertext a,
                                       PaillierCiphertext b) const {
  return MulMod128(a, b, keys_.public_key.n_squared);
}

PaillierCiphertext Paillier::CipherScale(PaillierCiphertext ciphertext,
                                         uint64_t scalar) const {
  return PowMod128(ciphertext, scalar, keys_.public_key.n_squared);
}

PaillierCiphertext Paillier::EncryptDouble(double value, Rng* rng) const {
  const uint64_t n = keys_.public_key.n;
  AMALUR_CHECK(std::fabs(value) < EncodableBound())
      << "fixed-point overflow for plaintext space: " << value;
  const int64_t fixed = std::llround(value * scale_);
  const uint64_t message =
      fixed >= 0 ? static_cast<uint64_t>(fixed)
                 : n - static_cast<uint64_t>(-fixed);  // upper half = negative
  return EncryptRaw(message, rng);
}

double Paillier::DecryptDouble(PaillierCiphertext ciphertext) const {
  const uint64_t n = keys_.public_key.n;
  const uint64_t message = DecryptRaw(ciphertext);
  if (message > n / 2) {
    return -static_cast<double>(n - message) / scale_;
  }
  return static_cast<double>(message) / scale_;
}

std::vector<PaillierCiphertext> Paillier::EncryptMatrix(
    const la::DenseMatrix& values, Rng* rng) const {
  std::vector<PaillierCiphertext> out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(EncryptDouble(values.data()[i], rng));
  }
  return out;
}

la::DenseMatrix Paillier::DecryptMatrix(
    const std::vector<PaillierCiphertext>& ciphertexts, size_t rows,
    size_t cols) const {
  AMALUR_CHECK_EQ(ciphertexts.size(), rows * cols) << "ciphertext count";
  la::DenseMatrix out(rows, cols);
  for (size_t i = 0; i < ciphertexts.size(); ++i) {
    out.data()[i] = DecryptDouble(ciphertexts[i]);
  }
  return out;
}

std::vector<uint64_t> PackCiphertexts(
    const std::vector<PaillierCiphertext>& ciphertexts) {
  std::vector<uint64_t> words;
  words.reserve(ciphertexts.size() * 2);
  for (PaillierCiphertext c : ciphertexts) {
    words.push_back(static_cast<uint64_t>(c));
    words.push_back(static_cast<uint64_t>(c >> 64));
  }
  return words;
}

std::vector<PaillierCiphertext> UnpackCiphertexts(
    const std::vector<uint64_t>& words) {
  AMALUR_CHECK_EQ(words.size() % 2, 0u) << "odd ciphertext word count";
  std::vector<PaillierCiphertext> out;
  out.reserve(words.size() / 2);
  for (size_t i = 0; i < words.size(); i += 2) {
    out.push_back(static_cast<uint128>(words[i]) |
                  (static_cast<uint128>(words[i + 1]) << 64));
  }
  return out;
}

}  // namespace federated
}  // namespace amalur
