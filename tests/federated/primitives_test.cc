#include <gtest/gtest.h>

#include "common/rng.h"
#include "federated/message_bus.h"
#include "federated/paillier.h"
#include "federated/secret_sharing.h"
#include "federated/vfl.h"

namespace amalur {
namespace federated {
namespace {

TEST(MessageBusTest, FifoDeliveryAndAccounting) {
  MessageBus bus;
  bus.Send("A", "B", la::DenseMatrix({{1, 2}}));
  bus.Send("A", "B", la::DenseMatrix({{3, 4}}));
  auto first = bus.Receive("A", "B");
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(first->At(0, 0), 1);
  auto second = bus.Receive("A", "B");
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->At(0, 0), 3);
  EXPECT_TRUE(bus.Receive("A", "B").status().IsNotFound());
  // 2 messages x (2 doubles + 32B envelope).
  EXPECT_EQ(bus.TotalBytes(), 2 * (16 + 32));
  EXPECT_EQ(bus.TotalMessages(), 2u);
}

TEST(MessageBusTest, ChannelsAreDirected) {
  MessageBus bus;
  bus.Send("A", "B", la::DenseMatrix({{1}}));
  EXPECT_TRUE(bus.Receive("B", "A").status().IsNotFound());
  EXPECT_TRUE(bus.Receive("A", "B").ok());
}

TEST(MessageBusTest, BytePayloadsAndReset) {
  MessageBus bus;
  bus.SendBytes("A", "B", {1, 2, 3});
  auto words = bus.ReceiveBytes("A", "B");
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(words->size(), 3u);
  bus.Reset();
  EXPECT_EQ(bus.TotalBytes(), 0u);
  EXPECT_TRUE(bus.ReceiveBytes("A", "B").status().IsNotFound());
}

TEST(MessageBusTest, CiphertextPayloadsMeteredAtSerializedSize) {
  // Regression for the §V.B accounting invariant: Paillier payloads are
  // counted at their serialized ciphertext size (16 bytes each — the
  // (lo, hi) word pair that actually travels), NOT at the 8-byte
  // plaintext-double rate. Metering ciphertexts as if they were doubles
  // would make encrypted and plaintext wires look equally heavy and hide
  // the encryption blow-up from bytes_transferred.
  Paillier paillier(Paillier::GenerateKeys(7, 24), 12);
  Rng rng(3);
  la::DenseMatrix values({{1.5}, {-2.0}, {0.25}, {7.0}});
  std::vector<PaillierCiphertext> ciphertexts =
      paillier.EncryptMatrix(values, &rng);

  MessageBus secure_bus;
  secure_bus.SendCiphertextWords("A", "B", PackCiphertexts(ciphertexts));
  MessageBus plain_bus;
  plain_bus.Send("A", "B", values);

  const size_t envelope = 32;
  const size_t secure = secure_bus.TotalBytes();
  const size_t plain = plain_bus.TotalBytes();
  EXPECT_EQ(secure_bus.TotalMessages(), 1u);
  EXPECT_EQ(secure,
            values.size() * MessageBus::kCiphertextWireBytes + envelope);
  // Exactly the 2x-per-value blow-up of the 16-byte ciphertext vs the
  // 8-byte double, visible on the wire.
  EXPECT_EQ(secure - envelope, 2 * (plain - envelope));

  // The payload still round-trips through the ordinary byte queue.
  auto words = secure_bus.ReceiveBytes("A", "B");
  ASSERT_TRUE(words.ok());
  la::DenseMatrix decrypted =
      paillier.DecryptMatrix(UnpackCiphertexts(*words), 4, 1);
  EXPECT_LT(decrypted.MaxAbsDiff(values), 1e-3);
}

TEST(MessageBusTest, NaryPaillierRingMetersEachCiphertextHopExactlyOnce) {
  // Audit pin for the N=3 Paillier ring's byte accounting. Every ciphertext
  // hop is metered exactly once, at the 16-byte serialized rate:
  //
  //   per iteration, n rows, party widths p_k (P = Σ p_k):
  //    * ring accumulation  : N-1 messages of n ciphertexts,
  //    * residual broadcast : N-1 messages of n ciphertexts,
  //    * masked decryption  : per party, ONE ciphertext message to the
  //      coordinator (p_k ciphertexts) and ONE dense reply (p_k doubles) —
  //      the coordinator's decryption is a round-trip, never a re-metered
  //      copy of the inbound payload (the double-count this test pins out),
  //    * every message adds the 32-byte envelope.
  //
  // Any change to the protocol's message pattern or metering rate moves
  // this exact total and must be justified.
  Rng rng(21);
  const size_t n_rows = 4;
  const std::vector<size_t> widths{2, 1, 2};
  std::vector<VflParty> parties(widths.size());
  for (size_t k = 0; k < widths.size(); ++k) {
    parties[k].x = la::DenseMatrix::RandomGaussian(n_rows, widths[k], &rng);
  }
  la::DenseMatrix labels = la::DenseMatrix::RandomGaussian(n_rows, 1, &rng);

  VflOptions options;
  options.iterations = 3;
  options.privacy = VflPrivacy::kPaillier;
  MessageBus bus;
  auto result = TrainVerticalFlrNary(parties, labels, options, &bus);
  ASSERT_TRUE(result.ok()) << result.status();

  const size_t parties_n = widths.size();                    // N = 3
  const size_t total_width = 2 + 1 + 2;                      // P = 5
  const size_t ring_ciphertexts = (parties_n - 1) * n_rows;  // 8
  const size_t broadcast_ciphertexts = (parties_n - 1) * n_rows;  // 8
  const size_t gradient_ciphertexts = total_width;                // 5
  const size_t messages_per_iteration =
      (parties_n - 1) + (parties_n - 1) + parties_n + parties_n;  // 10
  const size_t envelope = 32;
  const size_t bytes_per_iteration =
      (ring_ciphertexts + broadcast_ciphertexts + gradient_ciphertexts) *
          MessageBus::kCiphertextWireBytes +
      total_width * sizeof(double) +  // the coordinator's dense replies
      messages_per_iteration * envelope;
  EXPECT_EQ(bytes_per_iteration, 21 * 16 + 40 + 320);  // 696 for this shape

  EXPECT_EQ(result->messages, options.iterations * messages_per_iteration);
  EXPECT_EQ(result->bytes_transferred,
            options.iterations * bytes_per_iteration);
  EXPECT_EQ(result->bytes_transferred, 3u * 696u);
}

TEST(SecretSharingTest, RoundTripExactForFixedPointValues) {
  AdditiveSecretSharing sharing;
  Rng rng(1);
  la::DenseMatrix secret({{1.5, -2.25}, {0.0, 1000.125}});
  auto shares = sharing.Share(secret, 3, &rng);
  ASSERT_EQ(shares.size(), 3u);
  la::DenseMatrix restored = sharing.Reconstruct(shares);
  EXPECT_LT(restored.MaxAbsDiff(secret), 1e-6);
}

TEST(SecretSharingTest, IndividualSharesLookRandom) {
  AdditiveSecretSharing sharing;
  Rng rng(2);
  la::DenseMatrix secret = la::DenseMatrix::Constant(1, 64, 5.0);
  auto shares = sharing.Share(secret, 2, &rng);
  // The first share is uniform: its cells should not all decode near 5.
  size_t near_secret = 0;
  for (size_t j = 0; j < 64; ++j) {
    if (std::fabs(sharing.Decode(shares[0].At(0, j)) - 5.0) < 1.0) {
      ++near_secret;
    }
  }
  EXPECT_LT(near_secret, 8u);
}

TEST(SecretSharingTest, AdditionIsHomomorphic) {
  AdditiveSecretSharing sharing;
  Rng rng(3);
  la::DenseMatrix a({{1.25, -4.0}});
  la::DenseMatrix b({{2.5, 3.5}});
  auto shares_a = sharing.Share(a, 2, &rng);
  auto shares_b = sharing.Share(b, 2, &rng);
  std::vector<ShareMatrix> sum_shares{
      AdditiveSecretSharing::AddShares(shares_a[0], shares_b[0]),
      AdditiveSecretSharing::AddShares(shares_a[1], shares_b[1])};
  la::DenseMatrix sum = sharing.Reconstruct(sum_shares);
  EXPECT_LT(sum.MaxAbsDiff(a.Add(b)), 1e-6);
}

TEST(SecretSharingTest, NegativeAndLargeMagnitudes) {
  AdditiveSecretSharing sharing;
  Rng rng(4);
  la::DenseMatrix secret({{-1e6, 1e-5, -3.14159, 7.0}});
  auto shares = sharing.Share(secret, 5, &rng);
  EXPECT_LT(sharing.Reconstruct(shares).MaxAbsDiff(secret), 1e-4);
}

TEST(PrimalityTest, KnownPrimesAndComposites) {
  EXPECT_TRUE(IsPrime64(2));
  EXPECT_TRUE(IsPrime64(3));
  EXPECT_TRUE(IsPrime64(1000000007ULL));
  EXPECT_TRUE(IsPrime64(2147483647ULL));  // 2^31 - 1
  EXPECT_FALSE(IsPrime64(0));
  EXPECT_FALSE(IsPrime64(1));
  EXPECT_FALSE(IsPrime64(1000000007ULL * 3));
  EXPECT_FALSE(IsPrime64(561));   // Carmichael
  EXPECT_FALSE(IsPrime64(6601));  // Carmichael
}

TEST(PaillierTest, KeyGenerationProducesValidModulus) {
  PaillierKeyPair keys = Paillier::GenerateKeys(42, 24);
  EXPECT_GT(keys.public_key.n, uint64_t{1} << 46);
  EXPECT_EQ(keys.public_key.n_squared,
            static_cast<unsigned __int128>(keys.public_key.n) *
                keys.public_key.n);
  // Deterministic in the seed.
  EXPECT_EQ(Paillier::GenerateKeys(42, 24).public_key.n, keys.public_key.n);
  EXPECT_NE(Paillier::GenerateKeys(43, 24).public_key.n, keys.public_key.n);
}

TEST(PaillierTest, RawRoundTrip) {
  Paillier paillier(Paillier::GenerateKeys(7, 28));
  Rng rng(1);
  for (uint64_t m : {0ULL, 1ULL, 12345ULL, 99999999ULL}) {
    EXPECT_EQ(paillier.DecryptRaw(paillier.EncryptRaw(m, &rng)), m);
  }
}

TEST(PaillierTest, EncryptionIsRandomized) {
  Paillier paillier(Paillier::GenerateKeys(7, 28));
  Rng rng(2);
  auto c1 = paillier.EncryptRaw(42, &rng);
  auto c2 = paillier.EncryptRaw(42, &rng);
  EXPECT_TRUE(c1 != c2);  // fresh randomness
  EXPECT_EQ(paillier.DecryptRaw(c1), paillier.DecryptRaw(c2));
}

TEST(PaillierTest, AdditiveHomomorphism) {
  Paillier paillier(Paillier::GenerateKeys(11, 28));
  Rng rng(3);
  auto ca = paillier.EncryptRaw(1000, &rng);
  auto cb = paillier.EncryptRaw(2345, &rng);
  EXPECT_EQ(paillier.DecryptRaw(paillier.CipherAdd(ca, cb)), 3345u);
  EXPECT_EQ(paillier.DecryptRaw(paillier.CipherScale(ca, 7)), 7000u);
}

TEST(PaillierTest, DoubleEncodingHandlesNegatives) {
  Paillier paillier(Paillier::GenerateKeys(13, 28), 16);
  Rng rng(4);
  for (double v : {0.0, 1.5, -1.5, 123.456, -987.654}) {
    EXPECT_NEAR(paillier.DecryptDouble(paillier.EncryptDouble(v, &rng)), v,
                1e-4);
  }
}

TEST(PaillierTest, HomomorphicSumOfDoubles) {
  Paillier paillier(Paillier::GenerateKeys(17, 28), 16);
  Rng rng(5);
  auto ca = paillier.EncryptDouble(2.5, &rng);
  auto cb = paillier.EncryptDouble(-1.25, &rng);
  EXPECT_NEAR(paillier.DecryptDouble(paillier.CipherAdd(ca, cb)), 1.25, 1e-4);
}

TEST(PaillierTest, MatrixRoundTripAndPacking) {
  Paillier paillier(Paillier::GenerateKeys(19, 26), 12);
  Rng rng(6);
  la::DenseMatrix values({{1.5, -2.0}, {0.25, 3.75}});
  auto ciphertexts = paillier.EncryptMatrix(values, &rng);
  auto packed = PackCiphertexts(ciphertexts);
  EXPECT_EQ(packed.size(), 8u);
  auto unpacked = UnpackCiphertexts(packed);
  la::DenseMatrix restored = paillier.DecryptMatrix(unpacked, 2, 2);
  EXPECT_LT(restored.MaxAbsDiff(values), 1e-3);
}

}  // namespace
}  // namespace federated
}  // namespace amalur
