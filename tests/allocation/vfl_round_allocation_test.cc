#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "counting_allocator.h"
#include "federated/message_bus.h"
#include "federated/vfl.h"

/// A plaintext vertical FLR round reuses its buffers (each party's u_k and
/// gradient, the residual, the received payloads), so after the first
/// round its only blocks of 1 KiB or more are the bus's payload copies:
/// N−1 partial predictions in and N−1 residual broadcasts out.

namespace amalur {
namespace federated {
namespace {

using allocation::CountAllocations;
using allocation::Counts;

TEST(VflRoundAllocationTest, LaterRoundsAllocateOnlyTheWirePayloads) {
  constexpr size_t kRows = 300;  // one n×1 payload is 2,400 bytes
  for (const std::vector<size_t>& widths :
       {std::vector<size_t>{3, 5}, std::vector<size_t>{2, 4, 3}}) {
    Rng rng(1906);
    std::vector<VflParty> parties(widths.size());
    for (size_t k = 0; k < widths.size(); ++k) {
      parties[k].x = la::DenseMatrix::RandomGaussian(kRows, widths[k], &rng);
    }
    const la::DenseMatrix labels =
        la::DenseMatrix::RandomGaussian(kRows, 1, &rng);
    const size_t payloads_per_round = 2 * (widths.size() - 1);
    for (size_t threads : {1, 4}) {
      common::ScopedNumThreads scope(threads);
      SCOPED_TRACE(std::to_string(widths.size()) + " parties, threads " +
                   std::to_string(threads));
      const auto train = [&](size_t rounds) {
        VflOptions options;
        options.iterations = rounds;
        options.l2 = 0.01;
        MessageBus bus;
        return CountAllocations([&] {
          ASSERT_TRUE(TrainVerticalFlrNary(parties, labels, options, &bus).ok());
        });
      };
      train(2);  // starts the pool's workers before anything is counted
      const Counts two = train(2);
      const Counts twelve = train(12);
      EXPECT_EQ(twelve.large_blocks - two.large_blocks,
                10 * payloads_per_round)
          << "rounds 3-12 requested " << twelve.blocks - two.blocks
          << " blocks in all";
    }
  }
}

}  // namespace
}  // namespace federated
}  // namespace amalur
