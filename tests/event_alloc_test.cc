// Pins the zero-allocation contract of the simulator's event hot path: after
// warm-up (heap / slot-arena growth is amortized), scheduling, cancelling and
// firing events performs no heap allocation as long as the callback's captures
// fit SimCallback's inline buffer. The network's body plane keeps the same
// contract per delivery: a send allocates its one shared message, and moving
// it through both NICs to every receiver allocates nothing more.
//
// The whole test binary routes allocations through the shared counting
// operator new/delete (src/common/counting_allocator.h); the assertions
// compare counter deltas around tight loops that themselves allocate nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/counting_allocator.h"
#include "src/crypto/body.h"
#include "src/sim/event_probe.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace torsim {
namespace {

using torbase::counting_allocator::AllocationCount;

constexpr size_t kBatch = 64;
constexpr size_t kRounds = 200;

TEST(EventAllocTest, ScheduleFireIsAllocationFreeAfterWarmup) {
  Simulator sim;
  uint64_t fired = 0;
  WarmUpProbe(sim, kBatch, &fired);

  const uint64_t before = AllocationCount();
  for (size_t round = 0; round < kRounds; ++round) {
    ScheduleProbeBatch(sim, kBatch, &fired);
    sim.Run();
  }
  const uint64_t after = AllocationCount();

  EXPECT_EQ(after - before, 0u) << "schedule->fire allocated on the hot path";
  EXPECT_EQ(fired, kBatch + kRounds * kBatch);
}

TEST(EventAllocTest, ScheduleCancelIsAllocationFreeAfterWarmup) {
  Simulator sim;
  uint64_t fired = 0;
  ScheduleCancelProbeBatch(sim, kBatch, &fired);
  sim.Run();

  const uint64_t before = AllocationCount();
  for (size_t round = 0; round < kRounds; ++round) {
    ScheduleCancelProbeBatch(sim, kBatch, &fired);
    sim.Run();
  }
  const uint64_t after = AllocationCount();

  EXPECT_EQ(after - before, 0u) << "schedule->cancel allocated on the hot path";
  EXPECT_EQ(fired, 0u);
}

// Pre-built messages: constructing a header and body list is the caller's
// cost, not the network's, so the measured loop only sends and delivers.
std::vector<Message> BodyMessages(size_t count, const torcrypto::Body& body) {
  std::vector<Message> messages;
  messages.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    messages.emplace_back(torbase::Bytes(9, 1), std::vector<torcrypto::Body>{body});
  }
  return messages;
}

TEST(EventAllocTest, BodySendAllocatesOncePerSendAndNeverPerDelivery) {
  constexpr uint32_t kNodes = 9;
  constexpr size_t kSends = 64;
  Simulator sim;
  NetworkConfig config;
  config.node_count = kNodes;
  config.default_bandwidth_bps = 1e9;
  Network net(&sim, config);
  uint64_t delivered = 0;
  for (torbase::NodeId node = 0; node < kNodes; ++node) {
    net.SetHandler(node, [&](torbase::NodeId, const torbase::Bytes&) {
      delivered += net.delivery_bodies().size();
    });
  }
  const torcrypto::Body body(std::string(64 * 1024, 'v'));
  const std::string kind = "VOTE";

  // One burst of kSends broadcasts from node 0 and kSends unicasts 1 -> 2.
  const auto burst = [&] {
    std::vector<Message> broadcasts = BodyMessages(kSends, body);
    std::vector<Message> unicasts = BodyMessages(kSends, body);
    const uint64_t before = AllocationCount();
    for (size_t i = 0; i < kSends; ++i) {
      net.Broadcast(0, kind, std::move(broadcasts[i]));
      net.Send(1, 2, kind, std::move(unicasts[i]));
    }
    sim.Run();
    return AllocationCount() - before;
  };
  // The first burst grows the event heap, slot arena and NIC flow lists.
  burst();
  delivered = 0;
  const uint64_t allocations = burst();

  EXPECT_EQ(delivered, kSends * kNodes) << "every broadcast and unicast delivered its body";
  EXPECT_LE(allocations, 2 * kSends) << "a send allocated more than its shared message";
}

}  // namespace
}  // namespace torsim
