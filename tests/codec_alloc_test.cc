// Pins the allocation behaviour of the wire codec (mirroring
// tests/aggregate_alloc_test.cc for the consensus hot path): serializing,
// parsing and digesting an 8k-relay vote, and patching an 8k-relay consensus
// through a diff, must perform a small constant number of heap allocations —
// the output string, the relay vector, a handful of shared-nothing scratch —
// never O(n) per-line vectors, per-field temporaries or per-relay string
// copies. Includes the binary-wide counting allocator
// (one TU per binary, like tests/event_alloc_test.cc).
#include "src/common/counting_allocator.h"

#include <gtest/gtest.h>

#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"

namespace {

using torbase::counting_allocator::AllocationCount;

class CodecAllocTest : public ::testing::Test {
 protected:
  static constexpr size_t kRelays = 8000;

  void SetUp() override {
    tordir::PopulationConfig config;
    config.relay_count = kRelays;
    config.seed = 3;
    const auto population = tordir::GeneratePopulation(config);
    vote_ = tordir::MakeVote(0, 9, population, config);
    // Warm-up: interns every string the workload uses, faults in allocator
    // metadata, and sizes the parser's reserve path.
    text_ = tordir::SerializeVote(vote_);
    const auto parsed = tordir::ParseVote(text_);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(*parsed, vote_);
  }

  tordir::VoteDocument vote_;
  std::string text_;
};

TEST_F(CodecAllocTest, SerializeVoteAllocatesConstantNotPerRelay) {
  const uint64_t before = AllocationCount();
  const std::string text = tordir::SerializeVote(vote_);
  const uint64_t allocations = AllocationCount() - before;
  ASSERT_EQ(text.size(), text_.size());

  // Steady state: the output buffer plus at most a growth step when the size
  // estimate runs short. 8 leaves headroom without ever letting an O(n) term
  // (8000+ allocations) sneak back in.
  EXPECT_LE(allocations, 8u) << allocations << " allocations serializing " << kRelays
                             << " relays";
}

TEST_F(CodecAllocTest, ParseVoteAllocatesConstantNotPerRelay) {
  const uint64_t before = AllocationCount();
  const auto parsed = tordir::ParseVote(text_);
  const uint64_t allocations = AllocationCount() - before;
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->relays.size(), vote_.relays.size());

  // Steady state: the relay vector reservation plus a couple of Result /
  // document moves. Every string the document carries is already interned, so
  // re-parsing allocates no string storage at all.
  EXPECT_LE(allocations, 16u) << allocations << " allocations parsing " << kRelays << " relays";
  const double per_relay =
      static_cast<double>(allocations) / static_cast<double>(parsed->relays.size());
  EXPECT_LT(per_relay, 0.01);
}

TEST_F(CodecAllocTest, VoteDigestStreamsWithoutAllocating) {
  const torcrypto::Digest256 expected = torcrypto::Digest256::Of(text_);
  const uint64_t before = AllocationCount();
  const torcrypto::Digest256 digest = tordir::VoteDigest(vote_);
  const uint64_t allocations = AllocationCount() - before;

  // The digest streams through a stack sink into SHA-256: the multi-megabyte
  // serialized form is never materialized, so the heap is never touched.
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(digest, expected) << "streaming digest must match digest-of-serialized-bytes";
}

TEST_F(CodecAllocTest, ConsensusDigestStreamsWithoutAllocating) {
  tordir::ConsensusDocument consensus;
  consensus.valid_after = 100;
  consensus.fresh_until = 200;
  consensus.valid_until = 300;
  consensus.vote_count = 9;
  consensus.relays = vote_.relays;
  const torcrypto::Digest256 expected =
      torcrypto::Digest256::Of(tordir::SerializeConsensusUnsigned(consensus));

  const uint64_t before = AllocationCount();
  const torcrypto::Digest256 digest = tordir::ConsensusDigest(consensus);
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(digest, expected);
}

TEST_F(CodecAllocTest, DiffApplyAllocatesConstantNotPerRelay) {
  // A signed 8k-relay consensus and its successor at the live network's
  // churn (1% of rows changed, 0.5% removed, 0.5% added).
  tordir::PopulationConfig config;
  config.relay_count = kRelays;
  config.seed = 3;
  const auto population = tordir::GeneratePopulation(config);
  tordir::ConsensusDocument base =
      tordir::ComputeConsensus(tordir::MakeAllVotes(9, population, config));
  for (uint32_t a = 0; a < 9; ++a) {
    torcrypto::Signature sig;
    sig.signer = a;
    sig.bytes.fill(static_cast<uint8_t>(0xB0 + a));
    base.signatures.push_back(sig);
  }
  const tordir::ConsensusDocument next = tordir::ChurnConsensus(base, {0.01, 0.005, 0.005, 3});
  const std::string base_text = tordir::SerializeConsensus(base);
  const std::string target_text = tordir::SerializeConsensus(next);
  const std::string diff = tordir::ComputeConsensusDiff(base, next);
  ASSERT_EQ(*tordir::ApplyConsensusDiff(base_text, diff), target_text);  // warm-up

  // The serving path: patch plus sha256-tree-v1 target verification.
  const uint64_t before = AllocationCount();
  const auto patched = tordir::ApplyConsensusDiff(base_text, diff);
  const uint64_t allocations = AllocationCount() - before;
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  ASSERT_EQ(*patched, target_text);

  // The output string plus the verification digest's leaf list; a patch that
  // reparses or copies rows one by one would cost thousands.
  const double per_relay =
      static_cast<double>(allocations) / static_cast<double>(next.relays.size());
  EXPECT_LE(per_relay, 0.05) << allocations << " allocations applying a diff to "
                             << next.relays.size() << " relays";
}

}  // namespace
