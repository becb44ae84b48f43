// Quickstart: run one round of the partial-synchrony directory protocol (the
// paper's contribution) among 9 simulated authorities and print the resulting
// consensus document summary. The round is a ScenarioSpec: the scenario runner
// generates the relays and votes and builds the authority network, and the
// inspect hook reads the authorities' outcomes before the network is torn
// down.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "src/core/icps_authority.h"
#include "src/scenario/runner.h"
#include "src/tordir/dirspec.h"

int main() {
  torscenario::ScenarioSpec spec;
  spec.name = "quickstart";
  spec.protocol = "icps";  // 9 authorities, f = 2, Δ = 150 s
  spec.relay_count = 2000;
  spec.seed = 2026;
  // A simulated authority network: 250 Mbit/s NICs, 50 ms hops.
  spec.bandwidth_bps = 250e6;
  spec.latency = torbase::Millis(50);
  // What this round means for clients: a million clients fetching through
  // directory caches, integrated in closed form by the consumption plane
  // (src/clients).
  spec.client_load.client_count = 1'000'000;

  bool all_equal = true;
  torscenario::ScenarioRunner runner;
  const auto result = runner.Run(spec, [&](torsim::Harness&,
                                           const std::vector<torsim::Actor*>& actors) {
    // Authority 1 admitted authority 0's vote; its canonical bytes are the
    // vote as sent.
    const auto* peer = static_cast<const torproto::Authority*>(actors[1]);
    for (const auto& observed : peer->observed_votes()) {
      if (observed.sender == 0 && observed.document != nullptr) {
        std::printf("Generated %zu relays; vote documents are ~%zu KB each.\n", spec.relay_count,
                    tordir::SerializeVote(*observed.document).size() / 1024);
        break;
      }
    }

    const auto& outcome = static_cast<const toricc::IcpsAuthority*>(actors[0])->outcome();
    std::printf("\nAuthority 0 outcome:\n");
    std::printf("  agreement decided at   : %.2f s\n", torbase::ToSeconds(outcome.decided_at));
    std::printf("  valid consensus at     : %.2f s\n", torbase::ToSeconds(outcome.finished_at));
    std::printf("  documents in vector    : %u of %u\n", outcome.vector_non_empty,
                spec.authority_count);
    std::printf("  relays in consensus    : %zu\n", outcome.consensus.relays.size());
    std::printf("  signatures collected   : %zu\n", outcome.consensus.signatures.size());

    // Every authority holds the byte-identical, valid consensus document; the
    // exit status fails the run otherwise.
    const auto digest = tordir::ConsensusDigest(outcome.consensus);
    for (const torsim::Actor* actor : actors) {
      const auto& other = static_cast<const toricc::IcpsAuthority*>(actor)->outcome();
      all_equal = all_equal && other.valid_consensus &&
                  tordir::ConsensusDigest(other.consensus) == digest;
    }
    std::printf("  identical on all 9     : %s\n", all_equal ? "yes" : "NO");
    std::printf("\nConsensus digest: %s\n", digest.ToHex().c_str());
  });

  const auto& availability = result.client_availability;
  std::printf("\nClient-visible availability (1M clients, this directory period):\n");
  std::printf("  demand served fresh    : %.2f %%\n", 100.0 * availability.fresh_fraction);
  std::printf("  client outage          : %.1f s\n", availability.outage_seconds);
  return all_equal ? 0 : 1;
}
