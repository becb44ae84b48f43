// The paper's headline attack (§4), end to end: rent stressor capacity against
// 5 of the 9 directory authorities for the five minutes in which votes are
// exchanged, watch the deployed protocol fail, and price the attack. The run
// is a ScenarioSpec; the log lines are read through the runner's inspect hook.
//
//   ./build/examples/ddos_attack
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/scenario/runner.h"

int main() {
  std::printf("Five Minutes of DDoS Brings down Tor — attack walkthrough\n");
  std::printf("=========================================================\n\n");

  // The live network's scale: ~8,000 relays (Figure 6 average era), on
  // 250 Mbit/s authority links.
  torscenario::ScenarioSpec spec;
  spec.name = "ddos_attack";
  spec.protocol = "current";
  spec.relay_count = 8000;
  spec.seed = 4;

  // The attack: flood authorities 0..4 for the first five minutes, leaving
  // them 0.5 Mbit/s of usable bandwidth (Jansen et al.'s measurement).
  torattack::AttackWindow attack;
  attack.targets = torattack::FirstTargets(5);
  attack.start = 0;
  attack.end = torbase::Minutes(5);
  attack.available_bps = torattack::kUnderAttackBps;
  spec.attack = std::make_shared<torattack::WindowedAttack>(
      std::vector<torattack::AttackWindow>{attack});
  std::printf("Attack: authorities 0-4 limited to %.1f Mbit/s during [0, 5 min)\n\n",
              attack.available_bps / 1e6);

  torscenario::ScenarioRunner runner;
  const auto result = runner.Run(spec, [](torsim::Harness&,
                                          const std::vector<torsim::Actor*>& actors) {
    std::printf("Log of authority 8 (not attacked) — compare with Figure 1:\n");
    std::printf("-----------------------------------------------------------\n");
    for (const auto& record : actors[8]->log().records()) {
      if (record.level >= torbase::LogLevel::kNotice ||
          record.message.find("Giving up") != std::string::npos) {
        std::printf("%s\n", record.Format().c_str());
      }
    }
  });

  std::printf("\nResult: %u of 9 authorities produced a valid consensus.\n", result.valid_count);
  std::printf("Consensus documents expire after 3 hours; repeating this attack every hour\n");
  std::printf("takes the whole Tor network offline.\n\n");

  torattack::StressorCostModel cost;
  std::printf("Attack price (stressor-service rates from Jansen et al.):\n");
  std::printf("  one broken consensus run : $%.3f\n", cost.CostPerRunUsd());
  std::printf("  a full month of outage   : $%.2f\n", cost.CostPerMonthUsd());
  return result.valid_count == 0 ? 0 : 1;
}
