// A miniature Figure 10: sweep the authorities' bandwidth for a fixed relay
// population and watch where each protocol stops producing consensus
// documents. The sweep is a list of ScenarioSpecs run through one
// ScenarioRunner, so the relay population and votes are generated once for
// the whole grid.
//
//   ./build/examples/bandwidth_stress [relay_count]
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/table.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/runner.h"

int main(int argc, char** argv) {
  const std::optional<size_t> relays_arg =
      argc > 1 ? torbase::ParseDecimal<size_t>(argv[1]) : std::optional<size_t>(3000);
  if (argc > 2 || !relays_arg.has_value()) {
    std::fprintf(stderr, "usage: %s [relay_count]\n", argv[0]);
    return 2;
  }
  const size_t relays = *relays_arg;
  std::printf("Bandwidth stress test at %zu relays (mini Figure 10)\n\n", relays);

  const std::vector<std::string> protocols = {"current", "synchronous", "icps"};
  std::vector<std::string> headers = {"Bandwidth (Mbit/s)"};
  for (const std::string& protocol : protocols) {
    headers.push_back(std::string(torproto::GetProtocol(protocol).display_name()));
  }

  torscenario::ScenarioRunner runner;
  torbase::Table table(std::move(headers));
  for (double bw : {100.0, 50.0, 20.0, 10.0, 5.0, 1.0, 0.5}) {
    std::vector<std::string> row = {torbase::Table::Num(bw, 1)};
    for (const std::string& protocol : protocols) {
      torscenario::ScenarioSpec spec;
      spec.name = "bandwidth_stress";
      spec.protocol = protocol;
      spec.relay_count = relays;
      spec.bandwidth_bps = bw * 1e6;
      const auto result = runner.Run(spec);
      row.push_back(result.succeeded ? torbase::Table::Num(result.latency_seconds, 1) + " s"
                                     : "fail");
      std::fflush(stdout);
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("\nReading: latency of a successful run in seconds; 'fail' = no valid consensus.\n");
  std::printf("(population/votes generated %zu time(s) for %zu runs)\n",
              runner.workload_cache_misses(),
              runner.workload_cache_misses() + runner.workload_cache_hits());
  std::printf("The lock-step protocols hit their synchrony deadlines as bandwidth shrinks;\n");
  std::printf("the partial-synchrony protocol only slows down.\n");
  return 0;
}
