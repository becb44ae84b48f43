// Shared scaffolding for benchmarking/pinning the simulator's per-event hot
// path (bench/micro.cc, tests/event_alloc_test.cc): a capture sized to fill
// most of SimCallback's inline buffer, and the schedule-batch loops the two
// binaries time or count allocations around.
#ifndef SRC_SIM_EVENT_PROBE_H_
#define SRC_SIM_EVENT_PROBE_H_

#include <cstdint>

#include "src/sim/simulator.h"

namespace torsim {

// 48 bytes — modelled on the network delivery stages (a few words of routing
// state plus a pointer). Regressions that push callbacks of this size to the
// heap (or reintroduce per-event hash-map traffic) show up in every probe
// built on it.
struct EventProbeCapture {
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  uint64_t* sink = nullptr;
};

// Schedules `batch` probe events (at staggered near-future instants) that
// each bump *sink when they fire.
inline void ScheduleProbeBatch(Simulator& sim, size_t batch, uint64_t* sink) {
  for (size_t i = 0; i < batch; ++i) {
    EventProbeCapture capture;
    capture.sink = sink;
    sim.ScheduleAfter(i % 7, [capture] { ++*capture.sink; });
  }
}

// Same, but every event is cancelled right after scheduling (the tombstone
// drain still costs a heap pop per event).
inline void ScheduleCancelProbeBatch(Simulator& sim, size_t batch, uint64_t* sink) {
  for (size_t i = 0; i < batch; ++i) {
    EventProbeCapture capture;
    capture.sink = sink;
    sim.Cancel(sim.ScheduleAfter(i % 7, [capture] { ++*capture.sink; }));
  }
}

// Grows the event heap and slot arena to `batch` capacity so subsequent probe
// batches run at steady state (no vector growth on the measured path).
inline void WarmUpProbe(Simulator& sim, size_t batch, uint64_t* sink) {
  for (size_t i = 0; i < batch; ++i) {
    EventProbeCapture capture;
    capture.sink = sink;
    sim.ScheduleAfter(i, [capture] { ++*capture.sink; });
  }
  sim.Run();
}

}  // namespace torsim

#endif  // SRC_SIM_EVENT_PROBE_H_
