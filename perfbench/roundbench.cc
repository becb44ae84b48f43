// Round benchmark program. Runs one named workload through the public
// torscenario::ScenarioRunner API at Tor scale (9 authorities, 8000 relays,
// 50 Mbit/s NICs, 50 ms latency, result memo off), checks every operation's
// deterministic outputs, and prints each metric by name and unit followed by
// one JSON result line. perfbench/run.py builds and invokes it; the metric and
// workload rationale is in perfbench/README.md.
//
//   roundbench --workload round-clean|outage-day --seed N
//              --seconds S --trace 0 --reference FILE [--relays R] [--pin]
//   roundbench_traced ... --trace 1 ...
//
// --trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1 is
// the separate traced run: it wraps every authority's network handler from
// outside the library (TracedSchedule), must reproduce the untraced run's
// checked outputs, and ends with a replay of the tordir, crypto, clients and
// timeline layers on the workload's own documents.

#ifdef ROUNDBENCH_COUNT_ALLOCATIONS
// Replaces operator new in roundbench_traced with a counting one
// (alloc.per_round); roundbench, which serves --trace 0, keeps the library's
// allocator. Must stay in exactly one translation unit. GCC inlines the
// replacement operator delete into this file's callers and then pairs its
// free() with the (non-inlined) operator new, a false -Wmismatched-new-delete
// positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#include "src/common/counting_allocator.h"
#pragma GCC diagnostic pop
#endif

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/clients/population.h"
#include "src/common/serialize.h"
#include "src/crypto/digest.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_tree.h"
#include "src/scenario/runner.h"
#include "src/scenario/timeline.h"
#include "src/sim/actor.h"
#include "src/tordir/admission.h"
#include "src/tordir/aggregate.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/generator.h"
#include "src/tordir/health_monitor.h"

namespace {

using Clock = std::chrono::steady_clock;
using torscenario::ScenarioResult;
using torscenario::ScenarioRunner;
using torscenario::ScenarioSpec;
using torscenario::TimelineResult;
using torscenario::TimelineSpec;

// The seed whose outputs are pinned in the reference file.
constexpr uint64_t kDefaultSeed = 1;
// Tor scale (ROADMAP): the paper's outcomes are asserted at this size only.
constexpr size_t kTorScaleRelays = 8000;
constexpr uint32_t kAuthorities = 9;
constexpr double kNicBps = 50e6;
constexpr unsigned kTimelineThreads = 2;
constexpr int kSetupRepeats = 21;
constexpr int kReplayRepeats = 9;
// TracedSchedule plants three marker events per round; sim.events excludes them.
constexpr uint64_t kMarkerEvents = 3;
constexpr std::array<std::string_view, 3> kProtocols = {"current", "icps", "synchronous"};
// One iteration of round-clean: three rounds each of current and icps,
// interleaved, and one synchronous round, which costs about as much as the
// other six together at 8000 relays. Several current rounds per iteration give
// round_s.current a median over enough samples in one run to be steady.
constexpr std::array<std::string_view, 7> kIteration = {
    "current", "icps", "current", "icps", "current", "icps", "synchronous"};

constexpr const char* kUsage =
    "usage: roundbench --workload round-clean|outage-day --seed N --seconds S\n"
    "                  --trace 0|1 --reference FILE [--relays R] [--pin]\n";

#ifdef ROUNDBENCH_COUNT_ALLOCATIONS
constexpr bool kCountsAllocations = true;
uint64_t AllocationCount() { return torbase::counting_allocator::AllocationCount(); }
#else
constexpr bool kCountsAllocations = false;
uint64_t AllocationCount() { return 0; }
#endif

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point from) { return SecondsBetween(from, Clock::now()); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Median wall time of `repeats` calls of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const auto begin = Clock::now();
    fn(i);
    ms.push_back(SecondsSince(begin) * 1e3);
  }
  return Median(std::move(ms));
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum;
}

bool SameDouble(double a, double b) { return (std::isnan(a) && std::isnan(b)) || a == b; }

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  size_t relays = kTorScaleRelays;
  std::string reference_path;
  bool pin = false;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "roundbench: %s\n%s", problem.c_str(), kUsage);
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      options.pin = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(flag + " needs a value");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseUnsigned(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUnsigned(flag, value);
      if (trace > 1) {
        Usage("--trace must be 0 or 1");
      }
      options.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--relays") {
      options.relays = ParseUnsigned(flag, value);
    } else if (flag == "--reference") {
      options.reference_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload != "round-clean" && options.workload != "outage-day") {
    Usage("unknown or missing --workload '" + options.workload + "'");
  }
  if (!have_seconds || !have_trace || options.reference_path.empty()) {
    Usage("--seconds, --trace and --reference are required");
  }
  if (options.trace && !kCountsAllocations) {
    Usage("--trace 1 is served by roundbench_traced, which counts allocations");
  }
  if (options.relays < 1 || options.relays > 1'000'000) {
    Usage("--relays must be in [1, 1000000]");
  }
  return options;
}

// --- workloads ---------------------------------------------------------------

ScenarioSpec BaseSpec(const Options& options) {
  ScenarioSpec spec;
  spec.name = options.workload;
  spec.authority_count = kAuthorities;
  spec.relay_count = options.relays;
  spec.seed = options.seed;
  spec.bandwidth_bps = kNicBps;
  spec.latency = torbase::Millis(50);
  return spec;
}

// Authorities 0-4 clamped to `bps` for the first five minutes of a round.
std::shared_ptr<torattack::AttackSchedule> FirstFiveClamped(double bps) {
  torattack::AttackWindow window;
  window.targets = torattack::FirstTargets(5);
  window.start = 0;
  window.end = torbase::Minutes(5);
  window.available_bps = bps;
  return std::make_shared<torattack::WindowedAttack>(std::vector<torattack::AttackWindow>{window});
}

// One round of `protocol` on round-clean, unattacked or under the paper's
// attack; the unattacked current round is also the spec whose cold set-up
// every workload measures.
ScenarioSpec RoundSpec(const Options& options, std::string_view protocol, bool attacked) {
  ScenarioSpec spec = BaseSpec(options);
  spec.protocol = std::string(protocol);
  spec.horizon = torbase::Hours(2);
  // The published consensus's digest is a checked output.
  spec.retain_consensus = true;
  if (attacked) {
    spec.attack = FirstFiveClamped(torattack::kUnderAttackBps);
  }
  return spec;
}

// A day of hourly `current` rounds with 5M clients, 80% of them diff-capable.
TimelineSpec QuietDay(const Options& options) {
  TimelineSpec day;
  day.name = options.workload;
  day.base = BaseSpec(options);
  day.base.protocol = "current";
  day.base.client_load.client_count = 5'000'000;
  day.base.client_load.diff_capable_fraction = 0.8;
  day.rounds = 24;
  day.round_period = torbase::Hours(1);
  return day;
}

constexpr uint32_t kKnockoutFirst = 8;
constexpr uint32_t kKnockoutLast = 11;
constexpr torbase::NodeId kCrashedAuthority = 7;

// outage-day's calendar: authorities 0-4 knocked out (0 bps, first 5 min) in
// rounds 8-11, authority 7 down from round 2 + 1 min to round 5 + 2 min, and a
// churn blip of authority 8 in round 20.
TimelineSpec OutageDay(const Options& options) {
  TimelineSpec day = QuietDay(options);
  day.attacks.push_back(
      torscenario::AttackCalendarEntry{kKnockoutFirst, kKnockoutLast, FirstFiveClamped(0.0)});
  day.crashes.push_back(torscenario::CrashCalendarEntry{kCrashedAuthority, 2,
                                                        torbase::Minutes(1), 5,
                                                        torbase::Minutes(2)});
  day.churn.push_back(torscenario::ChurnCalendarEntry{
      20, {8, torbase::Seconds(30), torscenario::ChurnEvent::Kind::kCrash}});
  day.churn.push_back(torscenario::ChurnCalendarEntry{
      20, {8, torbase::Minutes(5), torscenario::ChurnEvent::Kind::kRecover}});
  return day;
}

// --- output checks -----------------------------------------------------------

std::string ExactDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// Digest of the published consensus's unsigned body; "none" when the round
// published nothing.
std::string DigestHex(const ScenarioResult& result) {
  return result.consensus_document != nullptr
             ? tordir::ConsensusDigest(*result.consensus_document).ToHex()
             : std::string("none");
}

std::string Fingerprint(const ScenarioResult& result) {
  std::ostringstream out;
  out << "ok=" << result.succeeded << " valid=" << result.valid_count
      << " latency=" << ExactDouble(result.latency_seconds)
      << " bytes=" << result.total_bytes_sent << " kinds=";
  for (const auto& [kind, bytes] : result.bytes_by_kind) {
    out << kind << ':' << bytes << ',';
  }
  out << " dropped=" << result.undeliverable_messages << " digest=" << DigestHex(result);
  return out.str();
}

std::string Fingerprint(const TimelineResult& result) {
  std::ostringstream out;
  out << "successful=" << result.successful_rounds << " rejoins=";
  for (const torscenario::RejoinEvent& rejoin : result.rejoins) {
    out << rejoin.node << '@' << rejoin.round << '/' << rejoin.rounds_behind << '/'
        << rejoin.cold << rejoin.via_diff_chain << rejoin.chain_refused << '/' << rejoin.bytes
        << ',';
  }
  out << " time_to_fresh=" << ExactDouble(result.time_to_fresh_seconds)
      << " peak_backlog=" << ExactDouble(result.peak_retry_backlog)
      << " fresh_fraction=" << ExactDouble(result.client_availability.fresh_fraction);
  return out.str();
}

// Compares each operation's outputs with (1) the pinned reference, for the
// default seed, and (2) the first occurrence of the same output stream in
// this process. An operation whose outputs differ, or which misses its
// expected paper outcome, counts as failed.
class Checker {
 public:
  explicit Checker(const Options& options) : options_(options) { LoadReference(); }

  // Checks one output stream (`label`) of the current operation.
  void Expect(const std::string& label, const std::string& fingerprint) {
    const auto [first, inserted] = first_seen_.emplace(label, fingerprint);
    if (inserted && options_.pin) {
      std::printf("pin %s %zu %s %s\n", options_.workload.c_str(), options_.relays,
                  label.c_str(), fingerprint.c_str());
    }
    if (!inserted && first->second != fingerprint) {
      Fail(label + " differs from its first run in this process:\n  first " + first->second +
           "\n  now   " + fingerprint);
    }
    if (!pinned_active_) {
      return;
    }
    const auto it = pinned_.find(label);
    if (it == pinned_.end()) {
      Fail(label + " has no pinned reference for the default seed");
    } else if (it->second != fingerprint) {
      Fail(label + " differs from the pinned reference:\n  pinned " + it->second + "\n  now    " +
           fingerprint);
    } else if (inserted) {
      ++pinned_matched_;
    }
  }

  // Checks a paper outcome or replay invariant of the current operation.
  void Require(bool holds, const std::string& what) {
    if (!holds) {
      Fail(what);
    }
  }

  // Closes the current operation.
  void EndOperation() {
    ++attempted_;
    if (operation_failed_) {
      ++failed_;
    }
    operation_failed_ = false;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool pinned_active() const { return pinned_active_; }
  size_t pinned_matched() const { return pinned_matched_; }

 private:
  void Fail(const std::string& message) {
    operation_failed_ = true;
    std::fprintf(stderr, "roundbench: check failed: %s\n", message.c_str());
  }

  // Reference lines: "<workload> <relays> <label> <fingerprint...>".
  void LoadReference() {
    std::ifstream in(options_.reference_path);
    if (!in) {
      Usage("cannot read reference file " + options_.reference_path);
    }
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string workload;
      size_t relays = 0;
      std::string label;
      if (line.empty() || line[0] == '#' || !(fields >> workload >> relays >> label)) {
        continue;
      }
      std::string fingerprint;
      std::getline(fields >> std::ws, fingerprint);
      if (workload == options_.workload && relays == options_.relays) {
        pinned_[label] = fingerprint;
      }
    }
    // The Tor-scale configuration must be pinned; other sizes are checked
    // when the file pins them.
    pinned_active_ = options_.seed == kDefaultSeed && !options_.pin &&
                     (options_.relays == kTorScaleRelays || !pinned_.empty());
  }

  const Options& options_;
  std::map<std::string, std::string> pinned_;
  bool pinned_active_ = false;
  size_t pinned_matched_ = 0;
  std::map<std::string, std::string> first_seen_;
  bool operation_failed_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// An unattacked round in which every authority published must have
// published the aggregate of all nine votes, computed outside the protocol.
// (Under attack ICPS may agree on the subset of votes that arrived in time.)
void CheckAggregate(Checker& checker, const std::string& label, const ScenarioResult& result,
                    const std::string& aggregate) {
  if (result.valid_count == kAuthorities) {
    checker.Require(DigestHex(result) == aggregate,
                    label + ": the consensus is the aggregate of the nine votes");
  }
}

// Unattacked rounds are labelled by protocol, attacked ones "ddos.<protocol>".
void CheckRound(const Options& options, Checker& checker, std::string_view protocol,
                bool attacked, const ScenarioResult& result, const std::string& aggregate) {
  const std::string label = (attacked ? "ddos." : "") + std::string(protocol);
  checker.Expect(label, Fingerprint(result));
  if (!attacked) {
    CheckAggregate(checker, label, result, aggregate);
    checker.Require(result.succeeded && result.valid_count == kAuthorities,
                    label + ": every authority publishes an unattacked round");
  } else if (options.relays == kTorScaleRelays) {
    // §4: five minutes at 0.5 Mbit/s on 5 of 9 authorities halts the
    // deployed and synchronous protocols; ICPS recovers and publishes.
    const bool should_publish = protocol == "icps";
    checker.Require(result.succeeded == should_publish,
                    label + (should_publish ? ": icps publishes under the five-minute DDoS"
                                            : ": fails under the five-minute DDoS"));
  }
}

void CheckTimeline(Checker& checker, const TimelineSpec& day, const TimelineResult& result,
                   const std::string& aggregate) {
  for (uint32_t r = 0; r < result.rounds.size(); ++r) {
    char label[16];
    std::snprintf(label, sizeof(label), "r%02u", r);
    checker.Expect(label, Fingerprint(result.rounds[r]));
    // A 0 bps knockout of a majority for five minutes halts `current`; every
    // other round of the calendar keeps a quorum and publishes.
    const bool knocked_out = kKnockoutFirst <= r && r <= kKnockoutLast;
    if (!knocked_out) {
      CheckAggregate(checker, label, result.rounds[r], aggregate);
    }
    checker.Require(result.rounds[r].succeeded != knocked_out,
                    std::string(label) + (knocked_out ? ": knocked-out round must fail"
                                                      : ": round must publish"));
  }
  checker.Expect("timeline", Fingerprint(result));
  checker.Require(result.rounds.size() == day.rounds &&
                      result.rejoins.size() == 1 &&
                      result.rejoins[0].node == kCrashedAuthority,
                  "timeline: authority 7 rejoins exactly once");
}

// --- tracing -----------------------------------------------------------------

// Wall-clock spans of one traced round, stamped from outside the library.
struct RoundTrace {
  Clock::time_point start_begin;
  Clock::time_point loop_end;
  // Inside Actor::Start / Actor::OnMessage, including the sends they issue.
  double handler_seconds = 0.0;
  uint64_t handler_calls = 0;
};

// An attack-schedule decorator: Install() is the one hook the runner calls
// between building the authorities and starting them, so the decorator
// installs the real schedule (if any), re-registers every authority's
// network handler wrapped in a timer, and plants marker events that bound the
// Start() calls and the end of the event loop. The simulation itself is
// untouched: results match an undecorated run field for field.
class TracedSchedule final : public torattack::AttackSchedule {
 public:
  TracedSchedule(std::shared_ptr<torattack::AttackSchedule> inner,
                 std::shared_ptr<RoundTrace> trace)
      : inner_(std::move(inner)), trace_(std::move(trace)) {}

  std::string_view name() const override { return inner_ != nullptr ? inner_->name() : "none"; }

  std::shared_ptr<AttackSchedule> Clone() const override {
    return std::make_shared<TracedSchedule>(inner_ != nullptr ? inner_->Clone() : nullptr,
                                            std::make_shared<RoundTrace>());
  }

  void Describe(torbase::Writer& writer) const override {
    if (inner_ != nullptr) {
      inner_->Describe(writer);
    } else {
      writer.WriteString(name());
    }
  }

  void Install(torsim::Harness& harness, const torattack::AttackContext& context) override {
    *trace_ = RoundTrace{};
    RoundTrace* trace = trace_.get();
    if (inner_ != nullptr) {
      inner_->ClearHistory();
      inner_->Install(harness, context);
    }
    CopyInnerHistory();
    const auto actors = static_cast<torbase::NodeId>(harness.actor_count());
    for (torbase::NodeId id = 0; id < actors; ++id) {
      torsim::Actor* actor = harness.ActorAt<torsim::Actor>(id);
      harness.net().SetHandler(id, [actor, trace](torbase::NodeId from, const torbase::Bytes& payload) {
        const auto begin = Clock::now();
        actor->OnMessage(from, payload);
        trace->handler_seconds += SecondsSince(begin);
        ++trace->handler_calls;
      });
    }
    // Same-instant events fire in schedule order: this marker fires before
    // the Start() events StartAll() queues after Install, and the marker it
    // queues fires right after them, so the gap between the two is the
    // Start() calls.
    torsim::Simulator* sim = &harness.sim();
    sim->ScheduleAt(sim->now(), [sim, trace, actors] {
      trace->start_begin = Clock::now();
      sim->ScheduleAfter(0, [trace, actors] {
        trace->handler_seconds += SecondsSince(trace->start_begin);
        trace->handler_calls += actors;
      });
    });
    sim->ScheduleAt(context.horizon, [this, trace] {
      trace->loop_end = Clock::now();
      CopyInnerHistory();
    });
  }

 private:
  // The runner reports this object's history; mirror the real schedule's.
  void CopyInnerHistory() {
    ClearHistory();
    if (inner_ != nullptr) {
      for (const torattack::AttackSample& sample : inner_->history()) {
        Record(sample.at, sample.victims, sample.available_bps);
      }
    }
  }

  std::shared_ptr<torattack::AttackSchedule> inner_;
  std::shared_ptr<RoundTrace> trace_;
};

// One traced Run, split into the scenario layer's phases.
struct TracedRound {
  ScenarioResult result;
  double wall_s = 0.0;
  double build_s = 0.0;     // Run entry -> schedule Install (harness, keys, authorities)
  double loop_s = 0.0;      // event loop minus handler time
  double analyze_s = 0.0;   // loop end -> InspectFn (probes, health monitor, retained copy)
  double teardown_s = 0.0;  // InspectFn return -> Run return (harness destruction)
  double handler_s = 0.0;
  double handler_calls = 0.0;
  double events = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double undeliverable = 0.0;
  double allocations = 0.0;
};

TracedRound RunTracedRound(ScenarioRunner& runner, const ScenarioSpec& spec) {
  auto trace = std::make_shared<RoundTrace>();
  ScenarioSpec traced = spec;
  traced.attack = std::make_shared<TracedSchedule>(spec.attack, trace);
  TracedRound out;
  Clock::time_point inspect_begin;
  Clock::time_point inspect_end;
  const uint64_t allocations_before = AllocationCount();
  const auto begin = Clock::now();
  out.result = runner.Run(traced, [&](torsim::Harness& harness,
                                      const std::vector<torsim::Actor*>& actors) {
    inspect_begin = Clock::now();
    out.events = static_cast<double>(harness.sim().executed_count() - kMarkerEvents);
    for (const torsim::Actor* actor : actors) {
      out.messages += static_cast<double>(harness.net().counters(actor->id()).messages_sent);
    }
    out.bytes = static_cast<double>(harness.net().total_bytes_sent());
    out.undeliverable = static_cast<double>(harness.net().undeliverable_count());
    inspect_end = Clock::now();
  });
  const auto end = Clock::now();
  out.allocations =
      static_cast<double>(AllocationCount() - allocations_before);
  out.wall_s = SecondsBetween(begin, end);
  out.build_s = SecondsBetween(begin, trace->start_begin);
  out.loop_s = SecondsBetween(trace->start_begin, trace->loop_end) - trace->handler_seconds;
  out.analyze_s = SecondsBetween(trace->loop_end, inspect_begin);
  out.teardown_s = SecondsBetween(inspect_end, end);
  out.handler_s = trace->handler_seconds;
  out.handler_calls = static_cast<double>(trace->handler_calls);
  return out;
}

// Per-round means of traced rounds.
struct LayerMeans {
  double rounds = 0.0;
  TracedRound sum;

  void Add(const TracedRound& round) {
    rounds += 1.0;
    sum.build_s += round.build_s;
    sum.loop_s += round.loop_s;
    sum.analyze_s += round.analyze_s;
    sum.teardown_s += round.teardown_s;
    sum.handler_s += round.handler_s;
    sum.handler_calls += round.handler_calls;
    sum.events += round.events;
    sum.messages += round.messages;
    sum.bytes += round.bytes;
    sum.undeliverable += round.undeliverable;
    sum.allocations += round.allocations;
  }
};

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Part of the final JSON line (the BENCHMARK.json metrics of this mode);
  // the rest are printed for people and for compare mode only.
  bool in_json = true;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, bool in_json = true) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), in_json});
  }

  void AddLayers(const LayerMeans& layers, const std::string& suffix, bool in_json) {
    const TracedRound& s = layers.sum;
    const double n = layers.rounds;
    Add("scenario.build_s" + suffix, s.build_s / n, "s", in_json);
    Add("scenario.analyze_s" + suffix, s.analyze_s / n, "s", in_json);
    Add("scenario.teardown_s" + suffix, s.teardown_s / n, "s", in_json);
    Add("sim.loop_s" + suffix, s.loop_s / n, "s", in_json);
    Add("sim.events" + suffix, s.events / n, "count", in_json);
    Add("sim.ns_per_event" + suffix, s.events > 0 ? s.loop_s / s.events * 1e9 : 0.0, "ns",
        in_json);
    Add("net.messages" + suffix, s.messages / n, "count", in_json);
    Add("net.bytes" + suffix, s.bytes / n, "bytes", in_json);
    Add("net.undeliverable" + suffix, s.undeliverable / n, "count", in_json);
    Add("protocols.handler_s" + suffix, s.handler_s / n, "s", in_json);
    Add("protocols.handler_calls" + suffix, s.handler_calls / n, "count", in_json);
    Add("alloc.per_round" + suffix, s.allocations / n, "count", in_json);
  }

  void Print(const Checker& checker, bool correct) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("checks attempted=%llu failed=%llu failed_frac=%.17g pinned=%s matched=%zu\n",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                checker.attempted() > 0 ? static_cast<double>(checker.failed()) /
                                              static_cast<double>(checker.attempted())
                                        : 0.0,
                checker.pinned_active() ? "yes" : "no", checker.pinned_matched());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_json) {
        continue;
      }
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  m.name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

// --- measurements ------------------------------------------------------------

// A fixed reference kernel: SHA-256 over 8 MB. Shows machine-speed drift
// between runs; reported only, never used to normalize.
double HostReferenceMs() {
  std::vector<uint8_t> buffer(8u << 20);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131u + (i >> 12));
  }
  std::array<uint8_t, torcrypto::kSha256DigestSize> digest{};
  return MedianMs(5, [&](int) { digest = torcrypto::Sha256Digest(buffer); });
}

// A fixed memory-bound kernel: a 64 MB copy, far larger than any cache. The
// SHA-256 kernel above does not feel memory-bandwidth drift; this one does.
// Reported only, never used to normalize.
double HostCopyMs() {
  std::vector<uint8_t> from(64u << 20, 0x5a);
  std::vector<uint8_t> to(from.size());
  const double ms = MedianMs(5, [&](int i) {
    from[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
    std::memcpy(to.data(), from.data(), from.size());
  });
  if (to[4] != 4) {
    std::abort();
  }
  return ms;
}

// setup_s: a horizon-0 Run on a cold runner — workload generation, vote
// serialization and digests, the VoteCache and the authorities' Start().
double MeasureSetup(const ScenarioSpec& spec) {
  ScenarioSpec cold = spec;
  cold.horizon = 0;
  std::vector<double> walls;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScenarioRunner runner;
    const auto begin = Clock::now();
    runner.Run(cold);
    walls.push_back(SecondsSince(begin));
  }
  return Median(std::move(walls));
}

// Fills the runner's workload cache so timed rounds are warm.
void Warm(ScenarioRunner& runner, const ScenarioSpec& spec) {
  ScenarioSpec warm = spec;
  warm.horizon = 0;
  runner.Run(warm);
}

// The timeline layer on a warm memo: every round hits, the serial stitch
// (consensus serialization, tree digests, diffs, rejoin chains, the client
// plane) remains. Checks memo-on against `memo_off` when given.
double MeasureStitch(const TimelineSpec& day, Checker& checker, TimelineResult& filled,
                     const TimelineResult* memo_off) {
  ScenarioRunner runner;
  filled = runner.RunTimeline(day, torscenario::SweepOptions{kTimelineThreads});
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    const auto begin = Clock::now();
    const TimelineResult replay =
        runner.RunTimeline(day, torscenario::SweepOptions{kTimelineThreads});
    walls.push_back(SecondsSince(begin));
    checker.Require(torscenario::BitIdentical(replay, filled),
                    "timeline replay on a warm memo is bit-identical");
  }
  if (memo_off != nullptr) {
    checker.Require(torscenario::BitIdentical(filled, *memo_off),
                    "memo-on timeline is bit-identical to memo-off");
  }
  return Median(std::move(walls));
}

// Re-issues the timeline's horizon-long SimulateClientLoad call from its
// result and times it; the replay must reproduce the timeline's plane.
double MeasureClientPlane(const TimelineSpec& day, const TimelineResult& result,
                          Checker& checker) {
  const double period = torbase::ToSeconds(day.round_period);
  torclients::ClientLoadSpec load = day.base.client_load;
  std::vector<torclients::PublishedDocument> documents;
  for (uint32_t r = 0; r < result.snapshots.size(); ++r) {
    const torscenario::RoundSnapshot& snapshot = result.snapshots[r];
    if (!snapshot.succeeded || snapshot.consensus_round != r || snapshot.consensus_text == nullptr) {
      continue;
    }
    const ScenarioResult& round = result.rounds[r];
    torclients::PublishedDocument doc = torclients::MapToTimeline(
        static_cast<double>(r) * period, round.consensus_published_seconds,
        round.consensus_valid_after, round.consensus_fresh_until, round.consensus_valid_until,
        static_cast<double>(snapshot.consensus_text->size()), load.vote_lead);
    if (snapshot.diff_from_previous != nullptr) {
      doc.diff_size_bytes = static_cast<double>(snapshot.diff_from_previous->size());
    }
    if (documents.empty() && load.consensus_size_hint_bytes <= 0.0) {
      load.consensus_size_hint_bytes = static_cast<double>(snapshot.consensus_text->size());
    }
    documents.push_back(doc);
  }
  const double window = static_cast<double>(day.rounds) * period;
  torclients::ClientAvailability availability;
  const double ms = MedianMs(kReplayRepeats, [&](int) {
    availability = torclients::SimulateClientLoad(load, documents, window);
  });
  checker.Require(SameDouble(availability.fresh_fraction,
                             result.client_availability.fresh_fraction) &&
                      SameDouble(availability.peak_backlog_fetches, result.peak_retry_backlog),
                  "client-plane replay reproduces the timeline's plane");
  return ms;
}

// The workload's own documents, regenerated outside the runner through the
// tordir API: the nine votes, their bytes and digests, and their aggregate.
struct Documents {
  std::vector<tordir::VoteDocument> votes;
  std::vector<std::string> texts;
  std::vector<torcrypto::Digest256> digests;
  std::shared_ptr<tordir::VoteCache> cache = std::make_shared<tordir::VoteCache>();
  tordir::ConsensusDocument consensus;
};

Documents BuildDocuments(const Options& options) {
  tordir::PopulationConfig population_config;
  population_config.relay_count = options.relays;
  population_config.seed = options.seed;
  Documents documents;
  documents.votes = tordir::MakeAllVotes(
      kAuthorities, tordir::GeneratePopulation(population_config), population_config);
  for (const tordir::VoteDocument& vote : documents.votes) {
    documents.texts.push_back(tordir::SerializeVote(vote));
    documents.digests.push_back(torcrypto::Digest256::Of(documents.texts.back()));
    documents.cache->Add(documents.digests.back(),
                         tordir::CachedVote{std::make_shared<const tordir::VoteDocument>(vote),
                                            std::make_shared<const std::string>(
                                                documents.texts.back())});
  }
  documents.cache->Seal();
  documents.consensus = tordir::ComputeConsensus(documents.votes);
  return documents;
}

// Digest of the aggregate of the workload's nine votes. The documents are
// freed before the timed phase so they do not count in peak_rss_mb.
std::string AggregateDigest(const Options& options) {
  return tordir::ConsensusDigest(BuildDocuments(options).consensus).ToHex();
}

// Unit costs of the tordir and crypto layers on the workload's own documents.
void MeasureUnitCosts(const Options& options, Checker& checker, Report& report) {
  const Documents documents = BuildDocuments(options);
  const std::vector<tordir::VoteDocument>& votes = documents.votes;
  const std::vector<std::string>& texts = documents.texts;
  const std::vector<torcrypto::Digest256>& digests = documents.digests;
  const std::shared_ptr<tordir::VoteCache>& cache = documents.cache;
  const auto nth = [](int i) { return static_cast<size_t>(i) % kAuthorities; };

  // Each timed call keeps its last result; the checks run outside the timing.
  std::string vote_text;
  report.Add("tordir.serialize_vote_ms", MedianMs(kReplayRepeats, [&](int i) {
               vote_text = tordir::SerializeVote(votes[nth(i)]);
             }), "ms");
  const size_t last = nth(kReplayRepeats - 1);
  checker.Require(vote_text == texts[last], "vote serialization is deterministic");
  torcrypto::Digest256 vote_digest;
  report.Add("crypto.sha256_vote_ms", MedianMs(kReplayRepeats, [&](int i) {
               vote_digest = torcrypto::Digest256::Of(texts[nth(i)]);
             }), "ms");
  checker.Require(vote_digest == digests[last], "vote digest is stable");
  tordir::VoteAdmission admitted;
  report.Add("tordir.admit_vote_ms", MedianMs(kReplayRepeats, [&](int i) {
               admitted = tordir::AdmitVote(cache, texts[nth(i)], votes[nth(i)].valid_after);
             }), "ms");
  checker.Require(admitted.status.ok() && *admitted.document == votes[last],
                  "admission accepts the workload's own votes");
  std::optional<torbase::Result<tordir::VoteDocument>> parsed;
  report.Add("tordir.parse_vote_ms", MedianMs(kReplayRepeats, [&](int i) {
               parsed.emplace(tordir::ParseVote(texts[nth(i)]));
             }), "ms");
  checker.Require(parsed->ok() && **parsed == votes[last], "vote parse round-trips");
  tordir::ConsensusDocument consensus;
  report.Add("tordir.compute_consensus_ms", MedianMs(kReplayRepeats, [&](int) {
               consensus = tordir::ComputeConsensus(votes);
             }), "ms");
  checker.Require(consensus == documents.consensus, "aggregation is deterministic");
  std::string consensus_text;
  report.Add("tordir.serialize_consensus_ms", MedianMs(kReplayRepeats, [&](int) {
               consensus_text = tordir::SerializeConsensus(consensus);
             }), "ms");
  std::array<uint8_t, torcrypto::kSha256DigestSize> tree{};
  report.Add("crypto.tree_digest_ms", MedianMs(kReplayRepeats, [&](int) {
               tree = torcrypto::Sha256TreeDigest(consensus_text);
             }), "ms");

  // One hour of live-network churn (1% of rows) as the next round's document.
  tordir::ConsensusChurnConfig churn;
  churn.change_fraction = 0.01;
  churn.seed = options.seed;
  const tordir::ConsensusDocument next = tordir::ChurnConsensus(consensus, churn);
  const std::string next_text = tordir::SerializeConsensus(next);
  tordir::ConsensusDiffOptions diff_options;
  diff_options.base_digest = tordir::TreeSignedConsensusDigest(consensus);
  diff_options.target_digest = tordir::TreeSignedConsensusDigest(next);
  std::string diff;
  report.Add("tordir.diff_compute_ms", MedianMs(kReplayRepeats, [&](int) {
               diff = tordir::ComputeConsensusDiff(consensus, next, diff_options);
             }), "ms");
  std::optional<torbase::Result<std::string>> patched;
  report.Add("tordir.diff_apply_ms", MedianMs(kReplayRepeats, [&](int) {
               patched.emplace(tordir::ApplyConsensusDiff(consensus_text, diff));
             }), "ms");
  checker.Require(patched->ok() && **patched == next_text,
                  "diff apply is byte-identical to the full document");

  // The health monitor's feed of an honest round: every authority admits
  // every vote and ends with the same consensus.
  const torcrypto::Digest256 body = tordir::ConsensusDigest(consensus);
  std::vector<tordir::HealthAlert> alerts;
  report.Add("tordir.health_ms", MedianMs(kReplayRepeats, [&](int) {
               tordir::HealthMonitor monitor(kAuthorities);
               for (torbase::NodeId observer = 0; observer < kAuthorities; ++observer) {
                 for (torbase::NodeId sender = 0; sender < kAuthorities; ++sender) {
                   tordir::VoteObservation record;
                   record.sender = sender;
                   record.digest = digests[sender];
                   record.at_seconds = 1.0;
                   for (const tordir::RelayStatus& relay : votes[sender].relays) {
                     record.total_bandwidth += relay.bandwidth;
                   }
                   monitor.RecordObservation(observer, record);
                 }
                 monitor.RecordConsensus(observer, body);
               }
               alerts = monitor.Analyze();
             }), "ms");
  checker.Require(alerts.empty(), "an honest round raises no alert");
}

// --- workloads ---------------------------------------------------------------

// The paper's §4 attack on round-clean's rounds, untimed: one round of each
// protocol with authorities 0-4 at 0.5 Mbit/s for the first five minutes. It
// runs after the timed phase and checks the paper's outcome; its wall times
// are report-only (they drift too much on a shared host to carry a bound).
// The traced run repeats each round traced and reports its layers as
// "<layer metric>.ddos": the NIC model re-sharing clamped rates, current's
// fetch retries and ICPS view changes, none of which runs unattacked.
void RunAttackedRounds(const Options& options, ScenarioRunner& runner, Checker& checker,
                       Report& report) {
  LayerMeans layers;
  for (const std::string_view protocol : kProtocols) {
    const ScenarioSpec spec = RoundSpec(options, protocol, /*attacked=*/true);
    const auto begin = Clock::now();
    const ScenarioResult result = runner.Run(spec);
    report.Add("round_s.ddos." + std::string(protocol), SecondsSince(begin), "s", false);
    CheckRound(options, checker, protocol, /*attacked=*/true, result, "");
    if (options.trace) {
      TracedRound round = RunTracedRound(runner, spec);
      layers.Add(round);
      CheckRound(options, checker, protocol, /*attacked=*/true, round.result, "");
    }
    checker.EndOperation();
  }
  if (options.trace) {
    report.AddLayers(layers, ".ddos", false);
  }
}

// round-clean: iterations of kIteration's warm unattacked rounds, the start
// position rotating between iterations, then the attacked rounds. The traced
// run alternates untraced and traced iterations so trace.overhead_frac
// compares like with like.
void RunRounds(const Options& options, Checker& checker, Report& report) {
  std::map<std::string, ScenarioSpec> specs;
  for (const std::string_view protocol : kProtocols) {
    specs.emplace(protocol, RoundSpec(options, protocol, /*attacked=*/false));
  }
  report.Add("setup_s", MeasureSetup(specs.at("current")), "s", !options.trace);
  const std::string aggregate = AggregateDigest(options);

  ScenarioRunner runner;
  runner.set_memoize(false);
  Warm(runner, specs.at("current"));
  // The first rounds in a process also pay allocator growth (5-10% on that
  // round). synchronous is not warmed: one round costs as much as the rest of
  // an iteration, so only its first timed sample carries that cost.
  for (const std::string_view protocol : {"current", "icps"}) {
    CheckRound(options, checker, protocol, /*attacked=*/false,
               runner.Run(specs.at(std::string(protocol))), aggregate);
    checker.EndOperation();
  }

  std::map<std::string, std::vector<double>> walls;         // untraced
  std::map<std::string, std::vector<double>> traced_walls;
  std::map<std::string, LayerMeans> layers_by_protocol;
  LayerMeans layers;
  double rounds = 0.0;
  double bytes = 0.0;
  const auto phase_begin = Clock::now();
  for (size_t k = 0; k == 0 || SecondsSince(phase_begin) < options.seconds ||
                     (options.trace && k < 2);
       ++k) {
    const bool traced = options.trace && k % 2 == 1;
    for (size_t j = 0; j < kIteration.size(); ++j) {
      const std::string protocol(kIteration[(k + j) % kIteration.size()]);
      ScenarioResult result;
      if (traced) {
        TracedRound round = RunTracedRound(runner, specs.at(protocol));
        traced_walls[protocol].push_back(round.wall_s);
        layers.Add(round);
        layers_by_protocol[protocol].Add(round);
        result = std::move(round.result);
      } else {
        const auto begin = Clock::now();
        result = runner.Run(specs.at(protocol));
        walls[protocol].push_back(SecondsSince(begin));
        std::printf("round %-12s %.6f s\n", protocol.c_str(), walls[protocol].back());
        rounds += 1.0;
        bytes += static_cast<double>(result.total_bytes_sent);
      }
      CheckRound(options, checker, protocol, /*attacked=*/false, result, aggregate);
      checker.EndOperation();
    }
  }

  double untraced_total = 0.0;
  for (const std::string_view protocol : kProtocols) {
    const std::string name(protocol);
    untraced_total += Sum(walls[name]);
    report.Add("round_s." + name, Median(walls[name]), "s",
               !options.trace && protocol == "current");
  }
  report.Add("rounds_per_s", rounds / untraced_total, "1/s", !options.trace);
  report.Add("sim_mb_per_s", bytes / 1e6 / untraced_total, "MB/s", !options.trace);
  RunAttackedRounds(options, runner, checker, report);
  if (!options.trace) {
    return;
  }

  report.AddLayers(layers, "", true);
  double traced_sum = 0.0;
  double untraced_sum = 0.0;
  std::vector<ScenarioSpec> iteration;
  for (const std::string_view protocol : kProtocols) {
    const std::string name(protocol);
    report.AddLayers(layers_by_protocol[name], "." + name, false);
    traced_sum += Median(traced_walls[name]);
    untraced_sum += Median(walls[name]);
    iteration.push_back(specs.at(name));
  }
  report.Add("trace.overhead_frac", traced_sum / untraced_sum - 1.0, "ratio");

  // The sweep pool on this workload's cells: one round of each protocol over
  // two threads.
  const auto sweep_begin = Clock::now();
  const std::vector<ScenarioResult> swept =
      runner.Sweep(iteration, torscenario::SweepOptions{kTimelineThreads});
  report.Add("scenario.sweep_efficiency",
             untraced_sum / (kTimelineThreads * SecondsSince(sweep_begin)), "ratio");
  for (size_t i = 0; i < swept.size(); ++i) {
    CheckRound(options, checker, kProtocols[i], /*attacked=*/false, swept[i], aggregate);
  }
  checker.EndOperation();

  // The timeline and client layers over a quiet day of this workload's
  // `current` rounds.
  const TimelineSpec day = QuietDay(options);
  TimelineResult filled;
  report.Add("timeline.stitch_s", MeasureStitch(day, checker, filled, nullptr), "s");
  report.Add("clients.plane_ms", MeasureClientPlane(day, filled, checker), "ms");
  MeasureUnitCosts(options, checker, report);
  checker.EndOperation();
}

// outage-day: one RunTimeline per operation over two sweep threads, memo off.
void RunOutageDay(const Options& options, Checker& checker, Report& report) {
  const TimelineSpec day = OutageDay(options);
  report.Add("setup_s", MeasureSetup(RoundSpec(options, "current", /*attacked=*/false)), "s",
             !options.trace);
  const std::string aggregate = AggregateDigest(options);

  ScenarioRunner runner;
  runner.set_memoize(false);
  Warm(runner, torscenario::BuildTimelineRoundSpecs(day).front());

  // One untimed timeline: the process's first rounds pay allocator growth,
  // and the traced run needs an untraced reference.
  const TimelineResult reference =
      runner.RunTimeline(day, torscenario::SweepOptions{kTimelineThreads});
  CheckTimeline(checker, day, reference, aggregate);
  checker.EndOperation();

  std::vector<double> walls;
  double bytes = 0.0;
  const auto phase_begin = Clock::now();
  while (walls.empty() || (!options.trace && SecondsSince(phase_begin) < options.seconds)) {
    const auto begin = Clock::now();
    const TimelineResult result =
        runner.RunTimeline(day, torscenario::SweepOptions{kTimelineThreads});
    walls.push_back(SecondsSince(begin));
    std::printf("timeline %.6f s\n", walls.back());
    for (const ScenarioResult& round : result.rounds) {
      bytes += static_cast<double>(round.total_bytes_sent);
    }
    CheckTimeline(checker, day, result, aggregate);
    checker.EndOperation();
  }
  const double total = Sum(walls);
  report.Add("round_s.current", Median(walls) / day.rounds, "s", !options.trace);
  report.Add("rounds_per_s", static_cast<double>(walls.size() * day.rounds) / total, "1/s",
             !options.trace);
  report.Add("sim_mb_per_s", bytes / 1e6 / total, "MB/s", !options.trace);
  if (!options.trace) {
    return;
  }

  // The rounds one by one on the calling thread, untraced then traced: the
  // serial baseline of the sweep pool and the per-layer spans.
  const std::vector<ScenarioSpec> specs = torscenario::BuildTimelineRoundSpecs(day);
  double serial_total = 0.0;
  for (uint32_t r = 0; r < specs.size(); ++r) {
    const auto begin = Clock::now();
    const ScenarioResult result = runner.Run(specs[r]);
    serial_total += SecondsSince(begin);
    checker.Require(torscenario::BitIdentical(result, reference.rounds[r]),
                    "serial round " + std::to_string(r) + " matches the timeline's");
  }
  checker.EndOperation();
  LayerMeans layers;
  double traced_total = 0.0;
  for (uint32_t r = 0; r < specs.size(); ++r) {
    TracedRound round = RunTracedRound(runner, specs[r]);
    traced_total += round.wall_s;
    layers.Add(round);
    checker.Require(torscenario::BitIdentical(round.result, reference.rounds[r]),
                    "traced round " + std::to_string(r) + " matches the untraced timeline's");
  }
  checker.EndOperation();
  report.AddLayers(layers, "", true);
  report.Add("trace.overhead_frac", traced_total / serial_total - 1.0, "ratio");

  const auto sweep_begin = Clock::now();
  const std::vector<ScenarioResult> swept =
      runner.Sweep(specs, torscenario::SweepOptions{kTimelineThreads});
  report.Add("scenario.sweep_efficiency",
             serial_total / (kTimelineThreads * SecondsSince(sweep_begin)), "ratio");
  for (uint32_t r = 0; r < specs.size(); ++r) {
    checker.Require(torscenario::BitIdentical(swept[r], reference.rounds[r]),
                    "parallel sweep round " + std::to_string(r) + " matches the timeline's");
  }
  checker.EndOperation();

  TimelineResult filled;
  report.Add("timeline.stitch_s", MeasureStitch(day, checker, filled, &reference), "s");
  report.Add("clients.plane_ms", MeasureClientPlane(day, reference, checker), "ms");
  MeasureUnitCosts(options, checker, report);
  checker.EndOperation();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  std::printf("roundbench workload=%s seed=%llu seconds=%g trace=%d relays=%zu sha256=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.relays,
              torcrypto::Sha256BackendName(torcrypto::ActiveSha256Backend()));
  Checker checker(options);
  Report report;
  report.Add("host.ref_ms", HostReferenceMs(), "ms", false);
  report.Add("host.copy_ms", HostCopyMs(), "ms", false);
  if (options.workload == "outage-day") {
    RunOutageDay(options, checker, report);
  } else {
    RunRounds(options, checker, report);
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MB", !options.trace);
  const bool correct = checker.failed() == 0;
  report.Print(checker, correct);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
