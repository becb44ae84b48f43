#include "src/scenario/runner.h"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "src/clients/population.h"
#include "src/common/thread_pool.h"
#include "src/crypto/sha256_batch.h"
#include "src/protocols/byzantine.h"
#include "src/protocols/directory_protocol.h"
#include "src/scenario/spec_digest.h"
#include "src/tordir/consensus_diff.h"
#include "src/tordir/dirspec.h"
#include "src/tordir/health_monitor.h"

namespace torscenario {
namespace {

// Key seed of the authority signing directory; fixed across the repo so logs
// and digests are comparable between drivers.
constexpr uint64_t kKeyDirectorySeed = 42;

double NodeRate(const ScenarioSpec& spec, torbase::NodeId node) {
  const auto it = spec.bandwidth_by_authority.find(node);
  return it == spec.bandwidth_by_authority.end() ? spec.bandwidth_bps : it->second;
}

// Feeds the run's observable vote/consensus record through the
// consensus-health monitor (Table 1's deployed mitigation) and stores the
// alerts. Pure post-run analysis over the authorities' recorded evidence.
void AnalyzeHealth(const ScenarioSpec& spec, const std::vector<torproto::Authority*>& authorities,
                   ScenarioResult& result) {
  tordir::HealthMonitor monitor(spec.authority_count);
  // An observed digest names the admitted bytes, and equal bytes parse to
  // equal documents: each distinct vote's bandwidth is summed once per run,
  // not once per observer.
  std::map<torcrypto::Digest256, uint64_t> total_bandwidth;
  for (const torproto::Authority* authority : authorities) {
    // Per-observer evidence: each authority reports the digest *it* admitted,
    // so an equivocating sender shows up as two digests across observers.
    for (const torproto::ObservedVote& observed : authority->observed_votes()) {
      tordir::VoteObservation record;
      record.sender = observed.sender;
      record.digest = observed.digest;
      record.at_seconds = torbase::ToSeconds(observed.at);
      if (observed.document != nullptr) {
        const auto [total, fresh] = total_bandwidth.try_emplace(observed.digest, 0);
        if (fresh) {
          for (const tordir::RelayStatus& relay : observed.document->relays) {
            total->second += relay.bandwidth;
          }
        }
        record.total_bandwidth = total->second;
      }
      monitor.RecordObservation(authority->id(), record);
    }
    for (const torproto::RejectedVote& rejected : authority->rejected_votes()) {
      monitor.RecordReject(authority->id(), rejected.sender, rejected.reason,
                           torbase::ToSeconds(rejected.at));
    }
  }
  // Flooded or dead links drop messages silently at the NIC; surface them so
  // operators see the flood itself, not only its consensus fallout.
  monitor.RecordUndeliverable(result.undeliverable_messages);
  for (const torproto::Authority* authority : authorities) {
    const torproto::PublishedConsensus published = authority->published();
    if (published.document == nullptr) {
      monitor.RecordConsensus(authority->id(), std::nullopt);
    } else if (published.digest != nullptr) {
      // All built-ins expose the body digest they computed during the run;
      // recording it is free.
      monitor.RecordConsensus(authority->id(), *published.digest);
    } else {
      // Downstream protocols without a cached digest pay one hash here.
      monitor.RecordConsensus(authority->id(), tordir::ConsensusDigest(*published.document));
    }
  }
  result.health_alerts = monitor.Analyze();
}

// Distills the run's alerts into the fault-detection metrics the fuzzer
// asserts on: how many injected byzantine authorities at least one alert
// implicates, and when the monitor had seen evidence of all of them.
void ComputeFaultMetrics(const ScenarioSpec& spec, ScenarioResult& result) {
  for (const auto& [node, behavior] : spec.byzantine.behaviors) {
    if (node < spec.authority_count) {
      ++result.byzantine_count;
    }
  }
  if (!spec.monitor_health || result.byzantine_count == 0) {
    return;
  }
  std::set<torbase::NodeId> implicated;
  double latest = std::numeric_limits<double>::quiet_NaN();
  for (const tordir::HealthAlert& alert : result.health_alerts) {
    for (const torbase::NodeId authority : alert.authorities) {
      if (authority >= spec.authority_count ||
          spec.byzantine.behaviors.find(authority) == spec.byzantine.behaviors.end()) {
        continue;
      }
      implicated.insert(authority);
      // Max over timestamped evidence; absence-based alerts (-1.0) support
      // detection but carry no instant.
      if (alert.first_evidence_seconds >= 0.0 && !(latest >= alert.first_evidence_seconds)) {
        latest = alert.first_evidence_seconds;
      }
    }
  }
  result.faults_detected = static_cast<uint32_t>(implicated.size());
  result.fault_detection_latency_seconds = latest;
}

// Runs the consumption plane: converts the run's publish timeline into the
// client-visible availability metrics. Closed-form post-processing — adds no
// simulator events, so its cost is independent of the client count.
void AnalyzeClientLoad(const ScenarioSpec& spec, const torproto::PublishedConsensus& published,
                       size_t fallback_size_bytes, ScenarioResult& result) {
  torclients::ClientLoadSpec load = spec.client_load;
  if (load.consensus_size_hint_bytes <= 0.0) {
    // Failed runs publish nothing; size the prior document like a vote,
    // which matches the consensus's wire-size shape at the same relay count.
    load.consensus_size_hint_bytes = static_cast<double>(fallback_size_bytes);
  }

  std::vector<torclients::PublishedDocument> documents;
  if (published.document != nullptr) {
    result.consensus_size_bytes = tordir::ConsensusWireSize(*published.document);
    if (spec.previous_consensus != nullptr) {
      result.consensus_diff_size_bytes =
          tordir::ComputeConsensusDiff(*spec.previous_consensus, *published.document).size();
    }
    // Retain a flat copy for the next round of a stitched replay (the actor
    // owning `published.document` dies with the harness). Interned relay
    // strings make this cheap: the copy shares every interned id.
    result.consensus_document =
        std::make_shared<const tordir::ConsensusDocument>(*published.document);
    documents.push_back(torclients::MapToTimeline(
        /*round_start_seconds=*/0.0, torbase::ToSeconds(published.published_at),
        published.document->valid_after, published.document->fresh_until,
        published.document->valid_until, static_cast<double>(result.consensus_size_bytes),
        load.vote_lead));
    documents.back().diff_size_bytes = static_cast<double>(result.consensus_diff_size_bytes);
  }

  const double window =
      std::min(torbase::ToSeconds(spec.horizon), torbase::ToSeconds(load.evaluation_window));
  // The full-document counterfactual only diverges when a diff cohort exists
  // and a diff was actually served; copy the documents before they are moved.
  const bool diff_serving =
      load.diff_capable_fraction > 0.0 && result.consensus_diff_size_bytes > 0;
  std::vector<torclients::PublishedDocument> full_doc_documents;
  if (diff_serving) {
    full_doc_documents = documents;
  }
  const torclients::ClientAvailability availability =
      torclients::SimulateClientLoad(load, std::move(documents), window);

  ClientAvailabilityResult& out = result.client_availability;
  out.enabled = true;
  out.total_fetches = availability.total_fetches;
  out.fresh_fetches = availability.fresh_fetches;
  out.stale_fetches = availability.stale_fetches;
  out.unserved_fetches = availability.unserved_fetches;
  out.fresh_fraction = availability.fresh_fraction;
  out.time_to_first_stale_seconds = availability.time_to_first_stale_seconds;
  out.outage_seconds = availability.outage_seconds;
  out.outage_start_seconds = availability.outage_start_seconds;
  out.hard_down_seconds = availability.hard_down_seconds;
  out.hard_down_start_seconds = availability.hard_down_start_seconds;
  out.peak_backlog_fetches = availability.peak_backlog_fetches;
  out.served_bytes = availability.served_bytes;

  const double client_hours =
      static_cast<double>(load.client_count) * window / 3600.0;
  if (client_hours > 0.0) {
    out.bytes_per_client_hour = availability.served_bytes / client_hours;
    if (diff_serving) {
      // Same run, diff serving disabled: what the cache tier would have
      // transferred if every fetch were the full document.
      torclients::ClientLoadSpec full_load = load;
      full_load.diff_capable_fraction = 0.0;
      const torclients::ClientAvailability full =
          torclients::SimulateClientLoad(full_load, std::move(full_doc_documents), window);
      out.full_doc_bytes_per_client_hour = full.served_bytes / client_hours;
    } else {
      out.full_doc_bytes_per_client_hour = out.bytes_per_client_hour;
    }
  }
}

}  // namespace

std::shared_ptr<const ScenarioRunner::Workload> ScenarioRunner::BuildWorkload(
    const ScenarioSpec& spec) {
  tordir::PopulationConfig pop_config;
  pop_config.relay_count = spec.relay_count;
  pop_config.seed = spec.seed;
  auto workload = std::make_shared<Workload>();
  workload->population = tordir::GeneratePopulation(pop_config);
  auto cache = std::make_shared<tordir::VoteCache>();
  std::vector<tordir::VoteDocument> votes =
      tordir::MakeAllVotes(spec.authority_count, workload->population, pop_config);
  workload->votes.reserve(votes.size());
  workload->vote_bodies.reserve(votes.size());
  std::vector<std::shared_ptr<const std::string>> texts;
  texts.reserve(votes.size());
  cache->Reserve(votes.size());
  // Serialize every vote first, then digest them all in one Sha256Batch call:
  // the lanes run lock-step on the hardware core and produce exactly the
  // digests Digest256::Of would (vote identity stays plain SHA-256 on the
  // wire), so the cache keys are unchanged.
  torcrypto::Sha256Batch batch;
  for (tordir::VoteDocument& vote : votes) {
    auto document = std::make_shared<const tordir::VoteDocument>(std::move(vote));
    auto text = std::make_shared<const std::string>(tordir::SerializeVote(*document));
    batch.Add(std::string_view(*text));
    workload->votes.push_back(std::move(document));
    texts.push_back(std::move(text));
  }
  const auto digests = batch.Finish();
  for (size_t i = 0; i < digests.size(); ++i) {
    const torcrypto::Digest256 digest(digests[i]);
    cache->Add(digest, tordir::CachedVote{workload->votes[i], texts[i]});
    workload->vote_bodies.emplace_back(std::move(texts[i]), digest);
  }
  cache->Seal();
  workload->vote_cache = std::move(cache);
  return workload;
}

size_t ScenarioRunner::workload_cache_hits() const {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  return cache_hits_;
}

size_t ScenarioRunner::workload_cache_misses() const {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  return cache_misses_;
}

size_t ScenarioRunner::workload_cache_size() const {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  return workloads_.size();
}

void ScenarioRunner::ClearWorkloadCache() {
  std::lock_guard<std::mutex> lock(workloads_mutex_);
  workloads_.clear();
}

size_t ScenarioRunner::result_memo_hits() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_hits_;
}

size_t ScenarioRunner::result_memo_misses() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return memo_misses_;
}

size_t ScenarioRunner::result_memo_size() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  return results_.size();
}

void ScenarioRunner::ClearResultMemo() {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  results_.clear();
}

ScenarioResult ScenarioRunner::Run(const ScenarioSpec& spec, const InspectFn& inspect) {
  return std::move(Execute(std::span(&spec, 1), /*threads=*/1, inspect).front());
}

std::vector<ScenarioResult> ScenarioRunner::Sweep(const std::vector<ScenarioSpec>& specs,
                                                  const SweepOptions& options) {
  // No point spinning up more workers than cells.
  const unsigned threads = std::min<unsigned>(
      options.threads == 0 ? torbase::ThreadPool::DefaultThreads() : options.threads,
      static_cast<unsigned>(specs.size()));
  return Execute(specs, threads, InspectFn());
}

std::vector<ScenarioResult> ScenarioRunner::Execute(std::span<const ScenarioSpec> specs,
                                                    unsigned threads, const InspectFn& inspect) {
  std::optional<torbase::ThreadPool> pool;
  if (threads > 1) {
    pool.emplace(threads);
  }
  const auto for_each = [&pool](size_t n, const std::function<void(size_t)>& body) {
    if (pool.has_value()) {
      pool->ParallelFor(n, body);
    } else {
      for (size_t j = 0; j < n; ++j) {
        body(j);
      }
    }
  };

  // 1. Resolve workloads. The cache probe happens serially in spec order, so
  // telemetry counts the same at any thread count (the first occurrence of an
  // uncached key is the miss, repeats are hits), with the memo on or off.
  // Pending futures are published under the lock before anything builds, so
  // a concurrent Execute missing the same key joins this build instead of
  // duplicating it. The builds themselves — generation, serialization,
  // digesting and VoteCache, independent per key — run on the pool when
  // there is one; pool threads intern relay strings concurrently, which the
  // string pool's lock-free index keeps race-free (ROADMAP threading
  // contract). Every build this call owns finishes before it waits on any
  // other call's, so concurrent calls cannot deadlock.
  std::vector<WorkloadFuture> futures(specs.size());
  std::vector<size_t> build_indexes;  // first spec index per missing key
  std::deque<std::promise<std::shared_ptr<const Workload>>> promises;
  {
    std::lock_guard<std::mutex> lock(workloads_mutex_);
    for (size_t i = 0; i < specs.size(); ++i) {
      const WorkloadKey key{specs[i].relay_count, specs[i].seed, specs[i].authority_count};
      if (const auto it = workloads_.find(key); it != workloads_.end()) {
        ++cache_hits_;  // built, in flight elsewhere, or earlier in this call
        futures[i] = it->second;
      } else {
        ++cache_misses_;
        build_indexes.push_back(i);
        promises.emplace_back();
        futures[i] = promises.back().get_future().share();
        workloads_[key] = futures[i];
      }
    }
  }
  for_each(build_indexes.size(), [&specs, &build_indexes, &promises](size_t j) {
    promises[j].set_value(BuildWorkload(specs[build_indexes[j]]));
  });
  std::vector<std::shared_ptr<const Workload>> workloads(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    workloads[i] = futures[i].get();
  }

  // 2. Probe the memo, serially in spec order for the same reason: a digest
  // already published is a hit, the first occurrence of a new digest is the
  // miss that runs, and repeats within this call are hits served by that one
  // run. Inspected cells bypass the memo entirely: the hook needs a live
  // harness, and whatever it observes is invisible to the digest.
  std::vector<ScenarioResult> results(specs.size());
  std::vector<torcrypto::Digest256> digests;
  std::vector<size_t> run_indexes;  // cells that actually simulate
  std::vector<size_t> duplicates;   // cells served by an earlier cell's run
  if (memoize_ && !inspect) {
    digests.resize(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      digests[i] = SpecDigest(specs[i]);
    }
    std::lock_guard<std::mutex> lock(memo_mutex_);
    std::set<torcrypto::Digest256> pending;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (const auto it = results_.find(digests[i]); it != results_.end()) {
        ++memo_hits_;
        results[i] = *it->second;
      } else if (pending.insert(digests[i]).second) {
        ++memo_misses_;
        run_indexes.push_back(i);
      } else {
        ++memo_hits_;  // duplicate digest in this call: simulated once
        duplicates.push_back(i);
      }
    }
  } else {
    run_indexes.resize(specs.size());
    std::iota(run_indexes.begin(), run_indexes.end(), size_t{0});
  }

  // 3. Run the misses. On the calling thread a cell runs the caller's spec in
  // place, so the caller's attack schedule holds the run's history afterwards.
  // On a pool each cell gets a private copy with a cloned schedule: specs may
  // share one schedule object, but Install/history are mutable per-run state
  // that concurrent cells must not share. Results stay bit-identical — a
  // clone runs exactly as the original would after its per-run
  // ClearHistory().
  std::vector<ScenarioSpec> clones;
  if (pool.has_value()) {
    clones.reserve(run_indexes.size());
    for (const size_t i : run_indexes) {
      clones.push_back(specs[i]);
      if (clones.back().attack != nullptr) {
        clones.back().attack = clones.back().attack->Clone();
      }
    }
  }
  for_each(run_indexes.size(), [&](size_t j) {
    const size_t i = run_indexes[j];
    results[i] = RunWithWorkload(pool.has_value() ? clones[j] : specs[i], *workloads[i], inspect);
  });

  // 4. Publish serially in first-appearance order; entries are immutable once
  // published (a concurrent Execute may have published the same digest
  // meanwhile — its entry wins and is bit-identical by purity). Duplicate
  // cells are then filled from the published entries.
  if (!digests.empty()) {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    for (const size_t i : run_indexes) {
      results_.emplace(digests[i], std::make_shared<const ScenarioResult>(results[i]));
    }
    for (const size_t i : duplicates) {
      results[i] = *results_.at(digests[i]);
    }
  }
  return results;
}

torbase::Result<double> ScenarioRunner::FindBandwidthRequirement(const ScenarioSpec& base,
                                                                 uint32_t victim_count,
                                                                 double lo_bps, double hi_bps,
                                                                 int probes) {
  // The probe clamp joins (not replaces) a standing windowed attack: each
  // probe runs a Clone() of it with the clamp appended.
  const auto* windowed = dynamic_cast<const torattack::WindowedAttack*>(base.attack.get());
  if (base.attack != nullptr && windowed == nullptr) {
    return torbase::Status::InvalidArgument(
        "bandwidth search can only join a windowed attack, got '" +
        std::string(base.attack->name()) + "'");
  }
  // Invariant: the protocol fails at lo and succeeds at hi. If it already
  // succeeds at lo (tiny relay counts), report lo; if it fails even at hi,
  // report hi as a lower bound.
  auto probe = [&](double bandwidth) {
    ScenarioSpec spec = base;
    torattack::AttackWindow window;
    window.targets = torattack::FirstTargets(victim_count);
    window.start = 0;
    window.end = base.horizon;
    window.available_bps = bandwidth;
    spec.attack = windowed != nullptr ? windowed->Clone()
                                      : std::make_shared<torattack::WindowedAttack>(
                                            std::vector<torattack::AttackWindow>{});
    static_cast<torattack::WindowedAttack&>(*spec.attack).windows().push_back(std::move(window));
    return Run(spec).succeeded;
  };
  // The probes lean on the result memo: re-probing any bandwidth the search
  // already visited — including the confirmation of the returned requirement
  // — is a memo hit, not a re-simulation. Drivers surface the redundancy via
  // result_memo_hits().
  if (probe(lo_bps)) {
    return lo_bps;
  }
  if (!probe(hi_bps)) {
    return hi_bps;  // lower bound only; nothing succeeded, nothing to confirm
  }
  double lo = lo_bps;
  double hi = hi_bps;
  for (int i = 0; i < probes; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (probe(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Re-assert the invariant on the value we return: `hi` was probed when it
  // became the upper bracket, so this replays from the memo (or, memo off,
  // re-simulates) and fails the search if the protocol does not succeed there.
  if (!probe(hi)) {
    return torbase::Status::Internal("bandwidth requirement search lost its invariant: " +
                                     std::to_string(hi) + " bps succeeded once, then failed");
  }
  return hi;
}

ScenarioResult ScenarioRunner::RunWithWorkload(const ScenarioSpec& spec, const Workload& workload,
                                               const InspectFn& inspect) {
  const torproto::DirectoryProtocol& protocol = torproto::GetProtocol(spec.protocol);

  torcrypto::KeyDirectory directory(kKeyDirectorySeed, spec.authority_count);

  torsim::NetworkConfig net_config;
  net_config.node_count = spec.authority_count;
  net_config.default_bandwidth_bps = spec.bandwidth_bps;
  net_config.default_latency = spec.latency;
  torsim::Harness harness(net_config);
  for (const auto& [node, bps] : spec.bandwidth_by_authority) {
    harness.net().SetNodeRateFrom(node, 0, bps);
  }

  torproto::ProtocolRunConfig run_config;
  run_config.authority_count = spec.authority_count;
  run_config.dissemination_timeout = spec.dissemination_timeout;
  run_config.two_phase_agreement = spec.two_phase_agreement;

  // One round memo for this run's authorities: they aggregate each distinct
  // admitted vote set once between them. It is private to this call (never
  // on the shared Workload), so concurrent cells never share one.
  const auto memo = std::make_shared<torproto::RoundMemo>();
  std::vector<torproto::Authority*> authorities;
  authorities.reserve(spec.authority_count);
  for (uint32_t a = 0; a < spec.authority_count; ++a) {
    // Share the cached vote, its serialized bytes and the workload's parsed-
    // vote cache with the authority: all immutable, so concurrent cells can
    // hold the same documents without copying megabytes per authority per
    // run. A byzantine authority runs the same protocol on faulty materials.
    torproto::AuthorityMaterials materials{workload.votes[a], workload.vote_bodies[a],
                                           workload.vote_cache, {}, memo};
    if (const auto it = spec.byzantine.behaviors.find(a); it != spec.byzantine.behaviors.end()) {
      materials = torproto::MakeFaultyMaterials(materials, it->second, spec.byzantine, a);
    }
    std::unique_ptr<torproto::Authority> authority =
        protocol.MakeAuthority(run_config, &directory, a, std::move(materials));
    authorities.push_back(authority.get());
    harness.AddActor(std::move(authority));
  }

  torattack::AttackContext attack_context;
  if (spec.attack != nullptr) {
    attack_context.authority_count = spec.authority_count;
    attack_context.horizon = spec.horizon;
    attack_context.current_leader = [&authorities]() -> std::optional<torbase::NodeId> {
      // The leader of the highest in-flight view across authorities: the view
      // an attacker watching the wire would see being driven right now.
      std::optional<std::pair<uint64_t, torbase::NodeId>> best;
      for (const torproto::Authority* authority : authorities) {
        const auto view = authority->agreement_view();
        if (view.has_value() && (!best.has_value() || view->first > best->first)) {
          best = view;
        }
      }
      if (!best.has_value()) {
        return std::nullopt;
      }
      return best->second;
    };
    spec.attack->ClearHistory();
    spec.attack->Install(harness, attack_context);
  }

  // Churn is applied after the attack schedule, in time order, so a crash
  // erases any later attack restore points on that node: a crashed authority
  // stays down until its own recover event, not until an attack window ends.
  std::vector<ChurnEvent> churn = spec.churn;
  std::stable_sort(churn.begin(), churn.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
    return a.at != b.at ? a.at < b.at : a.kind < b.kind;
  });
  for (const ChurnEvent& event : churn) {
    if (event.kind == ChurnEvent::Kind::kCrash) {
      harness.net().LimitNode(event.node, event.at, torbase::kTimeNever, 0.0);
    } else {
      harness.net().SetNodeRateFrom(event.node, event.at, NodeRate(spec, event.node));
    }
  }

  harness.StartAll();
  harness.sim().RunUntil(spec.horizon);

  ScenarioResult result;
  result.total_bytes_sent = harness.net().total_bytes_sent();
  result.bytes_by_kind = harness.net().bytes_by_kind();
  result.undeliverable_messages = harness.net().undeliverable_count();

  double latency = 0.0;
  double finish = 0.0;
  torproto::PublishedConsensus published;  // earliest authority to publish
  for (const torproto::Authority* authority : authorities) {
    const torproto::PublishedConsensus candidate = authority->published();
    if (candidate.document == nullptr) {
      continue;
    }
    ++result.valid_count;
    result.consensus_holders.push_back(authority->id());
    result.consensus_relays = candidate.document->relays.size();
    latency = std::max(latency, authority->network_seconds());
    finish = std::max(finish, torbase::ToSeconds(candidate.published_at));
    if (candidate.published_at < published.published_at) {
      published = candidate;
    }
  }
  result.succeeded = result.valid_count > 0;
  if (result.succeeded) {
    result.latency_seconds = latency;
    result.finish_time_seconds = finish;
  }
  if (published.document != nullptr) {
    result.consensus_published_seconds = torbase::ToSeconds(published.published_at);
    result.consensus_valid_after = published.document->valid_after;
    result.consensus_fresh_until = published.document->fresh_until;
    result.consensus_valid_until = published.document->valid_until;
  }
  if (spec.attack != nullptr) {
    result.attack_history = spec.attack->history();
  }

  if (spec.monitor_health) {
    AnalyzeHealth(spec, authorities, result);
  }
  ComputeFaultMetrics(spec, result);
  if (spec.client_load.client_count > 0) {
    AnalyzeClientLoad(spec, published,
                      workload.vote_bodies.empty() ? 0 : workload.vote_bodies[0].size(), result);
  }
  // Timeline rounds run without a per-round client plane but still need the
  // actual published document for diff chains and rejoin costing.
  if (spec.retain_consensus && published.document != nullptr &&
      result.consensus_document == nullptr) {
    result.consensus_document =
        std::make_shared<const tordir::ConsensusDocument>(*published.document);
  }

  if (inspect) {
    inspect(harness, std::vector<torsim::Actor*>(authorities.begin(), authorities.end()));
  }
  return result;
}

}  // namespace torscenario
