#include "src/sim/shared_nic.h"

#include <cassert>
#include <cmath>
#include <iterator>

namespace torsim {
namespace {

// Bits below this threshold count as fully drained (guards float rounding).
constexpr double kEpsilonBits = 1e-6;

}  // namespace

SharedNic::SharedNic(Simulator* sim, double initial_bits_per_sec)
    : sim_(sim), schedule_(initial_bits_per_sec) {}

double SharedNic::SharePerFlow(TimePoint from, TimePoint to, size_t k) const {
  if (k == 0 || to <= from) {
    return 0.0;
  }
  const double total = schedule_.CapacityDuring(from, to);
  return total / static_cast<double>(k);
}

void SharedNic::Advance() {
  const TimePoint now = sim_->now();
  if (now <= last_update_ || flows_.empty()) {
    last_update_ = std::max(last_update_, now);
    return;
  }
  const double share = SharePerFlow(last_update_, now, flows_.size());
  last_update_ = now;
  // Completions are moved out of flows_ before any fires: a callback may
  // start a transfer on this NIC (which re-enters Advance as a no-op, since
  // last_update_ == now) and so must not observe a half-drained list.
  for (auto it = flows_.begin(); it != flows_.end();) {
    it->remaining_bits -= share;
    auto next = std::next(it);
    if (it->remaining_bits <= kEpsilonBits) {
      completed_.splice(completed_.end(), flows_, it);
    }
    it = next;
  }
  FireCompleted();
}

void SharedNic::FireCompleted() {
  while (!completed_.empty()) {
    Flow& flow = completed_.front();
    flow.on_complete();
    flow.on_complete = nullptr;  // release the captures now, not on reuse
    spare_.splice(spare_.end(), completed_, completed_.begin());
  }
}

void SharedNic::Reschedule() {
  if (pending_event_ != kNoEvent) {
    sim_->Cancel(pending_event_);
    pending_event_ = kNoEvent;
  }
  if (flows_.empty()) {
    return;
  }
  // Under processor sharing every flow drains equally, so the flow with the
  // least remaining bits completes first. Integrate the schedule piecewise to
  // find its completion instant, treating concurrency as fixed (any arrival or
  // earlier completion triggers a fresh Reschedule).
  double min_remaining = flows_.front().remaining_bits;
  for (const auto& flow : flows_) {
    min_remaining = std::min(min_remaining, flow.remaining_bits);
  }
  const size_t k = flows_.size();
  TimePoint t = last_update_;
  double remaining = min_remaining;
  for (;;) {
    const double rate = schedule_.RateAt(t);
    const TimePoint boundary = schedule_.NextChangeAfter(t);
    if (std::isinf(rate)) {
      // Infinite rate: everything in flight completes instantly once the
      // schedule reaches `t`. Completing explicitly avoids a zero-elapsed
      // Advance() that would drain nothing.
      pending_event_ = sim_->ScheduleAt(t, [this] {
        pending_event_ = kNoEvent;
        completed_.splice(completed_.end(), flows_);
        last_update_ = sim_->now();
        FireCompleted();
        Reschedule();
      });
      return;
    }
    const double per_flow_rate = rate / static_cast<double>(k);
    if (per_flow_rate > 0.0) {
      const double micros_needed = remaining / per_flow_rate * 1e6;
      if (boundary == torbase::kTimeNever ||
          micros_needed <= static_cast<double>(boundary - t)) {
        const double finish = static_cast<double>(t) + micros_needed;
        if (finish >= static_cast<double>(torbase::kTimeNever)) {
          break;  // effectively never
        }
        // Fire at least 1 us ahead so Advance() always integrates a non-empty
        // interval (sub-microsecond completions round up).
        const TimePoint fire = std::max<TimePoint>(static_cast<TimePoint>(std::ceil(finish)),
                                                   last_update_ + 1);
        pending_event_ = sim_->ScheduleAt(fire, [this] {
          pending_event_ = kNoEvent;
          Advance();
          Reschedule();
        });
        return;
      }
      remaining -= per_flow_rate * static_cast<double>(boundary - t) / 1e6;
    }
    if (boundary == torbase::kTimeNever) {
      break;  // zero rate forever: flows are stuck
    }
    t = boundary;
  }
  // No completion is ever possible: the schedule ends at rate zero. Drop all
  // flows (their bytes can never arrive) and account them.
  dropped_ += flows_.size();
  for (Flow& flow : flows_) {
    flow.on_complete = nullptr;
  }
  spare_.splice(spare_.end(), flows_);
}

void SharedNic::OnScheduleChanged() {
  // Drain up to now() first: edits are restricted to t >= now(), so the
  // integral over [last_update_, now] still uses the rates that were in force.
  Advance();
  Reschedule();
}

void SharedNic::StartTransfer(double bits, CompleteFn on_complete) {
  assert(bits >= 0.0);
  Advance();
  if (spare_.empty()) {
    spare_.emplace_back();
  }
  flows_.splice(flows_.end(), spare_, spare_.begin());
  flows_.back().remaining_bits = std::max(bits, kEpsilonBits);
  flows_.back().on_complete = std::move(on_complete);
  Reschedule();
}

}  // namespace torsim
