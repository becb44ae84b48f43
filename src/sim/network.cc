#include "src/sim/network.h"

#include <cassert>
#include <utility>

namespace torsim {

Network::Network(Simulator* sim, const NetworkConfig& config) : sim_(sim), config_(config) {
  assert(config.node_count > 0);
  nodes_.reserve(config.node_count);
  for (uint32_t i = 0; i < config.node_count; ++i) {
    nodes_.push_back(std::make_unique<NodeState>(sim, config.default_bandwidth_bps));
  }
  latencies_.assign(static_cast<size_t>(config.node_count) * config.node_count,
                    config.default_latency);
  for (uint32_t i = 0; i < config.node_count; ++i) {
    latencies_[static_cast<size_t>(i) * config.node_count + i] = 0;
  }
}

void Network::SetLatency(NodeId a, NodeId b, Duration latency) {
  latencies_[static_cast<size_t>(a) * node_count() + b] = latency;
}

void Network::SetSymmetricLatency(NodeId a, NodeId b, Duration latency) {
  SetLatency(a, b, latency);
  SetLatency(b, a, latency);
}

Duration Network::latency(NodeId a, NodeId b) const {
  return latencies_[static_cast<size_t>(a) * node_count() + b];
}

void Network::LimitNode(NodeId node, TimePoint from, TimePoint to, double bits_per_sec) {
  assert(node < node_count());
  assert(from >= sim_->now() && "cannot clamp instants the NICs already integrated over");
  NodeState& state = *nodes_[node];
  state.egress.schedule().LimitDuring(from, to, bits_per_sec);
  state.ingress.schedule().LimitDuring(from, to, bits_per_sec);
  state.egress.OnScheduleChanged();
  state.ingress.OnScheduleChanged();
}

void Network::SetNodeRateFrom(NodeId node, TimePoint from, double bits_per_sec) {
  assert(node < node_count());
  assert(from >= sim_->now() && "cannot edit instants the NICs already integrated over");
  NodeState& state = *nodes_[node];
  state.egress.schedule().SetRateFrom(from, bits_per_sec);
  state.ingress.schedule().SetRateFrom(from, bits_per_sec);
  state.egress.OnScheduleChanged();
  state.ingress.OnScheduleChanged();
}

void Network::SetHandler(NodeId node, DeliverFn handler) {
  nodes_[node]->handler = std::move(handler);
}

void Network::Send(NodeId from, NodeId to, const std::string& kind, Message message) {
  SendShared(from, to, kind, std::make_shared<const Message>(std::move(message)));
}

void Network::Broadcast(NodeId from, const std::string& kind, Message message) {
  auto shared = std::make_shared<const Message>(std::move(message));
  for (NodeId peer = 0; peer < node_count(); ++peer) {
    if (peer != from) {
      SendShared(from, peer, kind, shared);
    }
  }
}

std::span<const torcrypto::Body> Network::delivery_bodies() const {
  if (delivering_ == nullptr) {
    return {};
  }
  return delivering_->bodies;
}

void Network::Deliver(NodeId from, NodeId to, const Message& message) {
  NodeState& receiver = *nodes_[to];
  if (receiver.handler) {
    // Deliveries never nest (every one goes through the event queue), so
    // a single slot suffices.
    assert(delivering_ == nullptr);
    delivering_ = &message;
    receiver.handler(from, message.header);
    delivering_ = nullptr;
  }
}

void Network::SendShared(NodeId from, NodeId to, const std::string& kind,
                         std::shared_ptr<const Message> message) {
  assert(from < node_count() && to < node_count());
  const uint64_t wire_bytes = message->size() + config_.per_message_overhead_bytes;

  NodeState& sender = *nodes_[from];
  sender.counters.messages_sent += 1;
  sender.counters.bytes_sent += wire_bytes;
  bytes_by_kind_[kind] += wire_bytes;

  if (from == to) {
    // Local delivery: skip the NIC model entirely but still go through the
    // event queue so handlers never reenter.
    sim_->ScheduleAfter(0, [this, from, to, message = std::move(message)]() {
      nodes_[to]->counters.messages_received += 1;
      Deliver(from, to, *message);
    });
    return;
  }

  const double bits = static_cast<double>(wire_bytes) * 8.0;
  const Duration hop_latency = latency(from, to);

  // Stage 1: egress. On completion, propagate, then stage 2: ingress, then
  // deliver. The shared message rides along the chain of callbacks as one
  // pointer; captures are flattened per stage (rather than nesting the
  // previous closure) so every stage fits its callback's inline buffer.
  sender.egress.StartTransfer(
      bits,
      [this, from, to, bits, wire_bytes, hop_latency, message = std::move(message)]() mutable {
        sim_->ScheduleAfter(
            hop_latency,
            [this, from, to, bits, wire_bytes, message = std::move(message)]() mutable {
              nodes_[to]->ingress.StartTransfer(
                  bits, [this, from, to, wire_bytes, message = std::move(message)]() {
                    TrafficCounters& counters = nodes_[to]->counters;
                    counters.messages_received += 1;
                    counters.bytes_received += wire_bytes;
                    Deliver(from, to, *message);
                  });
            });
      });
}

uint64_t Network::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->counters.bytes_sent;
  }
  return total;
}

uint64_t Network::undeliverable_count() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->egress.dropped_count() + node->ingress.dropped_count();
  }
  return total;
}

void Network::ResetCounters() {
  for (auto& node : nodes_) {
    node->counters = TrafficCounters{};
  }
  bytes_by_kind_.clear();
}

}  // namespace torsim
