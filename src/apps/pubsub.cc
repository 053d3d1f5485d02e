#include "apps/pubsub.h"

#include <algorithm>
#include <array>

#include "elmo/stream.h"
#include "net/headers.h"

namespace elmo::apps {

PubSubSystem::PubSubSystem(sim::Fabric& fabric, elmo::Controller& controller,
                           std::uint32_t tenant, topo::HostId publisher,
                           std::vector<topo::HostId> subscribers)
    : fabric_{&fabric},
      controller_{&controller},
      publisher_{publisher},
      subscribers_{std::move(subscribers)} {
  std::vector<elmo::Member> members;
  members.push_back(elmo::Member{publisher_, 0, elmo::MemberRole::kSender});
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    members.push_back(elmo::Member{subscribers_[i],
                                   static_cast<std::uint32_t>(i + 1),
                                   elmo::MemberRole::kReceiver});
  }
  group_ = controller_->create_group(tenant, members);
  stream::ControlPlane{*controller_, *fabric_}.sync(std::array{group_});
}

PubSubSystem::~PubSubSystem() {
  controller_->remove_group(group_);
  stream::ControlPlane{*controller_, *fabric_}.sync(std::array{group_});
}

PubSubMetrics PubSubSystem::run(TransportMode mode, std::size_t message_bytes,
                                std::size_t sample_messages,
                                const HostModel& model, double offered_rps) {
  PubSubMetrics metrics;
  metrics.subscribers = subscribers_.size();
  const auto group_addr = controller_->group(group_).address;

  // --- drive real packets through the fabric -------------------------------
  for (std::size_t m = 0; m < sample_messages; ++m) {
    switch (mode) {
      case TransportMode::kElmo: {
        const auto result = fabric_->send(publisher_, group_addr, message_bytes);
        metrics.messages_sent += 1;
        std::size_t reached = 0;
        for (const auto sub : subscribers_) {
          if (result.host_copies.contains(sub)) ++reached;
        }
        metrics.messages_delivered += reached == subscribers_.size() ? 1 : 0;
        break;
      }
      case TransportMode::kUnicast: {
        std::size_t reached = 0;
        for (const auto sub : subscribers_) {
          const auto result =
              fabric_->send_unicast(publisher_, sub, message_bytes);
          ++metrics.messages_sent;
          if (result.host_copies.contains(sub)) ++reached;
        }
        metrics.messages_delivered += reached == subscribers_.size() ? 1 : 0;
        break;
      }
    }
  }

  // --- project rates with the calibrated host model ------------------------
  metrics.copies_per_message =
      mode == TransportMode::kUnicast ? subscribers_.size() : 1;
  const double per_copy_cost = mode == TransportMode::kUnicast
                                   ? model.unicast_copy_cost_sec
                                   : model.multicast_send_cost_sec;
  const double wire_bits =
      static_cast<double>((net::kOuterHeaderBytes + message_bytes) * 8);

  const double copies = static_cast<double>(metrics.copies_per_message);
  const double cpu_bound_rps = 1.0 / (copies * per_copy_cost);
  const double nic_bound_rps = model.nic_bits_per_sec / (copies * wire_bits);
  metrics.throughput_rps =
      std::min({offered_rps, cpu_bound_rps, nic_bound_rps});
  metrics.publisher_cpu_fraction =
      std::min(1.0, metrics.throughput_rps * copies * per_copy_cost);
  metrics.publisher_egress_bps = metrics.throughput_rps * copies * wire_bits;
  return metrics;
}

}  // namespace elmo::apps
