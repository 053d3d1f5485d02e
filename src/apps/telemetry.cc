#include "apps/telemetry.h"

#include <array>

#include "elmo/stream.h"

namespace elmo::apps {

TelemetrySystem::TelemetrySystem(sim::Fabric& fabric,
                                 elmo::Controller& controller,
                                 std::uint32_t tenant, topo::HostId agent,
                                 std::vector<topo::HostId> collectors)
    : fabric_{&fabric},
      controller_{&controller},
      agent_{agent},
      collectors_{std::move(collectors)} {
  std::vector<elmo::Member> members;
  members.push_back(elmo::Member{agent_, 0, elmo::MemberRole::kSender});
  for (std::size_t i = 0; i < collectors_.size(); ++i) {
    members.push_back(elmo::Member{collectors_[i],
                                   static_cast<std::uint32_t>(i + 1),
                                   elmo::MemberRole::kReceiver});
  }
  group_ = controller_->create_group(tenant, members);
  stream::ControlPlane{*controller_, *fabric_}.sync(std::array{group_});
}

TelemetrySystem::~TelemetrySystem() {
  controller_->remove_group(group_);
  stream::ControlPlane{*controller_, *fabric_}.sync(std::array{group_});
}

TelemetryMetrics TelemetrySystem::run(bool use_elmo,
                                      const TelemetryConfig& config,
                                      std::size_t sample_count) {
  TelemetryMetrics metrics;
  metrics.collectors = collectors_.size();
  const auto group_addr = controller_->group(group_).address;
  fabric_->reset_link_stats();  // measure only this run's uplink bytes

  std::uint64_t agent_uplink_bytes = 0;
  for (std::size_t s = 0; s < sample_count; ++s) {
    if (use_elmo) {
      const auto result =
          fabric_->send(agent_, group_addr, config.sample_bytes);
      // One copy leaves the agent regardless of collector count; its size is
      // outer headers + Elmo header + payload.
      const sim::NodeRef agent_node{topo::Layer::kHost, agent_};
      const sim::NodeRef leaf_node{topo::Layer::kLeaf,
                                   fabric_->topology().leaf_of_host(agent_)};
      agent_uplink_bytes = fabric_->links().at({agent_node, leaf_node}).bytes;
      for (const auto collector : collectors_) {
        if (result.host_copies.contains(collector)) {
          ++metrics.datagrams_delivered;
        }
      }
    } else {
      for (const auto collector : collectors_) {
        const auto result =
            fabric_->send_unicast(agent_, collector, config.sample_bytes);
        if (result.host_copies.contains(collector)) {
          ++metrics.datagrams_delivered;
        }
      }
      const sim::NodeRef agent_node{topo::Layer::kHost, agent_};
      const sim::NodeRef leaf_node{topo::Layer::kLeaf,
                                   fabric_->topology().leaf_of_host(agent_)};
      agent_uplink_bytes = fabric_->links().at({agent_node, leaf_node}).bytes;
    }
  }

  if (sample_count > 0) {
    const double bytes_per_sample =
        static_cast<double>(agent_uplink_bytes) /
        static_cast<double>(sample_count);
    metrics.agent_egress_bps =
        bytes_per_sample * 8.0 * config.samples_per_second;
  }
  metrics.per_collector_ingress_bps =
      static_cast<double>(net::kOuterHeaderBytes + config.sample_bytes) * 8.0 *
      config.samples_per_second;
  return metrics;
}

}  // namespace elmo::apps
