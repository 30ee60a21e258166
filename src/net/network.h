// Simulated point-to-point network.
//
// Models the internetwork of Gifford's prototype: every pair of hosts has a
// (directed) link with a latency distribution and an independent loss
// probability. Partitions split hosts into groups; messages between groups
// are silently dropped, which is exactly the failure mode weighted voting's
// quorum intersection defends against.
//
// Delivery rules:
//   * a message from a down host is not sent;
//   * partition membership and loss are evaluated at send time, destination
//     liveness again at delivery time (a host that crashes mid-flight loses
//     the message);
//   * per-link delivery is FIFO when the latency model is fixed; jittered
//     models may reorder, as real datagram networks do.

#ifndef WVOTE_SRC_NET_NETWORK_H_
#define WVOTE_SRC_NET_NETWORK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/net/host.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/sim/latency.h"
#include "src/sim/simulator.h"
#include "src/trace/span.h"
#include "src/trace/trace.h"

namespace wvote {

struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t dropped_source_down = 0;
  uint64_t dropped_dest_down = 0;
  uint64_t dropped_partition = 0;
  uint64_t dropped_loss = 0;
  uint64_t duplicated = 0;    // messages delivered twice by a duplicating link
  uint64_t delay_spikes = 0;  // deliveries that drew a latency spike
  uint64_t gray_deliveries = 0;  // deliveries stretched by a gray multiplier
  uint64_t bytes_sent = 0;

  void Reset() { *this = NetworkStats{}; }
  // Registers every field as `net.network.*{labels}`; this struct must
  // outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

// Per-link fault knobs beyond the latency model. Datagram networks drop,
// duplicate, and delay; weighted voting must survive all three. A duplicate
// is a second, independently delayed delivery of the same message (the RPC
// layer must be idempotent against it); a delay spike adds a fixed penalty
// to a delivery with the given probability (models bufferbloat / GC pauses
// without touching the base latency model).
struct LinkKnobs {
  double loss_probability = 0.0;
  double dup_probability = 0.0;
  double delay_spike_probability = 0.0;
  Duration delay_spike = Duration::Millis(50);
};

class Network {
 public:
  explicit Network(Simulator* sim);

  // Adds a host; latency of links to/from it defaults to default_link_.
  Host* AddHost(const std::string& name);

  Host* host(HostId id);
  const Host* host(HostId id) const;
  Host* FindHost(const std::string& name);
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Simulator* sim() { return sim_; }

  // Link configuration. Directed overrides take precedence over the default.
  void SetDefaultLink(LatencyModel latency, double loss_probability = 0.0);
  void SetLink(HostId from, HostId to, LatencyModel latency, double loss_probability = 0.0);
  // Convenience: configures both directions.
  void SetSymmetricLink(HostId a, HostId b, LatencyModel latency, double loss_probability = 0.0);

  // Full-knob overloads: latency plus loss/duplication/delay-spike behavior.
  void SetDefaultLink(LatencyModel latency, LinkKnobs knobs);
  void SetLink(HostId from, HostId to, LatencyModel latency, LinkKnobs knobs);
  void SetSymmetricLink(HostId a, HostId b, LatencyModel latency, LinkKnobs knobs);
  // Swaps the fault knobs on every link (default and overrides) while
  // preserving each link's latency model; how the chaos nemesis flips
  // network weather mid-run without knowing the topology.
  void SetAllLinkKnobs(LinkKnobs knobs);

  // Gray faults: a slow-but-alive host. The inbound multiplier stretches the
  // delivery latency of every message TOWARD `host` (a degraded NIC or an
  // overloaded service that is slow to accept work); the outbound multiplier
  // stretches every message FROM it (the asymmetric case — the host hears
  // requests fine but its answers crawl back). 1.0 clears. Scaling a sampled
  // delay consumes no extra randomness, so a run with every multiplier at
  // 1.0 is schedule-identical to one where the knobs don't exist. Loopback
  // stays exempt, like every other wire fault.
  void SetHostGrayInbound(HostId host, double multiplier);
  void SetHostGrayOutbound(HostId host, double multiplier);
  // Combined stretch a message from->to would suffer right now.
  double GrayMultiplier(HostId from, HostId to) const;

  // Latency a sender would pay to reach `to` in expectation; used by quorum
  // selection to rank representatives by access cost. Deliberately blind to
  // gray multipliers: plans keep ranking by the provisioned topology, and
  // routing around a gray host is the HealthTracker's job, not the
  // planner's.
  Duration ExpectedLatency(HostId from, HostId to) const;

  // Partitions. Each group is a set of host ids; hosts absent from every
  // group form one implicit extra group. Messages cross groups only after
  // HealPartition().
  void Partition(const std::vector<std::vector<HostId>>& groups);
  void HealPartition();
  bool Reachable(HostId from, HostId to) const;

  // Fire-and-forget datagram send. Routing/delivery failures are silent, as
  // on a real network; reliability is the RPC layer's job.
  void Send(HostId from, HostId to, std::any payload, size_t approx_bytes = 128);

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this network's counters (unlabeled: one network per sim).
  void RegisterMetrics(MetricsRegistry* registry);

  // Optional protocol tracing; events from hosts and higher layers flow
  // into the same log. The log must outlive the network.
  void SetTraceLog(TraceLog* trace);
  TraceLog* trace() { return trace_; }

  // Optional causal span tracer, shared the same way the TraceLog is: the
  // RPC layer and storage/txn components reach it through the network they
  // already hold. Null (the default) keeps every tracing call a no-op.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() { return tracer_; }

 private:
  struct Link {
    LatencyModel latency;
    LinkKnobs knobs;
  };

  // Messages bound for the same host at the same instant, delivered by one
  // simulator event. Batches are pooled so steady-state delivery reuses
  // their vector capacity instead of allocating per message.
  struct DeliveryBatch {
    std::vector<Message> msgs;
  };

  const Link& LinkFor(HostId from, HostId to) const;
  void ScheduleDelivery(Host* dst, Message msg, Duration delay);
  DeliveryBatch* AcquireBatch();
  void RecycleBatch(DeliveryBatch* batch);

  Simulator* sim_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::map<std::string, HostId> host_index_;  // name -> id, built by AddHost
  Link default_link_;
  std::map<std::pair<HostId, HostId>, Link> link_overrides_;
  std::map<HostId, double> gray_inbound_;   // absent == 1.0
  std::map<HostId, double> gray_outbound_;  // absent == 1.0
  std::vector<int> partition_group_;  // empty: fully connected
  TraceLog* trace_ = nullptr;
  Tracer* tracer_ = nullptr;
  NetworkStats stats_;

  // The most recently scheduled, not-yet-fired delivery batch. A new
  // delivery may join it only if it targets the same host at the same
  // timestamp AND the simulator has issued no event seq since the batch's
  // own event — the folded delivery is then indistinguishable from the
  // event it would have been, so coalescing cannot reorder anything.
  std::vector<std::unique_ptr<DeliveryBatch>> batch_pool_;
  std::vector<DeliveryBatch*> free_batches_;
  DeliveryBatch* open_batch_ = nullptr;
  HostId open_batch_dst_ = kInvalidHost;
  TimePoint open_batch_at_;
  uint64_t open_batch_next_seq_ = 0;
};

}  // namespace wvote

#endif  // WVOTE_SRC_NET_NETWORK_H_
