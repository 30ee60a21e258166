#include "src/net/network.h"

#include <utility>

#include "src/common/check.h"

namespace wvote {

Network::Network(Simulator* sim) : sim_(sim) {
  default_link_.latency = LatencyModel::Fixed(Duration::Millis(1));
}

void NetworkStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("net.network.messages_sent", labels, &messages_sent);
  registry->RegisterCounter("net.network.messages_delivered", labels, &messages_delivered);
  registry->RegisterCounter("net.network.dropped_source_down", labels, &dropped_source_down);
  registry->RegisterCounter("net.network.dropped_dest_down", labels, &dropped_dest_down);
  registry->RegisterCounter("net.network.dropped_partition", labels, &dropped_partition);
  registry->RegisterCounter("net.network.dropped_loss", labels, &dropped_loss);
  registry->RegisterCounter("net.network.duplicated", labels, &duplicated);
  registry->RegisterCounter("net.network.delay_spikes", labels, &delay_spikes);
  registry->RegisterCounter("net.network.gray_deliveries", labels, &gray_deliveries);
  registry->RegisterCounter("net.network.bytes_sent", labels, &bytes_sent);
  registry->AddResetHook([this]() { Reset(); });
}

void Network::RegisterMetrics(MetricsRegistry* registry) {
  stats_.RegisterWith(registry);
  registry->RegisterGauge("net.network.num_hosts", {},
                          [this]() { return static_cast<double>(hosts_.size()); });
}

Host* Network::AddHost(const std::string& name) {
  const HostId id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(id, name, sim_->rng().Fork()));
  hosts_.back()->SetTraceLog(trace_);
  // First registration wins, matching what a linear scan would find.
  host_index_.emplace(name, id);
  return hosts_.back().get();
}

void Network::SetTraceLog(TraceLog* trace) {
  trace_ = trace;
  for (auto& host : hosts_) {
    host->SetTraceLog(trace);
  }
}

Host* Network::host(HostId id) {
  WVOTE_CHECK(id >= 0 && id < num_hosts());
  return hosts_[static_cast<size_t>(id)].get();
}

const Host* Network::host(HostId id) const {
  WVOTE_CHECK(id >= 0 && id < num_hosts());
  return hosts_[static_cast<size_t>(id)].get();
}

Host* Network::FindHost(const std::string& name) {
  auto it = host_index_.find(name);
  return it == host_index_.end() ? nullptr : hosts_[static_cast<size_t>(it->second)].get();
}

void Network::SetDefaultLink(LatencyModel latency, double loss_probability) {
  LinkKnobs knobs;
  knobs.loss_probability = loss_probability;
  SetDefaultLink(latency, knobs);
}

void Network::SetLink(HostId from, HostId to, LatencyModel latency, double loss_probability) {
  LinkKnobs knobs;
  knobs.loss_probability = loss_probability;
  SetLink(from, to, latency, knobs);
}

void Network::SetSymmetricLink(HostId a, HostId b, LatencyModel latency,
                               double loss_probability) {
  SetLink(a, b, latency, loss_probability);
  SetLink(b, a, latency, loss_probability);
}

void Network::SetDefaultLink(LatencyModel latency, LinkKnobs knobs) {
  default_link_ = Link{latency, knobs};
}

void Network::SetLink(HostId from, HostId to, LatencyModel latency, LinkKnobs knobs) {
  link_overrides_[{from, to}] = Link{latency, knobs};
}

void Network::SetSymmetricLink(HostId a, HostId b, LatencyModel latency, LinkKnobs knobs) {
  SetLink(a, b, latency, knobs);
  SetLink(b, a, latency, knobs);
}

void Network::SetAllLinkKnobs(LinkKnobs knobs) {
  default_link_.knobs = knobs;
  for (auto& [pair, link] : link_overrides_) {
    link.knobs = knobs;
  }
}

void Network::SetHostGrayInbound(HostId host, double multiplier) {
  WVOTE_CHECK(multiplier > 0.0);
  if (multiplier == 1.0) {
    gray_inbound_.erase(host);
  } else {
    gray_inbound_[host] = multiplier;
  }
}

void Network::SetHostGrayOutbound(HostId host, double multiplier) {
  WVOTE_CHECK(multiplier > 0.0);
  if (multiplier == 1.0) {
    gray_outbound_.erase(host);
  } else {
    gray_outbound_[host] = multiplier;
  }
}

double Network::GrayMultiplier(HostId from, HostId to) const {
  double mult = 1.0;
  auto out = gray_outbound_.find(from);
  if (out != gray_outbound_.end()) {
    mult *= out->second;
  }
  auto in = gray_inbound_.find(to);
  if (in != gray_inbound_.end()) {
    mult *= in->second;
  }
  return mult;
}

const Network::Link& Network::LinkFor(HostId from, HostId to) const {
  auto it = link_overrides_.find({from, to});
  return it != link_overrides_.end() ? it->second : default_link_;
}

Duration Network::ExpectedLatency(HostId from, HostId to) const {
  if (from == to) {
    return Duration::Zero();
  }
  return LinkFor(from, to).latency.Mean();
}

void Network::Partition(const std::vector<std::vector<HostId>>& groups) {
  partition_group_.assign(hosts_.size(), 0);
  // Hosts not named in any group share implicit group 0; named groups are
  // numbered from 1.
  int group_no = 1;
  for (const auto& group : groups) {
    for (HostId id : group) {
      WVOTE_CHECK(id >= 0 && id < num_hosts());
      partition_group_[static_cast<size_t>(id)] = group_no;
    }
    ++group_no;
  }
}

void Network::HealPartition() { partition_group_.clear(); }

bool Network::Reachable(HostId from, HostId to) const {
  if (partition_group_.empty() || from == to) {
    return true;
  }
  return partition_group_[static_cast<size_t>(from)] ==
         partition_group_[static_cast<size_t>(to)];
}

void Network::Send(HostId from, HostId to, std::any payload, size_t approx_bytes) {
  Host* src = host(from);
  Host* dst = host(to);
  ++stats_.messages_sent;
  stats_.bytes_sent += approx_bytes;

  if (!src->up()) {
    ++stats_.dropped_source_down;
    if (trace_ != nullptr) {
      trace_->Record(from, TraceKind::kMessageDropped, "source down");
    }
    return;
  }
  if (!Reachable(from, to)) {
    ++stats_.dropped_partition;
    if (trace_ != nullptr) {
      trace_->Record(from, TraceKind::kMessageDropped,
                     "partitioned from " + host(to)->name());
    }
    return;
  }
  const Link& link = LinkFor(from, to);
  if (link.knobs.loss_probability > 0.0 &&
      sim_->rng().NextBernoulli(link.knobs.loss_probability)) {
    ++stats_.dropped_loss;
    if (trace_ != nullptr) {
      trace_->Record(from, TraceKind::kMessageDropped, "loss");
    }
    return;
  }

  Message msg;
  msg.from = from;
  msg.payload = std::move(payload);

  if (from == to) {
    // Loopback: no wire, no wire faults.
    ScheduleDelivery(dst, std::move(msg), Duration::Zero());
    return;
  }

  // The gray stretch applies to the full wire delay (base sample + spike):
  // a degraded host is slow on everything, and stretching after the draws
  // keeps the rng stream identical to the healthy run.
  const double gray = GrayMultiplier(from, to);
  Duration delay = link.latency.Sample(sim_->rng());
  const LinkKnobs& knobs = link.knobs;
  if (knobs.delay_spike_probability > 0.0 &&
      sim_->rng().NextBernoulli(knobs.delay_spike_probability)) {
    ++stats_.delay_spikes;
    delay += knobs.delay_spike;
  }
  if (knobs.dup_probability > 0.0 && sim_->rng().NextBernoulli(knobs.dup_probability)) {
    // Deliver a second copy with its own latency sample; the copies race
    // and may reorder, exactly as duplicated datagrams do. Copying an RPC
    // payload only counts one more reference to its envelope, so the two
    // deliveries share one body; any other payload is copied here.
    ++stats_.duplicated;
    Message copy = msg;
    Duration dup_delay = link.latency.Sample(sim_->rng());
    if (gray != 1.0) {
      dup_delay = Duration::Micros(
          static_cast<int64_t>(static_cast<double>(dup_delay.ToMicros()) * gray));
    }
    ScheduleDelivery(dst, std::move(copy), dup_delay);
  }
  if (gray != 1.0) {
    ++stats_.gray_deliveries;
    delay = Duration::Micros(
        static_cast<int64_t>(static_cast<double>(delay.ToMicros()) * gray));
  }
  ScheduleDelivery(dst, std::move(msg), delay);
}

Network::DeliveryBatch* Network::AcquireBatch() {
  if (free_batches_.empty()) {
    batch_pool_.push_back(std::make_unique<DeliveryBatch>());
    return batch_pool_.back().get();
  }
  DeliveryBatch* batch = free_batches_.back();
  free_batches_.pop_back();
  return batch;
}

void Network::RecycleBatch(DeliveryBatch* batch) {
  // Releases the payloads of messages dropped at a crashed destination now,
  // not when the batch is next reused: a duplicate's surviving copy then
  // holds the last reference to a shared RPC body and takes it by move.
  batch->msgs.clear();  // keeps capacity
  free_batches_.push_back(batch);
}

void Network::ScheduleDelivery(Host* dst, Message msg, Duration delay) {
  const TimePoint at = sim_->Now() + delay;
  if (open_batch_ != nullptr && open_batch_dst_ == dst->id() && open_batch_at_ == at &&
      sim_->next_seq() == open_batch_next_seq_) {
    // Nothing has been scheduled since the open batch's event was created,
    // so this delivery's event would carry the very next seq and fire
    // immediately after the batch at the same timestamp. Folding it into
    // the batch is therefore indistinguishable from scheduling it.
    open_batch_->msgs.push_back(std::move(msg));
    sim_->NoteCoalesced();
    return;
  }
  DeliveryBatch* batch = AcquireBatch();
  batch->msgs.push_back(std::move(msg));
  sim_->Schedule(delay, [this, dst, batch]() {
    if (open_batch_ == batch) {
      open_batch_ = nullptr;  // firing now; nothing may join anymore
    }
    for (Message& m : batch->msgs) {
      // Liveness is rechecked per message: handling an earlier message in
      // this batch may crash the host, which must drop the rest exactly as
      // it would have dropped their individual delivery events.
      if (!dst->up()) {
        ++stats_.dropped_dest_down;
        if (trace_ != nullptr) {
          trace_->Record(dst->id(), TraceKind::kMessageDropped, "destination down");
        }
        continue;
      }
      ++stats_.messages_delivered;
      dst->Deliver(std::move(m));
    }
    RecycleBatch(batch);
  });
  open_batch_ = batch;
  open_batch_dst_ = dst->id();
  open_batch_at_ = at;
  open_batch_next_seq_ = sim_->next_seq();
}

}  // namespace wvote
