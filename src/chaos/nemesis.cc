#include "src/chaos/nemesis.h"

#include <memory>
#include <vector>

namespace wvote {

void ArmPhaseCrash(Simulator* sim, TraceLog* trace, Host* host, TraceKind kind,
                   Duration downtime, FaultInjectorStats* stats) {
  // shared_ptr guard: the observer outlives this frame and must both fire
  // at most once and tolerate re-entrant Record calls (Crash() itself
  // records kHostCrashed, which re-enters the observer list).
  auto fired = std::make_shared<bool>(false);
  trace->AddObserver([sim, host, kind, downtime, stats, fired](const TraceEvent& ev) {
    if (*fired || ev.kind != kind || ev.host != host->id()) {
      return;
    }
    if (!host->up()) {
      return;  // already down; the phase window will recur after restart
    }
    *fired = true;
    host->Crash();
    if (stats != nullptr) {
      ++stats->crashes;
      ++stats->phase_crashes;
      stats->total_downtime += downtime;
    }
    if (downtime > Duration::Zero()) {
      sim->Schedule(downtime, [host]() {
        if (!host->up()) {
          host->Restart();
        }
      });
    }
  });
}

void Nemesis::Deploy() {
  for (const FaultEvent& ev : schedule_.events) {
    cluster_->sim().Schedule(ev.at, [this, ev]() { Apply(ev); });
  }
}

void Nemesis::Apply(const FaultEvent& ev) {
  Network& net = cluster_->net();
  switch (ev.action) {
    case FaultAction::kCrashRestart: {
      Host* host = net.FindHost(ev.host);
      if (host == nullptr) {
        ++events_skipped_;
        return;
      }
      if (host->up()) {
        host->Crash();
        ++stats_.crashes;
        stats_.total_downtime += ev.duration;
      }
      Host* target = host;
      cluster_->sim().Schedule(ev.duration, [target]() {
        if (!target->up()) {
          target->Restart();
        }
      });
      break;
    }
    case FaultAction::kCrashOnTrace: {
      Host* host = net.FindHost(ev.host);
      if (host == nullptr) {
        ++events_skipped_;
        return;
      }
      ArmPhaseCrash(&cluster_->sim(), &cluster_->trace(), host, ev.trace_kind, ev.duration,
                    &stats_);
      break;
    }
    case FaultAction::kPartition: {
      std::vector<std::vector<HostId>> groups;
      for (const std::vector<std::string>& named : ev.groups) {
        std::vector<HostId> group;
        for (const std::string& name : named) {
          Host* host = net.FindHost(name);
          if (host != nullptr) {
            group.push_back(host->id());
          }
        }
        groups.push_back(std::move(group));
      }
      net.Partition(groups);
      break;
    }
    case FaultAction::kHeal:
      net.HealPartition();
      break;
    case FaultAction::kLinkKnobs: {
      LinkKnobs knobs;
      knobs.loss_probability = ev.p1;
      knobs.dup_probability = ev.p2;
      knobs.delay_spike_probability = ev.p3;
      knobs.delay_spike = ev.spike;
      net.SetAllLinkKnobs(knobs);
      break;
    }
    case FaultAction::kStoreFaults: {
      RepresentativeServer* rep = cluster_->representative(ev.host);
      if (rep == nullptr) {
        ++events_skipped_;
        return;
      }
      // Preserve a pending one-shot tear; this event only moves the
      // probabilistic write-failure knob.
      StoreFaults faults = rep->store().faults();
      faults.write_fail_probability = ev.p1;
      rep->store().SetFaults(faults);
      break;
    }
    case FaultAction::kStoreTearNextFlush: {
      RepresentativeServer* rep = cluster_->representative(ev.host);
      if (rep == nullptr) {
        ++events_skipped_;
        return;
      }
      StoreFaults faults = rep->store().faults();
      faults.tear_next_flush = true;
      rep->store().SetFaults(faults);
      break;
    }
    case FaultAction::kGrayHost: {
      Host* host = net.FindHost(ev.host);
      if (host == nullptr) {
        ++events_skipped_;
        return;
      }
      // p1 <= 1 (including the parse default 0) heals the host.
      const double mult = ev.p1 > 1.0 ? ev.p1 : 1.0;
      net.SetHostGrayInbound(host->id(), mult);
      net.SetHostGrayOutbound(host->id(), mult);
      break;
    }
    case FaultAction::kGrayLink: {
      Host* host = net.FindHost(ev.host);
      if (host == nullptr) {
        ++events_skipped_;
        return;
      }
      // Asymmetric: only traffic LEAVING the victim slows down (replies
      // crawl, requests arrive on time) — the classic half-duplex gray NIC.
      net.SetHostGrayOutbound(host->id(), ev.p1 > 1.0 ? ev.p1 : 1.0);
      break;
    }
    case FaultAction::kGrayDisk: {
      RepresentativeServer* rep = cluster_->representative(ev.host);
      if (rep == nullptr) {
        ++events_skipped_;
        return;
      }
      // Preserve pending write-failure / tear faults; only the latency
      // multiplier moves.
      StoreFaults faults = rep->store().faults();
      faults.latency_multiplier = ev.p1 > 1.0 ? ev.p1 : 1.0;
      rep->store().SetFaults(faults);
      break;
    }
  }
  ++events_applied_;
}

}  // namespace wvote
