// Layer drivers: small loops that call one layer's public function
// directly and measure what one unit of that layer costs the host.
//
//   sim      Simulator::ScheduleAt + RunUntil             per event
//   net      Network::Send with delivery                  per message
//   rpc      RpcEndpoint::Call against an echo handler    per call
//   storage  StableStore::Write of the workload's file size  per write
//   lock     LockManager::Acquire + ReleaseAll            per acquire
//
// Each driver reports its self cost: a nested driver subtracts the layer
// below it (its sim events, and for rpc also its network messages) using
// the counts it caused and the lower drivers' self costs, so layers are not
// counted twice. Each figure is the median of several repetitions.

#ifndef WVBENCH_DRIVERS_H_
#define WVBENCH_DRIVERS_H_

#include <cstddef>

#include "host_spans.h"

namespace wvbench {

struct LayerCosts {
  double sim_ns_per_event = 0;
  double sim_allocs_per_event = 0;
  double net_ns_per_msg = 0;
  double net_allocs_per_msg = 0;
  double rpc_ns_per_call = 0;
  double rpc_allocs_per_call = 0;
  double storage_ns_per_write = 0;
  double lock_ns_per_acquire = 0;
};

// Runs every driver, recording one host-time span per driver under
// `parent` in `spans`. Storage writes pages of `page_bytes` (the stable
// store checksums every page, so its cost grows with the page).
LayerCosts MeasureLayerCosts(size_t page_bytes, HostSpans* spans, int parent);

}  // namespace wvbench

#endif  // WVBENCH_DRIVERS_H_
