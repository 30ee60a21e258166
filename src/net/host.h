// A simulated host: a named endpoint that can crash and restart.
//
// Hosts model Gifford's file-server and client machines. A host that is down
// receives no messages and loses all volatile state; components that keep
// volatile state (lock tables, in-progress transactions) register crash
// listeners to clear it, and recovery listeners to replay their stable logs
// on restart.

#ifndef WVOTE_SRC_NET_HOST_H_
#define WVOTE_SRC_NET_HOST_H_

#include <functional>
#include <string>
#include <vector>

#include "src/net/message.h"
#include "src/sim/random.h"
#include "src/trace/trace.h"

namespace wvote {

class Network;

class Host {
 public:
  Host(HostId id, std::string name, Rng rng);

  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  bool up() const { return up_; }
  Rng& rng() { return rng_; }

  // Delivered messages are routed to this handler. Only one component (the
  // RPC endpoint) may claim a host's inbox.
  void SetMessageHandler(std::function<void(Message)> handler);

  // Crash: volatile state vanishes, in-flight inbound messages are dropped.
  // Restart: recovery listeners run (replay stable logs) before any new
  // message is delivered.
  void Crash();
  void Restart();

  void AddCrashListener(std::function<void()> fn) { crash_listeners_.push_back(std::move(fn)); }
  void AddRestartListener(std::function<void()> fn) {
    restart_listeners_.push_back(std::move(fn));
  }

  // Monotonic count of times this host has crashed; lets servers detect that
  // a crash happened between two points in a coroutine ("epoch check").
  uint64_t crash_epoch() const { return crash_epoch_; }

 private:
  friend class Network;
  // The network calls this only after checking that the host is up.
  void Deliver(Message msg);
  void SetTraceLog(TraceLog* trace) { trace_ = trace; }

  const HostId id_;
  const std::string name_;
  bool up_ = true;
  uint64_t crash_epoch_ = 0;
  Rng rng_;
  TraceLog* trace_ = nullptr;
  std::function<void(Message)> handler_;
  std::vector<std::function<void()>> crash_listeners_;
  std::vector<std::function<void()>> restart_listeners_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_NET_HOST_H_
