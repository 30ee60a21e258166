#include "src/net/host.h"

#include <utility>

#include "src/common/check.h"

namespace wvote {

Host::Host(HostId id, std::string name, Rng rng)
    : id_(id), name_(std::move(name)), rng_(rng) {}

void Host::SetMessageHandler(std::function<void(Message)> handler) {
  WVOTE_CHECK_MSG(!handler_, "host inbox already claimed");
  handler_ = std::move(handler);
}

void Host::Crash() {
  if (!up_) {
    return;
  }
  up_ = false;
  ++crash_epoch_;
  if (trace_ != nullptr) {
    trace_->Record(id_, TraceKind::kHostCrashed, name_);
  }
  for (const auto& fn : crash_listeners_) {
    fn();
  }
}

void Host::Restart() {
  if (up_) {
    return;
  }
  up_ = true;
  if (trace_ != nullptr) {
    trace_->Record(id_, TraceKind::kHostRestarted, name_);
  }
  for (const auto& fn : restart_listeners_) {
    fn();
  }
}

void Host::Deliver(Message msg) {
  if (!handler_) {
    return;
  }
  handler_(std::move(msg));
}

}  // namespace wvote
