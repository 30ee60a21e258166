// Wire message for the simulated network.
//
// Payloads are std::any: the RPC layer (src/rpc) is the only producer and
// consumer in the protocol stack and unpacks them into typed request/response
// structs. A message carries only what a receiver reads: the sender and the
// payload. Wire sizes are counted in NetworkStats when the message is sent.
//
// A duplicating link delivers a copy of the Message, so the payload's own
// copy constructor decides what two deliveries share. An RPC payload is a
// counted reference to one envelope, so its copy shares the body.

#ifndef WVOTE_SRC_NET_MESSAGE_H_
#define WVOTE_SRC_NET_MESSAGE_H_

#include <any>
#include <cstdint>

namespace wvote {

// Dense host identifier assigned by Network::AddHost in creation order.
using HostId = int32_t;
inline constexpr HostId kInvalidHost = -1;

struct Message {
  HostId from = kInvalidHost;
  std::any payload;
};

}  // namespace wvote

#endif  // WVOTE_SRC_NET_MESSAGE_H_
