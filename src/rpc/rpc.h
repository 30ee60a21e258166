// Typed request/response RPC over the simulated network.
//
// One RpcEndpoint claims a host's inbox. Services register a coroutine
// handler per request type (dispatch is by the body type each message's
// envelope records); clients issue Call<Req, Resp>() and await a
// Result<Resp> that resolves to the response or to a TIMEOUT / ABORTED
// status.
//
// Wire format: a message's std::any payload holds an EnvelopeRef, an 8-byte
// reference-counted pointer (small enough for std::any's inline buffer) to
// one block holding the header (request/reply, call id, trace context, body
// type) and the typed body. Blocks come from FramePool's size classes, like
// coroutine frames, so a steady stream of calls allocates no envelopes.
// The envelope's count is the only thing that shares a duplicated datagram:
// a duplicating link copies the message, which copies the EnvelopeRef, so
// both deliveries reference one block. A receiver moves the body out only
// when it holds the last reference and copies it otherwise, so both
// deliveries see an intact body (and a copy whose sibling was dropped at a
// crashed host takes it by move), and the block returns to the pool when
// the last reference drops.
//
// Failure semantics mirror a datagram network with volatile servers:
//   * lost request or lost reply -> client timeout;
//   * server crash mid-handler  -> no reply is sent -> client timeout;
//   * client crash              -> all outstanding calls resolve ABORTED
//     (their sessions are being torn down anyway).
//
// CallWithRetry layers bounded retransmission on top for idempotent
// requests (version-number inquiries and other reads).

#ifndef WVOTE_SRC_RPC_RPC_H_
#define WVOTE_SRC_RPC_RPC_H_

#include <algorithm>
#include <any>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/status.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace wvote {

// Per-peer health hook the endpoint feeds. The concrete implementation
// (core's HealthTracker) lives above this layer; the abstract interface
// keeps src/rpc free of a dependency on src/core. It must be pure
// bookkeeping on the simulated clock: no scheduling, no randomness — health
// recording runs on every call completion, including in runs whose event
// schedules are pinned bit-exact.
class PeerHealth {
 public:
  virtual ~PeerHealth() = default;

  // One completed call attempt against `peer`: the elapsed wait and whether
  // a reply arrived (transport-level — a reply carrying an application error
  // still proves the peer alive). Aborts from the caller's own crash are
  // never reported; they say nothing about the peer.
  virtual void OnRpcOutcome(HostId peer, Duration elapsed, bool ok) = 0;
};

// Wire-size attribution: messages that carry bulk data (file contents)
// implement ApproxBytes(); everything else is accounted a small constant.
template <typename T>
size_t ApproxWireSize(const T& value) {
  if constexpr (requires { value.ApproxBytes(); }) {
    return value.ApproxBytes();
  } else {
    return 64;
  }
}

// Span naming: request structs that declare `static constexpr const char*
// kRpcName` get "rpc.<Name>" / "handle.<Name>" spans; the rest fall back to
// a generic label.
template <typename T>
constexpr const char* RpcMethodName() {
  if constexpr (requires { T::kRpcName; }) {
    return T::kRpcName;
  } else {
    return "request";
  }
}

// Starts a child span for one side of an RPC, allocating the name only when
// the span will actually be recorded (disabled tracing stays one branch).
inline TraceContext StartRpcSpan(Tracer* tracer, const TraceContext& parent,
                                 HostId host, const char* prefix, const char* method) {
  if (tracer == nullptr || !tracer->enabled() || !parent.valid()) {
    return TraceContext();
  }
  return tracer->StartChild(parent, host, std::string(prefix) + method);
}

struct RpcStats {
  uint64_t calls_started = 0;
  uint64_t calls_ok = 0;
  uint64_t calls_timeout = 0;
  uint64_t calls_aborted = 0;
  uint64_t requests_handled = 0;
  uint64_t hedges_sent = 0;  // backup probes actually fired by CallHedged
  uint64_t hedge_wins = 0;   // hedged calls the backup's reply resolved

  void Reset() { *this = RpcStats{}; }
  // Registers every field as `rpc.endpoint.*{labels}`; this struct must
  // outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {}) {
    registry->RegisterCounter("rpc.endpoint.calls_started", labels, &calls_started);
    registry->RegisterCounter("rpc.endpoint.calls_ok", labels, &calls_ok);
    registry->RegisterCounter("rpc.endpoint.calls_timeout", labels, &calls_timeout);
    registry->RegisterCounter("rpc.endpoint.calls_aborted", labels, &calls_aborted);
    registry->RegisterCounter("rpc.endpoint.requests_handled", labels, &requests_handled);
    registry->RegisterCounter("rpc.endpoint.hedges_sent", labels, &hedges_sent);
    registry->RegisterCounter("rpc.endpoint.hedge_wins", labels, &hedge_wins);
    registry->AddResetHook([this]() { Reset(); });
  }
};

namespace internal {

// Address-identity of an RPC body type: one tag object per type, so
// comparing tags is comparing types.
template <typename T>
struct RpcTypeTag {
  static constexpr char id = 0;
};
template <typename T>
const void* RpcTypeOf() {
  return &RpcTypeTag<T>::id;
}

// Header of one RPC message; RpcEnvelope<Body> appends the body in the same
// pooled block (the virtual destructor hands FramePool the full size). The
// reference count is plain (the simulator is single-threaded); EnvelopeRef
// maintains it.
struct RpcEnvelopeHeader : PooledFrame {
  RpcEnvelopeHeader(bool request, const void* type, uint64_t id, TraceContext ctx)
      : is_request(request), body_type(type), call_id(id), trace(ctx) {}
  virtual ~RpcEnvelopeHeader() = default;
  RpcEnvelopeHeader(const RpcEnvelopeHeader&) = delete;
  RpcEnvelopeHeader& operator=(const RpcEnvelopeHeader&) = delete;

  uint32_t refs = 1;
  bool is_request;
  const void* body_type;  // RpcTypeOf<Req>() or RpcTypeOf<Result<Resp>>()
  uint64_t call_id;
  TraceContext trace;  // requests only: the caller's rpc.<Req> span
};

template <typename Body>
struct RpcEnvelope final : RpcEnvelopeHeader {
  RpcEnvelope(bool request, uint64_t id, TraceContext ctx, Body b)
      : RpcEnvelopeHeader(request, RpcTypeOf<Body>(), id, ctx), body(std::move(b)) {}
  Body body;
};

// The payload a message carries: a counted reference to one envelope.
class EnvelopeRef {
 public:
  EnvelopeRef() = default;
  explicit EnvelopeRef(RpcEnvelopeHeader* env) : env_(env) {}
  EnvelopeRef(const EnvelopeRef& other) noexcept : env_(other.env_) {
    if (env_ != nullptr) {
      ++env_->refs;
    }
  }
  EnvelopeRef(EnvelopeRef&& other) noexcept : env_(std::exchange(other.env_, nullptr)) {}
  EnvelopeRef& operator=(EnvelopeRef other) noexcept {
    std::swap(env_, other.env_);
    return *this;
  }
  ~EnvelopeRef() {
    if (env_ != nullptr && --env_->refs == 0) {
      delete env_;
    }
  }

  RpcEnvelopeHeader* operator->() const { return env_; }

  // The body as a value: moved out when this is the last reference, copied
  // while a duplicated datagram still shares the envelope.
  template <typename Body>
  Body TakeBody() {
    WVOTE_CHECK_MSG(env_->body_type == RpcTypeOf<Body>(), "RPC body type mismatch");
    auto* env = static_cast<RpcEnvelope<Body>*>(env_);
    if (env_->refs > 1) {
      return env->body;
    }
    return std::move(env->body);
  }

 private:
  RpcEnvelopeHeader* env_ = nullptr;
};

template <typename Body>
EnvelopeRef MakeEnvelope(bool request, uint64_t call_id, TraceContext trace, Body body) {
  return EnvelopeRef(new RpcEnvelope<Body>(request, call_id, trace, std::move(body)));
}

// Where one in-flight call's outcome lands. It lives in the calling
// coroutine's frame; the endpoint's pending list and the timeout event hold
// plain pointers to it, both dropped before the frame ends. The first
// completion wins and schedules the caller's resumption through the event
// queue at the current instant, like Promise::Set.
class ReplyWait {
 public:
  explicit ReplyWait(Simulator* sim) : sim_(sim) {}
  ReplyWait(const ReplyWait&) = delete;
  ReplyWait& operator=(const ReplyWait&) = delete;

  bool done() const { return done_; }
  bool failed() const { return done_ && !has_reply_; }
  const Status& status() const { return status_; }
  HostId responder() const { return responder_; }
  EnvelopeRef& reply() { return reply_; }

  void Complete(EnvelopeRef reply, HostId from) {
    if (done_) {
      return;  // a duplicated reply or the hedge race's loser
    }
    reply_ = std::move(reply);
    responder_ = from;
    has_reply_ = true;
    Finish();
  }
  void Fail(Status status) {
    if (done_) {
      return;
    }
    status_ = status;
    Finish();
  }

  bool await_ready() const noexcept { return done_; }
  void await_suspend(std::coroutine_handle<> h) noexcept { waiter_ = h; }
  void await_resume() const noexcept {}

 private:
  void Finish() {
    done_ = true;
    if (waiter_) {
      std::coroutine_handle<> h = waiter_;
      sim_->Schedule(Duration::Zero(), [h]() { h.resume(); });
    }
  }

  Simulator* sim_;
  bool done_ = false;
  bool has_reply_ = false;
  HostId responder_ = kInvalidHost;
  Status status_;
  EnvelopeRef reply_;
  std::coroutine_handle<> waiter_;
};

}  // namespace internal

// Outcome of a hedged call: the reply plus which host produced it and
// whether the backup probe was actually sent. Constructor-declared so the
// struct can cross coroutine boundaries by value (GCC 12 rule in
// src/sim/task.h).
template <typename Resp>
struct HedgedReply {
  HostId responder = kInvalidHost;  // kInvalidHost unless reply.ok()
  bool hedged = false;              // the backup probe went on the wire
  Result<Resp> reply;

  // Status's const char* constructor: no string is built per call.
  HedgedReply() : reply(Status(StatusCode::kTimeout, "unresolved hedged call")) {}
};

class RpcEndpoint {
 public:
  template <typename Req, typename Resp>
  using TracedHandler = std::function<Task<Result<Resp>>(HostId, Req, TraceContext)>;

  RpcEndpoint(Network* net, Host* host) : net_(net), host_(host) {
    host_->SetMessageHandler([this](Message msg) { OnMessage(std::move(msg)); });
    host_->AddCrashListener([this]() { OnCrash(); });
  }

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  Host* host() { return host_; }
  HostId host_id() const { return host_->id(); }
  Network* network() { return net_; }
  Simulator* sim() { return net_->sim(); }
  const RpcStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this endpoint's counters, labeled by host name.
  void RegisterMetrics(MetricsRegistry* registry) {
    stats_.RegisterWith(registry, {{"host", host_->name()}});
  }

  // Installs the per-peer health hook. Every Call/CallHedged completion is
  // reported to it. Null (default) disables.
  void SetPeerHealth(PeerHealth* health) { peer_health_ = health; }

  // Registers the handler for requests of type Req. The handler runs as a
  // detached coroutine on this host; its Result is sent back as the reply
  // unless the host has crashed in the meantime.
  template <typename Req, typename Resp>
  void Handle(std::function<Task<Result<Resp>>(HostId, Req)> handler) {
    TracedHandler<Req, Resp> traced = [handler = std::move(handler)](HostId from, Req req,
                                                                     TraceContext) {
      return handler(from, std::move(req));
    };
    HandleTraced<Req, Resp>(std::move(traced));
  }

  // Like Handle, but the handler also receives the server-side span context
  // (the "handle.<Req>" span) so it can record deeper child spans — lock
  // waits, disk flushes — under the caller's trace.
  template <typename Req, typename Resp>
  void HandleTraced(TracedHandler<Req, Resp> handler) {
    const void* type = internal::RpcTypeOf<Req>();
    for (const Service& s : services_) {
      WVOTE_CHECK_MSG(s.body_type != type, "duplicate RPC handler registration");
    }
    // The handler lives on the heap so RunHandler frames can reference it
    // while services_ grows.
    auto fn = std::make_shared<const TracedHandler<Req, Resp>>(std::move(handler));
    services_.push_back(Service{type, [this, fn](HostId from, internal::EnvelopeRef& env) {
      // Bind to a named object before the coroutine call (GCC 12 rule in
      // src/sim/task.h).
      Req req = env.TakeBody<Req>();
      Spawn(RunHandler<Req, Resp>(*fn, from, env->call_id, std::move(req), env->trace));
    }});
  }

  // Issues one request and awaits the reply or the timeout, whichever comes
  // first. A valid `ctx` opens an "rpc.<Req>" child span covering the round
  // trip and rides the envelope so the server parents its work under it.
  template <typename Req, typename Resp>
  Task<Result<Resp>> Call(HostId to, Req req, Duration timeout,
                          TraceContext ctx = TraceContext()) {
    HedgedReply<Resp> out = co_await Exchange<Req, Resp>(to, kInvalidHost, /*hedge=*/false,
                                                         std::move(req), Duration::Zero(),
                                                         timeout, ctx);
    co_return std::move(out.reply);
  }

  // Hedged variant of Call: the request goes to `primary` immediately; if no
  // reply lands within `hedge_delay`, an identical backup goes to `backup`
  // and the first reply wins. Both in-flight call ids resolve one shared
  // wait, so the loser's late reply finds it already done and is dropped by
  // the same idempotent path that already swallows duplicated datagrams.
  // `timeout` bounds the whole race. The reply reports which host answered
  // — quorum accounting must credit the responder's votes, not the
  // primary's. A `backup` of kInvalidHost makes this exactly Call: no hedge
  // timer is scheduled.
  template <typename Req, typename Resp>
  Task<HedgedReply<Resp>> CallHedged(HostId primary, HostId backup, Req req,
                                     Duration hedge_delay, Duration timeout,
                                     TraceContext ctx = TraceContext()) {
    return Exchange<Req, Resp>(primary, backup, /*hedge=*/backup != kInvalidHost,
                               std::move(req), hedge_delay, timeout, ctx);
  }

  // Retransmits an idempotent request up to `attempts` times on retryable
  // failure — a timeout, or kUnavailable from a live host whose disk refused
  // the request (e.g. an injected torn flush) — with a jittered backoff
  // between attempts so retriers don't hammer a struggling peer in
  // lockstep. Other failures are returned immediately.
  template <typename Req, typename Resp>
  Task<Result<Resp>> CallWithRetry(HostId to, Req req, Duration timeout, int attempts,
                                   TraceContext ctx = TraceContext(),
                                   BackoffPolicy backoff = BackoffPolicy{}) {
    Result<Resp> last = Status(StatusCode::kTimeout, "no attempts made");
    for (int i = 0; i < attempts; ++i) {
      last = co_await Call<Req, Resp>(to, req, timeout, ctx);
      if (last.ok()) {
        co_return last;
      }
      const StatusCode code = last.status().code();
      if (code != StatusCode::kTimeout && code != StatusCode::kUnavailable) {
        co_return last;
      }
      if (i + 1 < attempts) {
        co_await sim()->Sleep(JitteredBackoff(sim()->rng(), i, backoff));
      }
    }
    co_return last;
  }

 private:
  // One registered request type; `dispatch` unpacks the body and runs the
  // handler.
  struct Service {
    const void* body_type;
    std::function<void(HostId, internal::EnvelopeRef&)> dispatch;
  };

  // One registered call id, kept sorted by id (ids only grow, so
  // registration appends). A hedged call registers two ids on one wait.
  struct PendingCall {
    uint64_t call_id;
    internal::ReplyWait* wait;
  };

  // Frame-local state of one Exchange. The destructor runs when the
  // exchange's frame ends (normally right after it resumes): it cancels
  // the timers and unregisters the call ids, so nothing outlives the frame
  // that owns `wait`.
  struct InFlight {
    InFlight(RpcEndpoint* endpoint, HostId backup_host, TraceContext trace)
        : self(endpoint), wait(endpoint->sim()), backup(backup_host), wire_trace(trace) {}
    ~InFlight() {
      timeout_event.Cancel();
      hedge_event.Cancel();
      self->Unregister(primary_id);
      if (backup_id != 0) {
        self->Unregister(backup_id);
      }
    }
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;

    RpcEndpoint* self;
    internal::ReplyWait wait;
    HostId backup;
    TraceContext wire_trace;
    uint64_t primary_id = 0;
    uint64_t backup_id = 0;
    bool hedge_fired = false;
    TimePoint hedge_sent_at;
    EventHandle timeout_event;
    EventHandle hedge_event;
  };

  // Shared body of Call and CallHedged. With `hedge` false no hedge timer is
  // scheduled at all, so a plain call's event schedule has exactly the
  // timeout and the deliveries.
  template <typename Req, typename Resp>
  Task<HedgedReply<Resp>> Exchange(HostId primary, HostId backup, bool hedge, Req req,
                                   Duration hedge_delay, Duration timeout, TraceContext ctx) {
    ++stats_.calls_started;
    Tracer* tracer = net_->tracer();
    TraceContext call_span = StartRpcSpan(tracer, ctx, host_id(), "rpc.", RpcMethodName<Req>());
    HedgedReply<Resp> out;
    if (!host_->up()) {
      ++stats_.calls_aborted;
      if (tracer != nullptr) {
        tracer->EndWith(call_span, "caller down");
      }
      out.reply = AbortedError("caller host down");
      co_return out;
    }

    InFlight call(this, backup, call_span.valid() ? call_span : ctx);
    call.primary_id = next_call_id_++;
    internal::ReplyWait* wait = &call.wait;
    call.timeout_event =
        sim()->Schedule(timeout, [wait]() { wait->Fail(TimeoutError("rpc timeout")); });
    pending_.push_back(PendingCall{call.primary_id, wait});

    const size_t bytes = ApproxWireSize(req);
    const TimePoint started = sim()->Now();
    if (hedge) {
      // Keep `req` for the possible backup copy.
      net_->Send(host_id(), primary,
                 internal::MakeEnvelope<Req>(true, call.primary_id, call.wire_trace, req),
                 bytes);
      // The hedge timer points into this frame; the frame stays suspended
      // below until the timer is cancelled by InFlight's destructor.
      call.hedge_event = sim()->Schedule(hedge_delay, [this, &call, &req]() {
        if (call.wait.done() || !host_->up() || call.backup == kInvalidHost) {
          return;
        }
        call.hedge_fired = true;
        call.hedge_sent_at = sim()->Now();
        ++stats_.hedges_sent;
        call.backup_id = next_call_id_++;
        pending_.push_back(PendingCall{call.backup_id, &call.wait});
        const size_t hedge_bytes = ApproxWireSize(req);
        net_->Send(host_id(), call.backup,
                   internal::MakeEnvelope<Req>(true, call.backup_id, call.wire_trace,
                                               std::move(req)),
                   hedge_bytes);
      });
    } else {
      net_->Send(host_id(), primary,
                 internal::MakeEnvelope<Req>(true, call.primary_id, call.wire_trace,
                                             std::move(req)),
                 bytes);
    }

    co_await call.wait;

    out.hedged = call.hedge_fired;
    if (call.wait.failed()) {
      const Status status = call.wait.status();
      if (status.code() == StatusCode::kTimeout) {
        ++stats_.calls_timeout;
        if (peer_health_ != nullptr) {
          peer_health_->OnRpcOutcome(primary, sim()->Now() - started, false);
          if (call.hedge_fired) {
            peer_health_->OnRpcOutcome(backup, sim()->Now() - call.hedge_sent_at, false);
          }
        }
      } else {
        // Aborted: our own host crashed — no evidence about the peer.
        ++stats_.calls_aborted;
      }
      if (tracer != nullptr) {
        tracer->EndWith(call_span,
                        status.code() == StatusCode::kTimeout ? "timeout" : "aborted");
      }
      out.reply = status;
      co_return out;
    }

    ++stats_.calls_ok;
    out.responder = call.wait.responder();
    const bool hedge_won = out.responder == backup && backup != primary;
    if (hedge_won) {
      ++stats_.hedge_wins;
      if (peer_health_ != nullptr) {
        peer_health_->OnRpcOutcome(backup, sim()->Now() - call.hedge_sent_at, true);
        // The primary lost to a hedge that spotted it a full p95 head start:
        // that is a gray-failure signal, and it is what lets the breaker
        // open even when every hedged call still succeeds.
        peer_health_->OnRpcOutcome(primary, sim()->Now() - started, false);
      }
    } else if (peer_health_ != nullptr) {
      peer_health_->OnRpcOutcome(primary, sim()->Now() - started, true);
    }
    if (tracer != nullptr) {
      if (hedge_won) {
        tracer->EndWith(call_span, "hedge win");
      } else {
        tracer->End(call_span);
      }
    }
    out.reply = call.wait.reply().TakeBody<Result<Resp>>();
    co_return out;
  }

  template <typename Req, typename Resp>
  Task<void> RunHandler(const TracedHandler<Req, Resp>& handler, HostId from, uint64_t call_id,
                        Req req, TraceContext trace) {
    ++stats_.requests_handled;
    Tracer* tracer = net_->tracer();
    TraceContext span =
        StartRpcSpan(tracer, trace, host_id(), "handle.", RpcMethodName<Req>());
    TraceContext handler_ctx;
    if (span.valid()) {
      handler_ctx = span;
    } else {
      handler_ctx = trace;
    }
    Result<Resp> result = co_await handler(from, std::move(req), handler_ctx);
    if (span.valid()) {
      // The error text is built only for a span that records it.
      if (result.ok()) {
        tracer->End(span);
      } else {
        tracer->EndWith(span, result.status().ToString());
      }
    }
    // Send drops the reply if this host crashed while handling; the caller
    // then times out, matching a real server that died before responding.
    const size_t bytes = result.ok() ? ApproxWireSize(result.value()) : size_t{64};
    net_->Send(host_id(), from,
               internal::MakeEnvelope<Result<Resp>>(false, call_id, TraceContext(),
                                                    std::move(result)),
               bytes);
  }

  void OnMessage(Message msg) {
    auto* env = std::any_cast<internal::EnvelopeRef>(&msg.payload);
    if (env == nullptr) {
      return;  // foreign traffic; not ours to decode
    }
    if ((*env)->is_request) {
      for (const Service& s : services_) {
        if (s.body_type == (*env)->body_type) {
          s.dispatch(msg.from, *env);
          return;
        }
      }
      return;  // no such service on this host; caller times out
    }
    auto it = FindPending((*env)->call_id);
    if (it == pending_.end()) {
      return;  // reply after timeout/crash; drop
    }
    // Only the first completion counts, so a duplicated datagram or the
    // hedge loser arriving later cannot overwrite who actually answered.
    it->wait->Complete(std::move(*env), msg.from);
  }

  std::vector<PendingCall>::iterator FindPending(uint64_t call_id) {
    auto it = std::lower_bound(
        pending_.begin(), pending_.end(), call_id,
        [](const PendingCall& p, uint64_t id) { return p.call_id < id; });
    if (it != pending_.end() && it->call_id != call_id) {
      return pending_.end();
    }
    return it;
  }

  void Unregister(uint64_t call_id) {
    auto it = FindPending(call_id);
    if (it != pending_.end()) {
      pending_.erase(it);
    }
  }

  void OnCrash() {
    // Volatile call state dies with the host. Calls abort in call-id order,
    // which is the order their resumptions are scheduled in; a hedged
    // call's second id finds its wait already done.
    for (const PendingCall& p : pending_) {
      p.wait->Fail(AbortedError("host crashed"));
    }
    pending_.clear();
  }

  Network* net_;
  Host* host_;
  uint64_t next_call_id_ = 1;
  std::vector<Service> services_;
  std::vector<PendingCall> pending_;
  PeerHealth* peer_health_ = nullptr;
  RpcStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_RPC_RPC_H_
