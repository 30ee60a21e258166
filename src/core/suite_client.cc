#include "src/core/suite_client.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "src/common/backoff.h"
#include "src/common/check.h"
#include "src/core/txn_state.h"
#include "src/sim/join.h"

namespace wvote {

namespace {

// Prefix-refresh retries per operation: how many newer configurations one
// read or write follows before giving up.
constexpr int kMaxConfigRetries = 3;

// How many transaction states a client keeps for reuse: one per
// transaction in flight plus a few pinned by straggler probes.
constexpr size_t kMaxPooledStates = 4;

// Releases locks acquired by a straggler probe that answered after its
// transaction already ended.
Task<void> ReleaseLateLocks(RpcEndpoint* rpc, HostId host, TxnId txn, Duration timeout) {
  (void)co_await rpc->Call<AbortReq, Ack>(host, AbortReq{txn}, timeout);
}

Task<void> SendRefresh(RpcEndpoint* rpc, HostId host, std::string suite, Version version,
                       std::string contents, Duration timeout) {
  RefreshReq req;
  req.suite = std::move(suite);
  req.version = version;
  req.contents = std::move(contents);
  (void)co_await rpc->Call<RefreshReq, RefreshResp>(host, std::move(req), timeout);
}

// `host`'s intents in `writes`, which is kept in ascending host order; an
// entry is added when `host` has none yet.
WriteIntents& IntentsAt(std::vector<WriterIntents>& writes, HostId host) {
  auto it = std::lower_bound(writes.begin(), writes.end(), host,
                             [](const WriterIntents& w, HostId h) { return w.host < h; });
  if (it == writes.end() || it->host != host) {
    it = writes.insert(it, WriterIntents{host, {}});
  }
  return it->intents;
}

bool HasIntents(const std::vector<WriterIntents>& writes, HostId host) {
  auto it = std::lower_bound(writes.begin(), writes.end(), host,
                             [](const WriterIntents& w, HostId h) { return w.host < h; });
  return it != writes.end() && it->host == host;
}

// Conflicts, aborts and timeouts are worth a fresh attempt; anything else
// would fail the same way again.
bool Retryable(const Status& status) {
  return status.code() == StatusCode::kConflict || status.code() == StatusCode::kAborted ||
         status.code() == StatusCode::kTimeout;
}

// The slot for `host` in a HostId-indexed vector, grown on first use (host
// ids are dense indices into the network's host table).
template <typename T>
T& SlotFor(std::vector<T>& by_host, HostId host) {
  const auto index = static_cast<size_t>(host);
  if (index >= by_host.size()) {
    by_host.resize(index + 1);
  }
  return by_host[index];
}

}  // namespace

// ---------------------------------------------------------------------------
// SuiteTransaction
// ---------------------------------------------------------------------------

SuiteTransaction::~SuiteTransaction() {
  if (state_ && !state_->finished) {
    Spawn(SuiteClient::DoAbort({&state_, 1}));
  }
}

Task<Result<std::string>> SuiteTransaction::Read() { return state_->client->DoRead(state_); }

Task<Result<VersionedValue>> SuiteTransaction::ReadVersioned() {
  std::shared_ptr<State> state = state_;
  Result<std::string> contents = co_await state->client->DoRead(state);
  if (!contents.ok()) {
    co_return contents.status();
  }
  if (state->pending_write) {
    // Version of a buffered write is assigned at commit; report the read
    // version if we have one, else 0.
    co_return VersionedValue{state->read_version, std::move(contents.value())};
  }
  WVOTE_CHECK(state->has_read);
  co_return VersionedValue{state->read_version, std::move(contents.value())};
}

Status SuiteTransaction::Write(std::string contents) {
  if (state_->finished) {
    return FailedPreconditionError("transaction already finished");
  }
  state_->pending_write = std::move(contents);
  return Status::Ok();
}

Task<Status> SuiteTransaction::Commit() { return SuiteClient::DoCommit({&state_, 1}); }

Task<void> SuiteTransaction::Abort() { return SuiteClient::DoAbort({&state_, 1}); }

bool SuiteTransaction::finished() const { return !state_ || state_->finished; }

Version SuiteTransaction::committed_version() const {
  return state_ ? state_->committed_version : 0;
}

// ---------------------------------------------------------------------------
// SuiteClient
// ---------------------------------------------------------------------------

SuiteClient::SuiteClient(Network* net, RpcEndpoint* rpc, Coordinator* coordinator,
                         SuiteConfig config, SuiteClientOptions options)
    : net_(net),
      rpc_(rpc),
      coordinator_(coordinator),
      config_(std::move(config)),
      value_key_(SuiteValueKey(config_.suite_name)),
      options_(std::move(options)),
      plan_cache_([this](const std::string& name) { return links_.Link(name); },
                  &stats_.plan_builds),
      links_(net, rpc->host_id()) {
  WVOTE_CHECK_MSG(config_.Validate().ok(), "invalid suite config");
}

void SuiteClientStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("core.suite_client.reads", labels, &reads);
  registry->RegisterCounter("core.suite_client.writes", labels, &writes);
  registry->RegisterCounter("core.suite_client.commits", labels, &commits);
  registry->RegisterCounter("core.suite_client.aborts", labels, &aborts);
  registry->RegisterCounter("core.suite_client.cache_hits", labels, &cache_hits);
  registry->RegisterCounter("core.suite_client.fastpath_hits", labels, &fastpath_hits);
  registry->RegisterCounter("core.suite_client.fastpath_misses", labels, &fastpath_misses);
  registry->RegisterCounter("core.suite_client.fastpath_bytes_saved", labels,
                            &fastpath_bytes_saved);
  registry->RegisterCounter("core.suite_client.plan_builds", labels, &plan_builds);
  registry->RegisterCounter("core.suite_client.probes_sent", labels, &probes_sent);
  registry->RegisterCounter("core.suite_client.gather_rounds", labels, &gather_rounds);
  registry->RegisterCounter("core.suite_client.config_refreshes", labels, &config_refreshes);
  registry->RegisterCounter("core.suite_client.refreshes_spawned", labels,
                            &refreshes_spawned);
  registry->RegisterCounter("core.suite_client.unavailable", labels, &unavailable);
  registry->RegisterCounter("core.suite_client.read_unavailable", labels, &read_unavailable);
  registry->RegisterCounter("core.suite_client.write_unavailable", labels, &write_unavailable);
  registry->RegisterCounter("core.suite_client.conflicts", labels, &conflicts);
  registry->RegisterCounter("core.suite_client.retries", labels, &retries);
  registry->RegisterCounter("core.suite_client.breaker_demotions", labels,
                            &breaker_demotions);
  registry->RegisterCounter("core.suite_client.hedged_probes", labels, &hedged_probes);
  registry->RegisterCounter("core.suite_client.commit_bytes_serialized", labels,
                            &commit_bytes_serialized);
  registry->AddResetHook([this]() { Reset(); });
}

void SuiteClient::RegisterMetrics(MetricsRegistry* registry) {
  const MetricLabels labels = {{"host", rpc_->host()->name()},
                               {"suite", config_.suite_name}};
  stats_.RegisterWith(registry, labels);
  // Planner load gauges: where this client's probes actually land. Labeled
  // by client host so several clients' views never sum into nonsense;
  // fleet-wide skew is read from the representative-side counters.
  for (const RepresentativeInfo& rep : config_.representatives) {
    if (rep.weak()) {
      continue;
    }
    MetricLabels rep_labels = labels;
    rep_labels["rep"] = rep.host_name;
    registry->RegisterGauge("core.planner.probe_share", rep_labels,
                            [this, name = rep.host_name]() { return ProbeShareOf(name); });
  }
  registry->RegisterGauge("core.planner.load_max_share", labels,
                          [this]() { return MaxProbeShare(); });
  registry->RegisterGauge("core.planner.load_imbalance", labels,
                          [this]() { return ProbeShareGini(); });
  registry->RegisterGauge("core.planner.expected_max_share", labels,
                          [this]() { return ExpectedMaxShare(); });
  registry->AddResetHook([this]() { probe_counts_.clear(); });
}

uint64_t SuiteClient::ProbeCountOf(const std::string& host) const {
  const auto index = static_cast<size_t>(links_.Resolve(host));
  return index < probe_counts_.size() ? probe_counts_[index] : 0;
}

double SuiteClient::ProbeShareOf(const std::string& host) const {
  uint64_t total = 0;
  for (uint64_t count : probe_counts_) {
    total += count;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(ProbeCountOf(host)) / static_cast<double>(total);
}

double SuiteClient::MaxProbeShare() const {
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t count : probe_counts_) {
    total += count;
    max = std::max(max, count);
  }
  return total == 0 ? 0.0 : static_cast<double>(max) / static_cast<double>(total);
}

double SuiteClient::ProbeShareGini() const {
  // Gini over the probe shares of every *voting* representative, counting
  // never-probed members as zero — a plan that starves three of four reps
  // should read as imbalanced even though only one host shows up in
  // probe_counts_.
  std::vector<double> counts;
  for (const RepresentativeInfo& rep : config_.representatives) {
    if (rep.weak()) {
      continue;
    }
    counts.push_back(static_cast<double>(ProbeCountOf(rep.host_name)));
  }
  double total = 0;
  for (double c : counts) {
    total += c;
  }
  if (counts.empty() || total == 0) {
    return 0.0;
  }
  double abs_diffs = 0;
  for (double a : counts) {
    for (double b : counts) {
      abs_diffs += std::abs(a - b);
    }
  }
  return abs_diffs / (2.0 * static_cast<double>(counts.size()) * total);
}

double SuiteClient::ExpectedMaxShare() const {
  const std::shared_ptr<const ProbingStrategy> strategy =
      plan_cache_.Peek(options_.strategy);
  if (strategy == nullptr) {
    return 0.0;
  }
  if (strategy->read_dist.valid()) {
    return strategy->read_dist.max_share;
  }
  return 1.0;  // deterministic plan: the whole preferred prefix every op
}

std::shared_ptr<SuiteTransaction::State> SuiteClient::NewState() {
  for (const std::shared_ptr<SuiteTransaction::State>& pooled : state_pool_) {
    if (pooled.use_count() == 1) {
      pooled->Reset();
      return pooled;
    }
  }
  auto state = std::make_shared<SuiteTransaction::State>();
  state->client = this;
  if (state_pool_.size() < kMaxPooledStates) {
    state_pool_.push_back(state);
  }
  return state;
}

SuiteTransaction SuiteClient::Begin(TraceContext parent) {
  std::shared_ptr<SuiteTransaction::State> state = NewState();
  state->txn = coordinator_->Begin();
  if (Tracer* tracer = net_->tracer()) {
    if (parent.valid()) {
      state->trace = tracer->StartChild(parent, rpc_->host_id(), "client.txn");
    } else {
      state->trace = tracer->StartRoot(rpc_->host_id(), "client.txn");
    }
    if (state->trace.valid()) {
      tracer->Annotate(state->trace, "txn=" + state->txn.ToString());
    }
  }
  return SuiteTransaction(std::move(state));
}

std::shared_ptr<const ProbingStrategy> SuiteClient::PlanFor(QuorumStrategy policy) {
  return plan_cache_.Get(config_, policy);
}

void SuiteClient::NoteVersion(HostId host, Version version) {
  Version& hint = SlotFor(rep_version_hints_, host);
  hint = std::max(hint, version);
  hint_version_ = std::max(hint_version_, version);
}

size_t SuiteClient::PickFastPathTarget(const GatherMachine& machine) const {
  const std::vector<GatherProbe>& targets = machine.round();
  // The local weak-rep cache serves for free once the quorum confirms the
  // version; don't pay for piggybacked bytes it would shadow.
  if (cache_ != nullptr && hint_version_ > 0 &&
      cache_->PeekVersion(config_.suite_name) >= hint_version_) {
    return targets.size();
  }
  // Targets arrive in plan-preference order, so the first one whose last
  // observed version matches the hint is the cheapest likely-current
  // candidate. With no usable hint, bet on the most-preferred target.
  if (hint_version_ > 0) {
    for (size_t i = 0; i < targets.size(); ++i) {
      const auto host = static_cast<size_t>(machine.At(targets[i].primary).host);
      if (host < rep_version_hints_.size() && rep_version_hints_[host] >= hint_version_) {
        return i;
      }
    }
  }
  return 0;
}

Task<Status> SuiteClient::Gather(std::shared_ptr<SuiteTransaction::State> state, bool exclusive,
                                 bool want_data) {
  const int required_votes = exclusive ? config_.write_quorum : config_.read_quorum;
  const LockMode mode = exclusive ? LockMode::kExclusive : LockMode::kShared;
  const std::shared_ptr<const ProbingStrategy> strategy_ref =
      PlanFor(options_.strategy);
  const std::vector<QuorumCandidate>& plan = strategy_ref->order;

  const bool tolerant = health_ != nullptr && options_.gray_tolerance;
  // With gray tolerance armed, the tracker's view of every plan candidate steers
  // the probe order (see ProbeOrder). A gray host with generous timeouts
  // never FAILS, so nothing trips its breaker; its inflated latency demotes
  // it all the same.
  std::vector<ProbeHealth>& health = state->health;
  health.clear();
  if (tolerant) {
    for (const QuorumCandidate& c : plan) {
      const bool demoted = health_->ShouldDemote(c.host) ||
                           health_->LatencyDemoted(c.host, c.expected_latency);
      if (demoted) {
        ++stats_.breaker_demotions;
      }
      health.push_back(
          ProbeHealth{health_->EffectiveLatency(c.host, c.expected_latency), demoted});
    }
  }
  // Probabilistic policies draw this operation's quorum from the cached
  // distribution; deterministic policies get an empty sample and consume no
  // randomness, so replays of pre-strategy schedules stay bit-exact.
  GatherMachine& machine = state->machine;
  machine.Start(plan, strategy_ref->SampleOrder(required_votes, &net_->sim()->rng()), health,
                required_votes, options_.strategy == QuorumStrategy::kBroadcast, tolerant);

  Tracer* tracer = net_->tracer();
  TraceContext gather_span;
  if (tracer != nullptr) {
    gather_span = tracer->StartChild(state->trace, rpc_->host_id(), "phase.gather");
  }

  GatherResult& out = state->gather;
  out.Clear();
  bool fastpath_requested = false;
  Status conflict;
  while (machine.NextRound()) {
    ++stats_.gather_rounds;
    const std::vector<GatherProbe>& round = machine.round();
    // Piggyback request: only in the first round (widening rounds are the
    // failure path; their members are rarely the cheapest current copy).
    const size_t fastpath_target =
        (want_data && machine.rounds() == 1) ? PickFastPathTarget(machine) : round.size();
    fastpath_requested = fastpath_requested || fastpath_target < round.size();

    for (size_t i = 0; i < round.size(); ++i) {
      const HostId primary = machine.At(round[i].primary).host;
      ++stats_.probes_sent;
      ++SlotFor(probe_counts_, primary);
      state->probed.Insert(primary);
      HostId backup = kInvalidHost;  // no hedge
      Duration hedge_delay;
      if (round[i].backup != GatherMachine::kNoBackup) {
        backup = machine.At(round[i].backup).host;
        // The backup may be granted a lock server-side even when its reply
        // loses the race (or the hedge never fires — aborting an unknown
        // transaction is a no-op), so the release safety net must cover it.
        state->probed.Insert(backup);
        ++stats_.hedged_probes;
        // The hedge is the latency-control mechanism; the configured probe
        // timeout bounds the whole race, so the backup has room to answer.
        hedge_delay = health_->HedgeDelay(primary, options_.probe_timeout);
      }
      TxnVersionReq req(state->txn, config_.suite_name, mode, i == fastpath_target);
      state->probes.push_back(rpc_->CallHedged<TxnVersionReq, VersionResp>(
          primary, backup, std::move(req), hedge_delay, options_.probe_timeout, gather_span));
    }

    // Named bindings, moved into the join, per the GCC 12 rule in
    // src/sim/task.h. The machine credits each reply as it lands.
    auto closed = [m = &machine](const std::vector<HedgedReply<VersionResp>>& got) {
      m->Credit(got.back().responder, got.back().reply.status().code());
      return m->Closed();
    };
    // Stragglers acquired locks after we stopped waiting. They are already
    // in `probed`, so the transaction's end releases them; one that answers
    // after the end is released here. Holding `state` keeps the client from
    // recycling it while a straggler may still report.
    auto leftover = [state](HedgedReply<VersionResp> o) {
      if (o.reply.ok() && state->finished) {
        SuiteClient* client = state->client;
        Spawn(ReleaseLateLocks(client->rpc_, o.responder, state->txn,
                               client->options_.probe_timeout));
      }
    };
    std::vector<HedgedReply<VersionResp>>& outcomes = state->outcomes;
    co_await JoinUntil<HedgedReply<VersionResp>>(net_->sim(), state->probes, outcomes,
                                                 std::move(closed), std::move(leftover));

    for (HedgedReply<VersionResp>& o : outcomes) {
      if (o.reply.ok()) {
        const VersionResp& resp = o.reply.value();
        out.current = std::max(out.current, resp.version);
        out.max_config_version = std::max(out.max_config_version, resp.config_version);
        NoteVersion(o.responder, resp.version);
        out.replies.push_back(
            ProbeReply(machine.Responder(o.responder), std::move(o.reply.value())));
      } else if (o.reply.status().code() == StatusCode::kConflict) {
        conflict = o.reply.status();  // the machine ends the gather
        break;
      }
    }
  }

  if (machine.conflicted()) {
    ++stats_.conflicts;
    if (tracer != nullptr) {
      tracer->EndWith(gather_span, "wait-die conflict");
    }
    co_return conflict;
  }
  if (out.max_config_version > config_.config_version) {
    if (tracer != nullptr) {
      tracer->EndWith(gather_span, "stale config");
    }
    co_return FailedPreconditionError("suite configuration is newer than client's");
  }
  auto tally = [&machine, required_votes]() {
    return std::to_string(machine.votes()) + "/" + std::to_string(required_votes);
  };
  if (!machine.Closed()) {
    ++stats_.unavailable;
    // The SLO layer tracks read and write availability separately; the lock
    // mode says which quorum this gather was for.
    ++(exclusive ? stats_.write_unavailable : stats_.read_unavailable);
    if (TraceLog* trace = net_->trace()) {
      trace->Record(rpc_->host_id(), TraceKind::kQuorumFailed,
                    config_.suite_name + " " + tally());
    }
    if (tracer != nullptr && gather_span.valid()) {
      tracer->EndWith(gather_span, "unavailable " + tally());
    }
    co_return UnavailableError("gathered " + tally() + " votes for " + config_.suite_name);
  }
  if (tracer != nullptr && gather_span.valid()) {
    tracer->EndWith(gather_span, "votes=" + tally() + " rounds=" +
                                     std::to_string(machine.rounds()) +
                                     (fastpath_requested ? " fastpath-requested" : ""));
  }
  co_return Status::Ok();
}

Task<Result<SuiteReadResp>> SuiteClient::FetchData(
    std::shared_ptr<SuiteTransaction::State> state) {
  const GatherResult& gather = state->gather;
  // Fetch from the cheapest current member — Gifford's "read from the best
  // up-to-date representative". The candidates already carry their expected
  // latency from the (latency-ordered) plan, so a min-scan per attempt
  // suffices; no re-sort. Ties pick the earliest reply, which keeps the
  // choice stable and deterministic.
  std::vector<const ProbeReply*> members;
  for (const ProbeReply& r : gather.replies) {
    if (r.resp.version == gather.current) {
      members.push_back(&r);
    }
  }

  Tracer* tracer = net_->tracer();
  TraceContext fetch_span;
  if (tracer != nullptr) {
    fetch_span = tracer->StartChild(state->trace, rpc_->host_id(), "phase.fetch");
  }

  // With gray tolerance armed, "cheapest" means observed cost, not the
  // provisioned link expectation: a gray member whose probe just took 10×
  // its link cost must not keep winning the data fetch on paper numbers.
  const bool tolerant = health_ != nullptr && options_.gray_tolerance;
  while (!members.empty()) {
    auto best = std::min_element(
        members.begin(), members.end(), [this, tolerant](const ProbeReply* a, const ProbeReply* b) {
          if (tolerant) {
            return health_->EffectiveLatency(a->candidate.host, a->candidate.expected_latency) <
                   health_->EffectiveLatency(b->candidate.host, b->candidate.expected_latency);
          }
          return a->candidate.expected_latency < b->candidate.expected_latency;
        });
    const ProbeReply* member = *best;
    members.erase(best);
    Result<SuiteReadResp> data = co_await rpc_->Call<TxnReadSuiteReq, SuiteReadResp>(
        member->candidate.host, TxnReadSuiteReq{state->txn, config_.suite_name},
        options_.data_timeout, fetch_span);
    if (data.ok()) {
      if (data.value().version != gather.current) {
        if (tracer != nullptr) {
          tracer->EndWith(fetch_span, "version changed under lock");
        }
        co_return InternalError("representative changed version under our lock");
      }
      if (tracer != nullptr && fetch_span.valid()) {
        tracer->EndWith(fetch_span, "from host " + std::to_string(member->candidate.host));
      }
      co_return std::move(data.value());
    }
  }
  if (tracer != nullptr) {
    tracer->EndWith(fetch_span, "no current member");
  }
  co_return UnavailableError("no current representative could serve data");
}

void SuiteClient::SpawnRefreshes(const GatherResult& gather, Version current,
                                 const std::string& contents) {
  if (!options_.background_refresh || current == 0) {
    return;
  }
  // Representatives that answered with a stale version are refreshed. Under
  // the broadcast strategy, representatives that did not answer in time are
  // refreshed too (the install is conditional server-side, so an
  // already-current straggler ignores it) — this is what lets a recovered
  // replica catch up from any broadcast reader.
  for (const ProbeReply& r : gather.replies) {
    if (r.resp.version < current) {
      ++stats_.refreshes_spawned;
      Spawn(SendRefresh(rpc_, r.candidate.host, config_.suite_name, current, contents,
                        options_.data_timeout));
    }
  }
  if (options_.strategy == QuorumStrategy::kBroadcast) {
    for (const RepresentativeInfo& rep : config_.representatives) {
      if (rep.weak()) {
        continue;
      }
      // Members that answered are current or were refreshed above.
      const HostId host = links_.Resolve(rep.host_name);
      const bool answered =
          std::any_of(gather.replies.begin(), gather.replies.end(),
                      [host](const ProbeReply& r) { return r.candidate.host == host; });
      if (!answered) {
        ++stats_.refreshes_spawned;
        Spawn(SendRefresh(rpc_, host, config_.suite_name, current, contents,
                          options_.data_timeout));
      }
    }
  }
}

Task<Status> SuiteClient::GatherFollowingConfig(std::shared_ptr<SuiteTransaction::State> state,
                                                bool exclusive, bool want_data) {
  for (int attempt = 0; attempt <= kMaxConfigRetries; ++attempt) {
    Status gathered = co_await Gather(state, exclusive, want_data);
    if (gathered.ok() || gathered.code() != StatusCode::kFailedPrecondition) {
      co_return gathered;
    }
    WVOTE_CO_RETURN_IF_ERROR(co_await RefreshConfigFromPrefix());
  }
  co_return FailedPreconditionError(exclusive ? "configuration kept changing during commit"
                                              : "configuration kept changing during read");
}

Task<Result<std::string>> SuiteClient::DoRead(std::shared_ptr<SuiteTransaction::State> state) {
  if (state->finished) {
    co_return FailedPreconditionError("transaction already finished");
  }
  if (state->pending_write) {
    co_return *state->pending_write;  // read-your-writes
  }
  if (state->has_read) {
    co_return state->read_contents;  // repeated read
  }

  Status gathered =
      co_await GatherFollowingConfig(state, /*exclusive=*/false, options_.fastpath_reads);
  if (!gathered.ok()) {
    co_return gathered;
  }
  ++stats_.reads;
  GatherResult& gather = state->gather;
  const Version current = gather.current;

  if (current == 0) {
    // Never written: reads as empty.
    state->KeepRead(0, "");
    co_return std::string();
  }

  if (cache_ != nullptr) {
    const std::string* cached = cache_->Lookup(config_.suite_name, current);
    if (cached != nullptr) {
      ++stats_.cache_hits;
      state->KeepRead(current, *cached);
      SpawnRefreshes(gather, current, *cached);
      co_return *cached;
    }
  }

  if (options_.fastpath_reads) {
    // Fast path: a probe piggybacked its contents and the gathered quorum
    // proves that copy current — the read is done in one round trip. This
    // is exactly Gifford's read rule with the data transfer overlapped
    // into the version poll; the currency decision is unchanged.
    for (ProbeReply& r : gather.replies) {
      if (r.resp.has_data && r.resp.version == current) {
        ++stats_.fastpath_hits;
        if (Tracer* tracer = net_->tracer()) {
          tracer->Annotate(state->trace, "fastpath-hit");
        }
        // The avoided fetch reply would have cost SuiteReadResp wire bytes.
        stats_.fastpath_bytes_saved += 64 + r.resp.contents.size();
        if (cache_ != nullptr) {
          cache_->Update(config_.suite_name, current, r.resp.contents);
        }
        SpawnRefreshes(gather, current, r.resp.contents);
        state->KeepRead(current, r.resp.contents);
        co_return std::move(r.resp.contents);
      }
    }
    // Piggybacked copy stale, lost, or never requested: pay the explicit
    // fetch from a proven-current member.
    ++stats_.fastpath_misses;
    if (Tracer* tracer = net_->tracer()) {
      tracer->Annotate(state->trace, "fastpath-miss");
    }
  }

  Result<SuiteReadResp> data = co_await FetchData(state);
  if (!data.ok()) {
    co_return data.status();
  }
  if (cache_ != nullptr) {
    cache_->Update(config_.suite_name, current, data.value().contents);
  }
  SpawnRefreshes(gather, current, data.value().contents);
  state->KeepRead(current, data.value().contents);
  co_return std::move(data.value().contents);
}

Task<Status> SuiteClient::DoCommit(States states) {
  SuiteTransaction::State& first = *states.front();
  if (first.finished) {
    co_return FailedPreconditionError("transaction already finished");
  }
  std::vector<WriterIntents>& writes = first.intents;

  // A write quorum for every written suite. The gathers share one TxnId, so
  // wait-die also resolves lock conflicts across suites.
  for (const std::shared_ptr<SuiteTransaction::State>& state : states) {
    if (!state->pending_write) {
      continue;
    }
    SuiteClient* client = state->client;
    Status gathered = co_await client->GatherFollowingConfig(state, /*exclusive=*/true);
    if (!gathered.ok()) {
      co_await DoAbort(states);
      co_return gathered;
    }
    ++client->stats_.writes;
    // Serialize the versioned value exactly once per commit; every quorum
    // member's intent (and every message hop) shares the one buffer.
    const SharedPayload payload(
        VersionedValue{state->gather.current + 1, *state->pending_write}.Serialize());
    client->stats_.commit_bytes_serialized += payload.size();
    for (const ProbeReply& r : state->gather.replies) {
      IntentsAt(writes, r.candidate.host).push_back(WriteIntent(client->value_key_, payload));
    }
  }

  // Every other probed host only needs its locks released, once (probes
  // that timed out client-side may still have been granted server-side).
  std::vector<HostId>& read_only = first.release;
  read_only.clear();
  for (const std::shared_ptr<SuiteTransaction::State>& state : states) {
    state->finished = true;
    state->probed.ForEach([&](HostId host) {
      if (!HasIntents(writes, host) &&
          std::find(read_only.begin(), read_only.end(), host) == read_only.end()) {
        read_only.push_back(host);
      }
    });
  }
  const bool wrote = !writes.empty();
  Status st = co_await first.client->coordinator_->CommitTransaction(first.txn, writes,
                                                                     read_only, first.trace);

  for (const std::shared_ptr<SuiteTransaction::State>& state : states) {
    SuiteClient* client = state->client;
    if (!st.ok()) {
      ++client->stats_.aborts;
      continue;
    }
    ++client->stats_.commits;
    if (!state->pending_write) {
      continue;
    }
    const Version next = state->gather.current + 1;
    state->committed_version = next;
    // The write quorum now holds `next`; remember that for future fast-path
    // targeting.
    for (const ProbeReply& r : state->gather.replies) {
      client->NoteVersion(r.candidate.host, next);
    }
    if (client->cache_ != nullptr) {
      client->cache_->Update(client->config_.suite_name, next, *state->pending_write);
    }
  }
  Tracer* tracer = first.client->net_->tracer();
  if (tracer != nullptr && first.trace.valid()) {
    std::string outcome =
        st.ok() ? (wrote ? "committed" : "committed read-only") : st.ToString();
    for (const std::shared_ptr<SuiteTransaction::State>& state : states) {
      if (state->committed_version != 0) {
        outcome += " v" + std::to_string(state->committed_version);
      }
    }
    tracer->EndWith(first.trace, outcome);
  }
  co_return st;
}

Task<void> SuiteClient::DoAbort(States states) {
  SuiteTransaction::State& first = *states.front();
  if (first.finished) {
    co_return;
  }
  const TxnId txn = first.txn;
  const TraceContext trace = first.trace;
  Coordinator* coordinator = first.client->coordinator_;
  Tracer* tracer = first.client->net_->tracer();
  std::vector<HostId>& targets = first.release;
  targets.clear();
  for (const std::shared_ptr<SuiteTransaction::State>& state : states) {
    state->finished = true;
    ++state->client->stats_.aborts;
    state->probed.ForEach([&](HostId host) {
      if (std::find(targets.begin(), targets.end(), host) == targets.end()) {
        targets.push_back(host);
      }
    });
  }
  // AbortTransaction reads `targets` before its first suspension, which is
  // also when this task stops reading `states`.
  co_await coordinator->AbortTransaction(txn, targets, trace);
  if (tracer != nullptr) {
    tracer->EndWith(trace, "aborted");
  }
}

Task<Result<std::string>> SuiteClient::ReadOnce(int retries) {
  return RunOnce("client.read", std::nullopt, retries);
}

Task<Status> SuiteClient::WriteOnce(std::string contents, int retries) {
  Result<std::string> done = co_await RunOnce("client.write", std::move(contents), retries);
  co_return done.status();
}

Task<Result<std::string>> SuiteClient::RunOnce(const char* span_name,
                                               std::optional<std::string> write, int retries) {
  // Root span for the whole operation: retried attempts become sibling
  // "client.txn" children, so one trace tells the full story of the op.
  Tracer* tracer = net_->tracer();
  TraceContext root;
  if (tracer != nullptr) {
    root = tracer->StartRoot(rpc_->host_id(), span_name);
  }
  Status last = InternalError("no attempts");
  for (int i = 0; i < retries; ++i) {
    SuiteTransaction txn = Begin(root);
    Result<std::string> contents = std::string();
    if (write) {
      last = txn.Write(*write);
      if (last.ok()) {
        last = co_await txn.Commit();
      }
    } else {
      contents = co_await txn.Read();
      if (contents.ok()) {
        last = co_await txn.Commit();
      } else {
        last = contents.status();
        co_await txn.Abort();
      }
    }
    if (last.ok()) {
      if (tracer != nullptr && root.valid()) {
        tracer->EndWith(root, "ok attempts=" + std::to_string(i + 1));
      }
      co_return contents;
    }
    if (!Retryable(last)) {
      if (tracer != nullptr && root.valid()) {
        tracer->EndWith(root, last.ToString());
      }
      co_return last;
    }
    // Jittered exponential backoff before retrying a conflicted transaction.
    ++stats_.retries;
    co_await net_->sim()->Sleep(JitteredBackoff(net_->sim()->rng(), i));
  }
  if (tracer != nullptr && root.valid()) {
    tracer->EndWith(root, last.ToString());
  }
  co_return last;
}

Task<Status> SuiteClient::RefreshConfigFromPrefix() {
  ++stats_.config_refreshes;
  // Ask every voting representative (lock-free) which prefix version it
  // holds, then fetch the newest prefix.
  const std::shared_ptr<const ProbingStrategy> strategy =
      PlanFor(QuorumStrategy::kBroadcast);

  uint64_t best_version = config_.config_version;
  HostId best_host = kInvalidHost;
  for (const QuorumCandidate& candidate : strategy->order) {
    Result<VersionResp> resp = co_await rpc_->Call<VersionInquiryReq, VersionResp>(
        candidate.host, VersionInquiryReq{config_.suite_name}, options_.probe_timeout);
    if (resp.ok() && resp.value().config_version > best_version) {
      best_version = resp.value().config_version;
      best_host = candidate.host;
    }
  }
  if (best_host == kInvalidHost) {
    co_return Status::Ok();  // nobody has anything newer
  }
  Result<PrefixReadResp> prefix = co_await rpc_->Call<PrefixReadReq, PrefixReadResp>(
      best_host, PrefixReadReq{config_.suite_name}, options_.data_timeout);
  if (!prefix.ok()) {
    co_return prefix.status();
  }
  Result<SuiteConfig> parsed = SuiteConfig::Parse(prefix.value().config_bytes);
  if (!parsed.ok()) {
    co_return parsed.status();
  }
  WVOTE_CO_RETURN_IF_ERROR(parsed.value().Validate());
  if (parsed.value().config_version > config_.config_version) {
    config_ = std::move(parsed.value());
  }
  co_return Status::Ok();
}

Task<Status> SuiteClient::Reconfigure(SuiteConfig new_config, int retries) {
  if (new_config.suite_name != config_.suite_name) {
    co_return InvalidArgumentError("reconfigure must keep the suite name");
  }
  WVOTE_CO_RETURN_IF_ERROR(new_config.Validate());

  const int64_t original_timestamp = net_->sim()->Now().ToMicros();
  Status last = InternalError("no attempts");
  for (int attempt = 0; attempt < retries; ++attempt) {
    SuiteConfig candidate = new_config;
    candidate.config_version = config_.config_version + 1;
    // Retain the first attempt's timestamp: under wait-die the retry only
    // ever ages, so it eventually beats the stream of younger transactions.
    last = co_await TryReconfigure(std::move(candidate),
                                   coordinator_->BeginAt(original_timestamp));
    if (last.ok() || !Retryable(last)) {
      co_return last;
    }
    ++stats_.retries;
    co_await net_->sim()->Sleep(JitteredBackoff(
        net_->sim()->rng(), attempt,
        BackoffPolicy(Duration::Millis(2), Duration::Millis(400), 2.0)));
  }
  co_return last;
}

Task<Status> SuiteClient::TryReconfigure(SuiteConfig new_config, TxnId txn) {
  std::shared_ptr<SuiteTransaction::State> state = NewState();
  state->txn = txn;
  if (Tracer* tracer = net_->tracer()) {
    state->trace = tracer->StartRoot(rpc_->host_id(), "client.reconfigure");
    if (state->trace.valid()) {
      tracer->Annotate(state->trace, "txn=" + txn.ToString());
    }
  }

  // Write quorum under the OLD configuration (the paper's rule for changing
  // the prefix).
  Status gathered = co_await Gather(state, /*exclusive=*/true);
  if (!gathered.ok()) {
    co_await DoAbort({&state, 1});
    co_return gathered;
  }

  // Current contents, needed to initialize members new to the suite.
  const GatherResult& gather = state->gather;
  std::string contents;
  if (gather.current > 0) {
    Result<SuiteReadResp> data = co_await FetchData(state);
    if (!data.ok()) {
      co_await DoAbort({&state, 1});
      co_return data.status();
    }
    contents = std::move(data.value().contents);
  }
  const Version next = gather.current + 1;

  // Exclusive locks at every new-config member that we do not already hold.
  std::set<HostId> targets;
  for (const ProbeReply& r : gather.replies) {
    targets.insert(r.candidate.host);
  }
  for (const RepresentativeInfo& rep : new_config.representatives) {
    if (rep.weak()) {
      continue;  // weak representatives are client-side caches, not servers
    }
    const HostId host = links_.Resolve(rep.host_name);
    if (targets.count(host) != 0) {
      continue;
    }
    state->probed.Insert(host);
    Result<VersionResp> locked = co_await rpc_->Call<TxnVersionReq, VersionResp>(
        host, TxnVersionReq{state->txn, config_.suite_name, LockMode::kExclusive},
        options_.probe_timeout, state->trace);
    if (!locked.ok()) {
      co_await DoAbort({&state, 1});
      co_return locked.status();
    }
    targets.insert(host);
  }

  // The new prefix is also written at every target, so it needs its own
  // exclusive lock (Prepare refuses intents whose keys are unlocked).
  for (HostId host : targets) {
    state->probed.Insert(host);
    Result<Ack> locked = co_await rpc_->Call<LockReq, Ack>(
        host, LockReq{state->txn, SuitePrefixKey(config_.suite_name), LockMode::kExclusive},
        options_.probe_timeout, state->trace);
    if (!locked.ok()) {
      co_await DoAbort({&state, 1});
      co_return locked.status();
    }
  }

  // Atomically install the new prefix and the (re-versioned) current value
  // at every target; both serialize once, every target shares the buffers.
  const SharedPayload prefix_bytes(new_config.Serialize());
  const SharedPayload value_bytes(VersionedValue{next, contents}.Serialize());
  stats_.commit_bytes_serialized += prefix_bytes.size() + value_bytes.size();
  for (HostId host : targets) {  // ascending, as CommitTransaction wants
    state->intents.push_back(
        WriterIntents{host,
                      {WriteIntent(SuitePrefixKey(config_.suite_name), prefix_bytes),
                       WriteIntent(value_key_, value_bytes)}});
  }
  Status st = co_await DoCommit({&state, 1});
  if (st.ok()) {
    if (TraceLog* trace = net_->trace()) {
      trace->Record(rpc_->host_id(), TraceKind::kReconfigured, new_config.ToString());
    }
    config_ = std::move(new_config);
  }
  co_return st;
}

}  // namespace wvote
