// SuiteClient: the client half of weighted voting (the paper's algorithm).
//
// A transaction on a file suite proceeds exactly as in Gifford '79:
//
//  Read:  poll representatives for version numbers under shared locks until
//         the answered votes reach the read quorum r. The largest version in
//         the gathered set is the current version (r + w > V guarantees the
//         set intersects the last write quorum). Serve the data from the
//         cheapest current representative — or from a weak representative's
//         cache if its copy is at the current version.
//
//  Write: poll under exclusive locks until votes reach the write quorum w.
//         The new version is (current + 1), where current is the gathered
//         maximum (2w > V makes this well-defined across writers). Install
//         the new versioned contents at every gathered member atomically via
//         two-phase commit.
//
//  Both:  stale representatives observed during a gather are brought current
//         in the background (best-effort refresh); representatives whose
//         prefix reports a newer configuration trigger a prefix re-fetch and
//         a retry under the new configuration.
//
// Quorum probing is round-based: probe the preferred quorum (by strategy),
// and widen to fallback representatives when members time out, until the
// votes are reached or the candidate list is exhausted (UNAVAILABLE).

#ifndef WVOTE_SRC_CORE_SUITE_CLIENT_H_
#define WVOTE_SRC_CORE_SUITE_CLIENT_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/health.h"
#include "src/core/messages.h"
#include "src/core/quorum.h"
#include "src/core/suite_config.h"
#include "src/core/weak_rep.h"
#include "src/rpc/rpc.h"
#include "src/txn/coordinator.h"

namespace wvote {

struct SuiteClientOptions {
  Duration probe_timeout = Duration::Seconds(2);
  Duration data_timeout = Duration::Seconds(5);
  // Probing policy. Probabilistic policies sample each operation's quorum
  // from the suite's seeded RNG, so replays stay bit-exact.
  QuorumStrategy strategy = QuorumStrategy::kLowestLatency;
  bool background_refresh = true;
  // Fast-path reads: ask the probe target most likely to be both cheapest
  // and current to piggyback its contents on the version reply, making the
  // common-case read one round trip. The piggybacked copy is used only if
  // the gathered quorum proves it current; otherwise the read falls back to
  // an explicit data fetch. Never weakens strict-quorum semantics.
  bool fastpath_reads = true;

  // Gray-failure tolerance. Off by default and inert until SetHealth()
  // attaches a tracker, so default runs stay schedule-identical to
  // pre-health builds (the determinism goldens depend on that). On, it arms
  // two responses together; every call still waits out the one timeout
  // configured above:
  //  - hedged probes: version probes hedge to the next-ranked unprobed
  //    candidate after a p95-ish delay; the first reply wins and the loser
  //    is dropped idempotently at the RPC layer. Vote accounting stays
  //    exact: a winning backup is credited once and never probed again
  //    (see GatherMachine).
  //  - breaker and latency demotion: a breaker-open or latency-inflated host
  //    sorts to the back of the candidate order (and deterministic plans
  //    re-rank by observed latency), but is still probed when its votes are
  //    required — availability never hinges on the advisory signal.
  bool gray_tolerance = false;
};

struct SuiteClientStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t cache_hits = 0;
  uint64_t fastpath_hits = 0;         // reads served from piggybacked probe data
  uint64_t fastpath_misses = 0;       // reads that needed the explicit data fetch
  uint64_t fastpath_bytes_saved = 0;  // data-fetch reply bytes avoided by piggybacking
  uint64_t plan_builds = 0;           // quorum plans actually computed (cache misses)
  uint64_t probes_sent = 0;
  uint64_t gather_rounds = 0;
  uint64_t config_refreshes = 0;
  uint64_t refreshes_spawned = 0;
  uint64_t unavailable = 0;        // total failed gathers (both kinds)
  uint64_t read_unavailable = 0;   // shared-lock gathers that missed r
  uint64_t write_unavailable = 0;  // exclusive-lock gathers that missed w
  uint64_t conflicts = 0;
  uint64_t retries = 0;  // one-shot helper attempts after the first
  uint64_t breaker_demotions = 0;  // candidates pushed to the back of a
                                   // probe order by an open breaker
  uint64_t hedged_probes = 0;      // probes launched with a backup armed
  uint64_t commit_bytes_serialized = 0;  // versioned-value bytes built by
                                         // commits (once per commit, however
                                         // wide the write quorum)

  void Reset() { *this = SuiteClientStats{}; }
  // Registers every field as `core.suite_client.*{labels}`; this struct
  // must outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {});
};

class SuiteClient;

// One transaction against one suite. Obtain from SuiteClient::Begin(); end
// with Commit() or Abort() (Abort also runs from the destructor as a
// safety net for abandoned transactions). The transaction must outlive the
// task Commit() returns.
class SuiteTransaction {
 public:
  SuiteTransaction(SuiteTransaction&&) = default;
  SuiteTransaction& operator=(SuiteTransaction&&) = default;
  ~SuiteTransaction();

  // Quorum read of the suite contents. Repeated reads in one transaction
  // are served from the first read's result; a read after Write() returns
  // the buffered new contents.
  Task<Result<std::string>> Read();

  // Read that also reports the version observed.
  Task<Result<VersionedValue>> ReadVersioned();

  // Buffers new contents; durable only after Commit(). Whole-file
  // semantics, as in the paper.
  Status Write(std::string contents);

  Task<Status> Commit();
  Task<void> Abort();

  bool finished() const;

  // Version a successful write Commit() installed; 0 before that (and for
  // read-only transactions). History recorders use it to tie the ack to a
  // point in the suite's version order.
  Version committed_version() const;

 private:
  friend class SuiteClient;
  friend class MultiSuiteTransaction;
  struct State;
  explicit SuiteTransaction(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class SuiteClient {
 public:
  // `rpc` and `coordinator` live on the client's host. `config` is the
  // client's (possibly stale) view of the suite prefix.
  SuiteClient(Network* net, RpcEndpoint* rpc, Coordinator* coordinator, SuiteConfig config,
              SuiteClientOptions options = {});

  // Attaches a weak representative (cache) on this client's host.
  void AttachCache(WeakRepresentative* cache) { cache_ = cache; }

  // Attaches the per-host health tracker consulted by gray_tolerance.
  // Without a tracker it is inert.
  void SetHealth(HealthTracker* health) { health_ = health; }
  HealthTracker* health() { return health_; }

  // Begins a transaction. A valid `parent` makes the transaction's
  // "client.txn" span a child of it (the one-shot helpers pass their root
  // span so retried attempts land under one tree); with tracing enabled and
  // no parent, the transaction span is itself a root.
  SuiteTransaction Begin(TraceContext parent = TraceContext());

  // One-shot helpers with bounded retry on lock conflicts: each retry is a
  // fresh transaction.
  Task<Result<std::string>> ReadOnce(int retries = 8);
  Task<Status> WriteOnce(std::string contents, int retries = 8);

  // Reads the current prefix from any representative and adopts it if newer.
  Task<Status> RefreshConfigFromPrefix();

  // Changes the suite's vote assignment / quorums: installs the new prefix
  // and the current contents at (old write quorum) ∪ (all new members),
  // atomically, under the OLD configuration's write rules. Lock conflicts
  // with concurrent transactions are retried (keeping the first attempt's
  // timestamp, so wait-die guarantees progress).
  Task<Status> Reconfigure(SuiteConfig new_config, int retries = 10);

  const SuiteConfig& config() const { return config_; }
  const SuiteClientStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.Reset();
    probe_counts_.clear();
  }
  RpcEndpoint* rpc() { return rpc_; }

  // Swaps the probing policy at runtime (e.g. chaos sweeps rotating
  // strategies mid-run); each policy has its own cached strategy slot.
  void SetStrategy(QuorumStrategy strategy) { options_.strategy = strategy; }

  // Observed probe distribution since the last stats reset: this client's
  // probes to `host` divided by all its probes (0 when idle), the max such
  // share, and a Gini coefficient of the shares (0 = perfectly even,
  // -> 1 = one-host hotspot). Exported as core.planner.* gauges.
  double ProbeShareOf(const std::string& host) const;
  double MaxProbeShare() const;
  double ProbeShareGini() const;

  // The solver's expected max probe share for the active policy, if a
  // strategy is cached (1.0 for deterministic policies with a cached plan,
  // 0.0 when nothing is cached yet).
  double ExpectedMaxShare() const;

  // Registers this client's counters, labeled by host and suite name.
  void RegisterMetrics(MetricsRegistry* registry);

 private:
  friend class SuiteTransaction;
  friend class MultiSuiteTransaction;

  // Both carry user-declared constructors per the GCC 12 rule in
  // src/sim/task.h (they travel by value through coroutine machinery).
  struct ProbeReply {
    QuorumCandidate candidate;  // the representative that answered
    VersionResp resp;

    ProbeReply() = default;
    ProbeReply(QuorumCandidate c, VersionResp r) : candidate(std::move(c)), resp(std::move(r)) {}
  };
  struct GatherResult {
    std::vector<ProbeReply> replies;
    Version current = 0;
    uint64_t max_config_version = 0;

    GatherResult() = default;
    // Empties the result, keeping the replies' capacity.
    void Clear() {
      replies.clear();
      current = 0;
      max_config_version = 0;
    }
  };

  // A transaction state for a new transaction: a pooled one that nothing
  // but the pool still holds (its transaction ended and no straggler probe
  // pins it), else a fresh one, pooled while the pool has room.
  std::shared_ptr<SuiteTransaction::State> NewState();

  // This client's probes to `host` since the last stats reset.
  uint64_t ProbeCountOf(const std::string& host) const;

  // Cached probing strategy for this client's config under `policy` (built
  // once per config version; see PlanCache).
  // Shared ownership keeps a strategy alive for gathers suspended across a
  // cache invalidation.
  std::shared_ptr<const ProbingStrategy> PlanFor(QuorumStrategy policy);

  // Records a version observed at a representative (probe reply, data
  // fetch, or this client's own commit) in the version-hint cache.
  void NoteVersion(HostId host, Version version);

  // The probe of `machine`'s round (an index into round()) most likely to
  // be both cheapest and current, judged from the version-hint cache;
  // round().size() when a piggyback request is not worth sending (e.g. the
  // local weak-rep cache already holds the hinted version).
  size_t PickFastPathTarget(const GatherMachine& machine) const;

  // Quorum gather for the read quorum (shared locks) or, with `exclusive`,
  // the write quorum, into `state->gather`: drives the state's
  // GatherMachine, sending its rounds' probes and crediting their replies.
  // Records every host it probes in the transaction state, and releases
  // stragglers that answer after the transaction ended. With `want_data`,
  // one first-round probe asks for piggybacked contents.
  Task<Status> Gather(std::shared_ptr<SuiteTransaction::State> state, bool exclusive,
                      bool want_data = false);

  // Gather under the newest configuration: a gather that meets a newer
  // prefix re-fetches it and starts over, up to kMaxConfigRetries times.
  Task<Status> GatherFollowingConfig(std::shared_ptr<SuiteTransaction::State> state,
                                     bool exclusive, bool want_data = false);

  // Fetches contents from the cheapest current member of `state->gather`.
  Task<Result<SuiteReadResp>> FetchData(std::shared_ptr<SuiteTransaction::State> state);

  // Best-effort background update of stale representatives.
  void SpawnRefreshes(const GatherResult& gather, Version current, const std::string& contents);

  Task<Result<std::string>> DoRead(std::shared_ptr<SuiteTransaction::State> state);

  // The states of one transaction: one per suite it touched, all sharing
  // one TxnId, one trace span and the coordinator of the clients' host.
  using States = std::span<const std::shared_ptr<SuiteTransaction::State>>;

  // The one commit path of every suite transaction. Gathers a write quorum
  // for each state with a pending write (following newer configurations),
  // then runs one two-phase commit over those intents plus any the first
  // state already holds (a reconfiguration's) and releases every other
  // probed host. On success each written suite's client records the new
  // version; on failure every lock is released. `states` must outlive the
  // returned task.
  static Task<Status> DoCommit(States states);
  // The one abort path: releases every probed host of every state. Reads
  // `states` only before its first suspension, so a destructor may pass
  // its own members.
  static Task<void> DoAbort(States states);
  Task<Status> TryReconfigure(SuiteConfig new_config, TxnId txn);

  // ReadOnce's and WriteOnce's shared retry loop under one `span_name` root
  // span: each attempt is a fresh transaction that commits `write`, or with
  // no `write` reads and commits. Retryable failures back off and retry.
  Task<Result<std::string>> RunOnce(const char* span_name, std::optional<std::string> write,
                                    int retries);

  Network* net_;
  RpcEndpoint* rpc_;
  Coordinator* coordinator_;
  SuiteConfig config_;
  // SuiteValueKey(config_.suite_name), which no reconfiguration changes.
  const std::string value_key_;
  SuiteClientOptions options_;
  WeakRepresentative* cache_ = nullptr;
  HealthTracker* health_ = nullptr;
  SuiteClientStats stats_;
  // Quorum strategies memoized per (config_version, policy);
  // counts builds into stats_.plan_builds.
  PlanCache plan_cache_;
  // Shared host-id / link-latency lookup for plan building, strategy
  // solving, and the few lookups outside a plan (one memo instead of three).
  mutable HostLinkCache links_;
  // Probes sent per representative host since the last stats reset, indexed
  // by HostId; feeds the core.planner.* load gauges.
  std::vector<uint64_t> probe_counts_;
  // Version-hint cache: the newest committed version this client has
  // evidence of, and the last version observed at each representative
  // (indexed by HostId). Purely advisory — used to aim the piggyback
  // request, never to decide currency (that always takes a quorum).
  Version hint_version_ = 0;
  std::vector<Version> rep_version_hints_;
  // Transaction states recycled by NewState().
  std::vector<std::shared_ptr<SuiteTransaction::State>> state_pool_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_SUITE_CLIENT_H_
