#include "workload.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>
#include <utility>

#include "alloc_count.h"
#include "src/analysis/gifford_examples.h"
#include "src/chaos/checker.h"
#include "src/core/cluster.h"
#include "src/sim/random.h"
#include "src/workload/fault_injector.h"

namespace wvbench {

using wvote::ChaosOp;
using wvote::ChaosOpType;
using wvote::Duration;
using wvote::Status;
using wvote::StatusCode;
using wvote::Task;
using wvote::TimePoint;

namespace {

// The history's stand-in for the bootstrap contents.
const char* const kInitialRecord = "initial";

// An op not acked within this long of its due time misses the SLO.
constexpr Duration kSlo = Duration::Seconds(1);
// Ops still unacked this long after the measured phase ends count as failed.
constexpr Duration kDrainLimit = Duration::Seconds(600);
// Untraced runs time the measured window in this many slices.
constexpr int kTimingSlices = 16;
// Traced runs advance in slices of this much simulated time (the busiest
// workload completes ~300 spans per simulated second) and harvest completed
// spans once a batch has built up, well before the tracer's 64Ki-span ring
// can wrap.
constexpr Duration kHarvestSlice = Duration::Seconds(50);
constexpr uint64_t kHarvestBatch = 20000;

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a, for run fingerprints.
class Hasher {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void Add(uint64_t v) { Add(&v, sizeof(v)); }
  void Add(int64_t v) { Add(&v, sizeof(v)); }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    Add(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t HashHistory(const std::vector<ChaosOp>& ops) {
  Hasher h;
  for (const ChaosOp& op : ops) {
    h.Add(static_cast<int64_t>(op.client));
    h.Add(static_cast<uint64_t>(op.type));
    h.Add(op.invoke.ToMicros());
    h.Add(op.response.ToMicros());
    h.Add(static_cast<uint64_t>(op.ok));
    h.Add(op.version);
    h.Add(op.value);
  }
  return h.value();
}

// One logical user op. Every attempt is a fresh transaction.
struct OpRecord {
  int client = 0;
  bool write = false;
  bool measured = false;  // due inside the measured window
  bool acked = false;
  int attempts = 0;
  StatusCode first_code = StatusCode::kOk;
  TimePoint due;
  TimePoint ack;

  OpRecord(int c, bool w, bool m, TimePoint d) : client(c), write(w), measured(m), due(d) {}
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options), rng_(options.seed * 0x9E3779B97F4A7C15ull + 17) {}

  RunResult Run() {
    const double t0 = WallSeconds();
    Setup();
    if (!options_.setup_only) {
      Measure();
      Drain();
      Summarize();
    }
    result_.total_wall_s = WallSeconds() - t0;
    return std::move(result_);
  }

 private:
  wvote::Simulator& sim() { return cluster_->sim(); }

  void Setup() {
    const double t0 = WallSeconds();
    wvote::ClusterOptions copts;
    copts.seed = options_.seed;
    // The default disk latencies (10 ms write, 5 ms read), jittered ±10%
    // like the links.
    copts.rep_options.disk_write_latency =
        wvote::LatencyModel::Uniform(Duration::Millis(9), Duration::Millis(11));
    copts.rep_options.disk_read_latency =
        wvote::LatencyModel::Uniform(Duration::Micros(4500), Duration::Micros(5500));
    cluster_ = std::make_unique<wvote::Cluster>(copts);
    cluster_->tracer().Enable(options_.traced);
    recorder_ = std::make_unique<wvote::HistoryRecorder>(&cluster_->sim());

    const wvote::GiffordExample ex = wvote::MakeGiffordExamples()[1];  // Example 2
    config_ = ex.config;
    for (const wvote::RepresentativeInfo& rep : config_.representatives) {
      cluster_->AddRepresentative(rep.host_name);
    }
    initial_ = std::string(spec_.file_bytes, 'i');
    WVOTE_CHECK_MSG(cluster_->CreateSuite(config_, initial_).ok(), "suite bootstrap failed");

    std::vector<std::string> hosts;
    for (int c = 0; c < spec_.clients; ++c) {
      hosts.push_back("client-" + std::to_string(c));
      clients_.push_back(cluster_->AddClient(hosts.back(), config_));
    }
    // The convergence observer probes every representative.
    wvote::SuiteClientOptions observer_options;
    observer_options.strategy = wvote::QuorumStrategy::kBroadcast;
    hosts.push_back("observer");
    observer_ = cluster_->AddClient(hosts.back(), config_, observer_options);
    wvote::Network& net = cluster_->net();
    for (const std::string& host : hosts) {
      for (const auto& [server, rtt] : ex.client_rtt) {
        const Duration one_way = rtt / 2;
        net.SetSymmetricLink(net.FindHost(host)->id(), net.FindHost(server)->id(),
                             wvote::LatencyModel::Uniform(one_way * 9 / 10, one_way * 11 / 10));
      }
    }

    start_ = sim().Now();
    warm_end_ = start_ + spec_.warmup;
    end_ = warm_end_ + spec_.window;
    if (spec_.churn) {
      fault_stats_.resize(config_.representatives.size());
      for (size_t i = 0; i < config_.representatives.size(); ++i) {
        wvote::Host* host = net.FindHost(config_.representatives[i].host_name);
        wvote::Spawn(CrashRestartCycle(host, options_.seed * 1000003u + i + 1,
                                       &fault_stats_[i]));
      }
    }
    if (spec_.open_loop) {
      wvote::Spawn(Arrivals());
    } else {
      for (int c = 0; c < spec_.clients; ++c) {
        wvote::Spawn(ClosedClient(c));
      }
    }
    sim().RunUntil(warm_end_);
    result_.setup_s = WallSeconds() - t0;
  }

  // Runs the measured window in slices, timing each: host cost per op is
  // the median over slices, which rides out short bursts of interference.
  // Traced runs harvest spans between slices, outside the timing.
  void Measure() {
    const wvote::MetricsSnapshot before = cluster_->metrics().Snapshot();
    spans_seen_ = cluster_->tracer().spans_completed();
    const int slices = options_.traced ? static_cast<int>((spec_.window.ToMicros() +
                                                           kHarvestSlice.ToMicros() - 1) /
                                                          kHarvestSlice.ToMicros())
                                       : kTimingSlices;
    const uint64_t a0 = ReadAllocCount();
    for (int i = 1; i <= slices; ++i) {
      const TimePoint t = warm_end_ + spec_.window * i / slices;
      const uint64_t issued = measured_issued_;
      SetAllocCounting(true);
      const double t0 = WallSeconds();
      sim().RunUntil(t);
      const double wall = WallSeconds() - t0;
      SetAllocCounting(false);
      result_.measured_wall_s += wall;
      if (measured_issued_ > issued) {
        result_.slice_us_per_op.push_back(wall * 1e6 /
                                          static_cast<double>(measured_issued_ - issued));
      }
      if (options_.traced &&
          (i == slices || cluster_->tracer().spans_completed() - spans_seen_ > kHarvestBatch)) {
        HarvestSpans();
      }
    }
    result_.allocs = ReadAllocCount() - a0;
    result_.delta = cluster_->metrics().Snapshot().Delta(before);
  }

  // Appends the phase spans completed since the last harvest that began in
  // the measured window.
  void HarvestSpans() {
    wvote::Tracer& tracer = cluster_->tracer();
    const uint64_t completed = tracer.spans_completed();
    const uint64_t fresh = completed - spans_seen_;
    spans_seen_ = completed;
    if (fresh == 0) {
      return;
    }
    const std::vector<wvote::Span> spans = tracer.Snapshot();
    size_t kept = 0;
    while (kept < spans.size() && !spans[kept].open) {
      ++kept;
    }
    WVOTE_CHECK_MSG(fresh <= kept, "tracer ring wrapped between span harvests");
    for (size_t i = kept - fresh; i < kept; ++i) {
      const wvote::Span& span = spans[i];
      if (span.name.rfind("phase.", 0) == 0 && span.begin >= warm_end_ && span.begin < end_) {
        result_.phases[span.name.substr(6)].push_back(span.duration().ToMicros());
      }
    }
  }

  void Drain() {
    const TimePoint limit = end_ + kDrainLimit;
    while (pending_ > 0 && sim().Now() < limit) {
      sim().RunFor(Duration::Seconds(1));
    }
    // Background phase 2, in-doubt resolution and refreshes settle.
    sim().RunFor(Duration::Seconds(30));
    if (options_.traced) {
      HarvestSpans();
      if (options_.chrome_events != nullptr) {
        bool first = options_.chrome_events->empty();
        // pid 0 is the harness's own host-time spans.
        cluster_->tracer().AppendChromeEvents(options_.chrome_events, &first, 1, spec_.name);
      }
    }

    std::optional<wvote::Result<wvote::VersionedValue>> final_read =
        cluster_->RunTaskFor(FinalRead(), Duration::Seconds(60));
    sim().RunFor(Duration::Seconds(10));  // refreshes of stale representatives land

    std::vector<ChaosOp> corrupted;
    const std::vector<ChaosOp>* history = &recorder_->ops();
    if (options_.corrupt_history) {
      corrupted = *history;
      CorruptOneRead(&corrupted);
      history = &corrupted;
    }
    if (options_.check_history) {
      const double t0 = WallSeconds();
      for (std::string& v : CheckHistoryWindowed(*history, kInitialRecord, 2000)) {
        result_.violations.push_back(std::move(v));
      }
      result_.check_wall_s = WallSeconds() - t0;
    }

    Hasher state;
    if (!final_read.has_value() || !final_read->ok()) {
      result_.violations.push_back("convergence: final broadcast read did not succeed");
    } else {
      const wvote::VersionedValue& last = final_read->value();
      wvote::Version max_acked = 1;
      for (const ChaosOp& op : *history) {
        if (op.ok && op.type == ChaosOpType::kWrite) {
          max_acked = std::max(max_acked, op.version);
        }
      }
      if (last.version < max_acked) {
        result_.violations.push_back("convergence: final read saw v" +
                                     std::to_string(last.version) + " below last acked v" +
                                     std::to_string(max_acked));
      }
      for (const wvote::RepresentativeInfo& rep : config_.representatives) {
        wvote::RepresentativeServer* server = cluster_->representative(rep.host_name);
        wvote::Result<wvote::VersionedValue> held =
            server->CurrentValue(config_.suite_name);
        if (!server->host()->up()) {
          result_.violations.push_back("convergence: " + rep.host_name +
                                       " still down after the drain");
        } else if (!held.ok() || held.value().version != last.version ||
                   held.value().contents != last.contents) {
          result_.violations.push_back(
              "convergence: " + rep.host_name + " holds v" +
              (held.ok() ? std::to_string(held.value().version) : std::string("?")) +
              ", final read saw v" + std::to_string(last.version));
        }
        state.Add(held.ok() ? held.value().version : 0);
      }
    }
    result_.history_ops = history->size();
    result_.history_hash = HashHistory(*history);
    state.Add(result_.history_hash);
    for (const auto& [key, value] : result_.delta.counters) {
      if (key.rfind("trace.", 0) != 0) {
        state.Add(key);
        state.Add(value);
      }
    }
    result_.fingerprint = state.value();
  }

  // Rewrites one read in the middle of the history as having seen the
  // bootstrap contents at version 1: a lost-write (stale) read.
  static void CorruptOneRead(std::vector<ChaosOp>* history) {
    std::vector<size_t> reads;
    for (size_t i = 0; i < history->size(); ++i) {
      const ChaosOp& op = (*history)[i];
      if (op.ok && op.type == ChaosOpType::kRead && op.version > 1) {
        reads.push_back(i);
      }
    }
    WVOTE_CHECK_MSG(!reads.empty(), "no read past version 1 to corrupt");
    ChaosOp& victim = (*history)[reads[reads.size() / 2]];
    victim.version = 1;
    victim.value = kInitialRecord;
  }

  void Summarize() {
    RunResult& r = result_;
    std::vector<std::pair<int64_t, int>> events;  // (time, 0 = ack / 1 = due)
    for (const OpRecord& op : ops_) {
      if (!op.measured) {
        continue;
      }
      ++r.ops;
      ++(op.write ? r.write_ops : r.read_ops);
      r.attempts += static_cast<uint64_t>(op.attempts);
      r.failed_attempts += static_cast<uint64_t>(op.attempts - (op.acked ? 1 : 0));
      // A first attempt that failed for any reason but a lock conflict met
      // a fault: no quorum, a timeout, or a crash mid-transaction.
      const bool unavailable =
          op.first_code != StatusCode::kOk && op.first_code != StatusCode::kConflict;
      if (op.write) {
        ++r.first_write_attempts;
        r.first_write_unavailable += unavailable ? 1 : 0;
      } else {
        ++r.first_read_attempts;
        r.first_read_unavailable += unavailable ? 1 : 0;
      }
      events.emplace_back(op.due.ToMicros(), 1);
      if (!op.acked) {
        ++r.slo_misses;
        continue;
      }
      ++r.acked;
      const Duration latency = op.ack - op.due;
      (op.write ? r.write_latency_us : r.read_latency_us).push_back(latency.ToMicros());
      if (latency > kSlo) {
        ++r.slo_misses;
      }
      events.emplace_back(op.ack.ToMicros(), 0);
    }
    // Longest stretch in which some measured op was due and none was acked.
    std::sort(events.begin(), events.end());
    int outstanding = 0;
    int64_t stretch_start = 0;
    for (const auto& [t, kind] : events) {
      if (kind == 1) {
        if (outstanding++ == 0) {
          stretch_start = t;
        }
      } else {
        r.max_outage_us = std::max(r.max_outage_us, t - stretch_start);
        stretch_start = t;
        --outstanding;
      }
    }
    if (outstanding > 0) {
      r.max_outage_us = std::max(r.max_outage_us, sim().Now().ToMicros() - stretch_start);
    }
    r.window_s = spec_.window.ToSeconds();
    const double span_us = static_cast<double>((end_ - start_).ToMicros());
    for (size_t i = 0; i < fault_stats_.size(); ++i) {
      r.up_fraction[config_.representatives[i].host_name] =
          1.0 - static_cast<double>(fault_stats_[i].total_downtime.ToMicros()) / span_us;
    }
  }

  // RunCrashRestartCycle's schedule (up for Exp(mttf), then down) with a
  // floor under each downtime: down for restart_floor + Exp(mttr -
  // restart_floor). Ends at end_ with the host up.
  Task<void> CrashRestartCycle(wvote::Host* host, uint64_t seed,
                               wvote::FaultInjectorStats* stats) {
    wvote::Rng rng(seed);
    const double mttf_us = static_cast<double>(spec_.mttf.ToMicros());
    const double tail_us = static_cast<double>((spec_.mttr - spec_.restart_floor).ToMicros());
    while (sim().Now() < end_) {
      co_await sim().Sleep(Duration::Micros(static_cast<int64_t>(rng.NextExponential(mttf_us))));
      if (sim().Now() >= end_) {
        break;
      }
      host->Crash();
      ++stats->crashes;
      const Duration down =
          spec_.restart_floor + Duration::Micros(static_cast<int64_t>(rng.NextExponential(tail_us)));
      co_await sim().Sleep(down);
      stats->total_downtime += down;
      host->Restart();
    }
  }

  size_t NewOp(int client, bool write) {
    HarnessScope harness;
    const TimePoint now = sim().Now();
    const bool measured = now >= warm_end_ && now < end_;
    ops_.emplace_back(client, write, measured, now);
    measured_issued_ += measured ? 1 : 0;
    ++pending_;
    return ops_.size() - 1;
  }

  // Full-jitter exponential backoff: uniform in (0, 2 * base], base 20 ms
  // doubling to 640 ms. Uniform over the whole range keeps the retry
  // latency distribution free of steps, so tail quantiles stay smooth.
  Duration Backoff(int attempt) {
    const uint64_t base_us = uint64_t{20000} << std::min(attempt - 1, 5);
    return Duration::Micros(static_cast<int64_t>(1 + rng_.NextBelow(2 * base_us)));
  }

  Task<void> ClosedClient(int client) {
    while (sim().Now() < end_) {
      const size_t index = NewOp(client, rng_.NextBernoulli(spec_.write_fraction));
      std::optional<Task<void>> op;
      {
        HarnessScope harness;
        op.emplace(RunOp(index));
      }
      co_await std::move(*op);
    }
  }

  // Poisson arrivals, round-robin over the client hosts. The op frame is
  // created outside the allocation count; Spawn's detached wrapper frame
  // (one allocation per op) is counted.
  Task<void> Arrivals() {
    const double mean_gap_us = 1e6 / spec_.arrival_rate;
    int next = 0;
    while (true) {
      const int64_t gap = std::max<int64_t>(1, static_cast<int64_t>(
                                                   rng_.NextExponential(mean_gap_us)));
      co_await sim().Sleep(Duration::Micros(gap));
      if (sim().Now() >= end_) {
        break;
      }
      const size_t index =
          NewOp(next++ % spec_.clients, rng_.NextBernoulli(spec_.write_fraction));
      std::optional<Task<void>> op;
      {
        HarnessScope harness;
        op.emplace(RunOp(index));
      }
      wvote::Spawn(std::move(*op));
    }
  }

  // Write attempt `attempt` of op `index` writes its unique tag padded with
  // 'x' to the file size.
  static std::string Tag(size_t index, int attempt) {
    return "o" + std::to_string(index) + ".a" + std::to_string(attempt) + ".";
  }
  std::string Padded(std::string tag) const {
    tag.resize(std::max(tag.size(), spec_.file_bytes), 'x');
    return tag;
  }

  // What the history records for file contents: a well-formed payload as
  // its tag and the bootstrap contents as kInitialRecord, which keeps a long
  // history small; anything else verbatim, so a damaged copy still fails
  // R-VALUE.
  std::string Recorded(const std::string& contents) const {
    if (contents == initial_) {
      return kInitialRecord;
    }
    std::string tag = contents.substr(0, contents.find_last_of('.') + 1);
    return !tag.empty() && Padded(tag) == contents ? tag : contents;
  }

  Task<void> RunOp(size_t index) {
    const int c = ops_[index].client;
    const bool write = ops_[index].write;
    wvote::SuiteClient* client = clients_[static_cast<size_t>(c)];
    wvote::Tracer& tracer = cluster_->tracer();
    const wvote::TraceContext op_span =
        tracer.StartRoot(client->rpc()->host_id(), write ? "bench.write" : "bench.read");
    Status st = Status::Ok();
    int attempt = 0;
    for (;; ++attempt) {
      if (attempt > 0) {
        co_await sim().Sleep(Backoff(attempt));
      }
      if (write) {
        std::string payload;
        uint64_t id = 0;
        {
          HarnessScope harness;
          std::string tag = Tag(index, attempt);
          payload = Padded(tag);
          id = recorder_->Invoke(c, config_.suite_name, ChaosOpType::kWrite, std::move(tag));
        }
        wvote::SuiteTransaction txn = client->Begin(op_span);
        st = txn.Write(std::move(payload));
        if (st.ok()) {
          st = co_await txn.Commit();
        } else {
          co_await txn.Abort();
        }
        HarnessScope harness;
        recorder_->Complete(id, st, txn.committed_version());
      } else {
        uint64_t id = 0;
        {
          HarnessScope harness;
          id = recorder_->Invoke(c, config_.suite_name, ChaosOpType::kRead);
        }
        wvote::SuiteTransaction txn = client->Begin(op_span);
        wvote::Result<wvote::VersionedValue> vv = co_await txn.ReadVersioned();
        st = vv.status();
        if (st.ok()) {
          st = co_await txn.Commit();
        } else {
          co_await txn.Abort();
        }
        HarnessScope harness;
        if (st.ok()) {
          recorder_->Complete(id, st, vv.value().version, Recorded(vv.value().contents));
        } else {
          recorder_->Complete(id, st, 0);
        }
      }
      if (attempt == 0) {
        ops_[index].first_code = st.code();
      }
      if (st.ok() || sim().Now() > end_ + kDrainLimit) {
        break;
      }
    }
    OpRecord& op = ops_[index];
    op.attempts = attempt + 1;
    op.acked = st.ok();
    op.ack = sim().Now();
    --pending_;
    tracer.End(op_span);
  }

  // The post-drain convergence read, recorded like any other op: it must
  // observe every acknowledged write.
  Task<wvote::Result<wvote::VersionedValue>> FinalRead() {
    const uint64_t id = recorder_->Invoke(-1, config_.suite_name, ChaosOpType::kRead);
    wvote::SuiteTransaction txn = observer_->Begin();
    wvote::Result<wvote::VersionedValue> vv = co_await txn.ReadVersioned();
    Status st = vv.status();
    if (st.ok()) {
      st = co_await txn.Commit();
    } else {
      co_await txn.Abort();
    }
    if (!st.ok()) {
      recorder_->Complete(id, st, 0);
      co_return st;
    }
    recorder_->Complete(id, st, vv.value().version, Recorded(vv.value().contents));
    co_return vv;
  }

  const WorkloadSpec spec_;
  const RunOptions options_;
  wvote::Rng rng_;  // the harness's own stream: op mix, arrivals, backoff
  std::unique_ptr<wvote::Cluster> cluster_;
  std::unique_ptr<wvote::HistoryRecorder> recorder_;
  wvote::SuiteConfig config_;
  std::string initial_;
  std::vector<wvote::SuiteClient*> clients_;
  wvote::SuiteClient* observer_ = nullptr;
  std::vector<wvote::FaultInjectorStats> fault_stats_;
  std::vector<OpRecord> ops_;
  uint64_t pending_ = 0;
  uint64_t measured_issued_ = 0;
  uint64_t spans_seen_ = 0;
  TimePoint start_;
  TimePoint warm_end_;
  TimePoint end_;
  RunResult result_;
};

}  // namespace

std::optional<WorkloadSpec> MakeSpec(const std::string& name, double scale) {
  WorkloadSpec spec;
  spec.name = name;
  // Warm-up spans roughly 300 ops on every workload.
  if (name == "read_mostly") {
    spec.warmup = Duration::Seconds(30);
    spec.clients = 4;
    spec.write_fraction = 0.05;
    spec.file_bytes = 64;
    spec.window = Duration::Seconds(12000);
  } else if (name == "write_contended") {
    spec.warmup = Duration::Seconds(60);
    spec.clients = 8;
    spec.write_fraction = 0.5;
    spec.file_bytes = 1024;
    spec.window = Duration::Seconds(12000);
  } else if (name == "churn_open") {
    spec.warmup = Duration::Seconds(300);
    spec.open_loop = true;
    spec.clients = 4;
    spec.write_fraction = 0.2;
    spec.file_bytes = 64;
    spec.arrival_rate = 1.0;
    spec.churn = true;
    spec.mttf = Duration::Seconds(20);
    spec.mttr = Duration::Seconds(2);
    spec.restart_floor = Duration::Seconds(1);
    spec.window = Duration::Seconds(60000);
  } else {
    return std::nullopt;
  }
  spec.window = Duration::Micros(static_cast<int64_t>(spec.window.ToMicros() * scale));
  return spec;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  WorkloadRun run(spec, options);
  return run.Run();
}

std::vector<std::string> CheckHistoryWindowed(const std::vector<ChaosOp>& ops,
                                              const std::string& initial, size_t window) {
  std::vector<std::string> out;
  std::unordered_map<std::string, size_t> writer;  // payload -> write attempt
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].type == ChaosOpType::kWrite) {
      writer.emplace(ops[i].value, i);
    }
  }
  std::set<std::string> seen;  // one report per violation across overlaps
  for (size_t begin = 0;; begin += window / 2) {
    const size_t end = std::min(ops.size(), begin + window);
    std::vector<ChaosOp> sub(ops.begin() + static_cast<std::ptrdiff_t>(begin),
                             ops.begin() + static_cast<std::ptrdiff_t>(end));
    std::set<size_t> extra;
    for (const ChaosOp& op : sub) {
      if (op.ok && op.type == ChaosOpType::kRead && op.version != 1) {
        auto it = writer.find(op.value);
        if (it != writer.end() && (it->second < begin || it->second >= end)) {
          extra.insert(it->second);
        }
      }
    }
    for (size_t i : extra) {
      sub.push_back(ops[i]);
    }
    for (const wvote::ChaosViolation& v : wvote::CheckHistory(sub, initial).violations) {
      std::string key = v.rule;
      for (uint64_t id : v.op_ids) {
        key += " " + std::to_string(id);
      }
      if (seen.insert(key).second) {
        out.push_back(v.rule + ": " + v.description);
      }
    }
    if (end == ops.size()) {
      break;
    }
  }
  return out;
}

}  // namespace wvbench
