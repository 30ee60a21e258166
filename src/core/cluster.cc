#include "src/core/cluster.h"

#include <cstdio>
#include <utility>

#include "src/obs/flight_recorder.h"

namespace wvote {

Cluster::Cluster(ClusterOptions options)
    : options_(options), sim_(options.seed), trace_(&sim_), tracer_(&sim_), net_(&sim_) {
  net_.SetDefaultLink(options_.default_link);
  net_.SetTraceLog(&trace_);
  // Before any host is added: every component picks the tracer up from the
  // network at construction time.
  net_.SetTracer(&tracer_);
  tracer_.RegisterMetrics(&metrics_);
  tracer_.SetHostNamer([this](HostId id) {
    Host* host = net_.host(id);
    return host != nullptr ? host->name() : std::to_string(id);
  });
  net_.RegisterMetrics(&metrics_);
  sim_.RegisterMetrics(&metrics_);
  if (options_.scrape_resolution > Duration::Zero()) {
    EnableScraping(options_.scrape_resolution);
  }
}

void Cluster::EnableScraping(Duration resolution) {
  if (scraper_ != nullptr) {
    return;
  }
  ScraperOptions sopts;
  sopts.resolution = resolution;
  sopts.window_capacity = options_.scrape_window_capacity;
  scraper_ = std::make_unique<Scraper>(&metrics_, sopts);
  slo_ = std::make_unique<SloEngine>(SloEngine::DefaultRules());
  slo_->AddListener([this](const SloEvent& ev) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s value=%.4g limit=%.4g", ev.rule.c_str(), ev.value,
                  ev.limit);
    trace_.Record(kInvalidHost, ev.breach ? TraceKind::kSloBreach : TraceKind::kSloRecovered,
                  buf);
  });
  scraper_->AddObserver(
      [this](TimePoint now, const TimeSeriesStore& store) { slo_->Evaluate(now, store); });
  // The metronome fires outside the timer wheel: no event nodes, no
  // sequence numbers, so replays with and without scraping are bit-exact.
  sim_.SetMetronome(resolution, [this](TimePoint now) { scraper_->ScrapeAt(now); });
}

std::string Cluster::DumpFlightRecord(size_t windows, size_t trace_lines) const {
  if (scraper_ == nullptr) {
    return "";
  }
  std::vector<std::string> tail;
  const std::string dump = trace_.Dump(trace_lines);
  size_t start = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    if (end == std::string::npos) {
      end = dump.size();
    }
    if (end > start) {
      tail.push_back(dump.substr(start, end - start));
    }
    start = end + 1;
  }
  return wvote::DumpFlightRecord(scraper_->store(), slo_.get(), tail, windows);
}

RepresentativeServer* Cluster::AddRepresentative(const std::string& host_name) {
  WVOTE_CHECK_MSG(reps_.find(host_name) == reps_.end(), "duplicate representative host");
  Host* host = net_.AddHost(host_name);
  auto server = std::make_unique<RepresentativeServer>(&net_, host, options_.rep_options);
  server->RegisterMetrics(&metrics_);
  RepresentativeServer* raw = server.get();
  reps_[host_name] = std::move(server);
  return raw;
}

SuiteClient* Cluster::AddClient(const std::string& host_name, const SuiteConfig& config,
                                SuiteClientOptions client_options, bool with_cache) {
  auto it = clients_.find(host_name);
  if (it == clients_.end()) {
    Host* host = net_.AddHost(host_name);
    ClientStack stack;
    stack.rpc = std::make_unique<RpcEndpoint>(&net_, host);
    stack.store =
        std::make_unique<StableStore>(&sim_, host, options_.rep_options.disk_write_latency,
                                      options_.rep_options.disk_read_latency);
    stack.coordinator = std::make_unique<Coordinator>(stack.rpc.get(), stack.store.get(),
                                                      options_.coordinator_options);
    // The coordinator's decision log writes to this store; without the
    // tracer its phase.disk spans would silently vanish.
    stack.store->SetTracer(&tracer_);
    stack.health = std::make_unique<HealthTracker>(&sim_, host_name);
    stack.rpc->SetPeerHealth(stack.health.get());
    stack.rpc->RegisterMetrics(&metrics_);
    stack.store->RegisterMetrics(&metrics_);
    stack.coordinator->RegisterMetrics(&metrics_);
    stack.health->RegisterMetrics(&metrics_);
    it = clients_.emplace(host_name, std::move(stack)).first;
  }
  ClientStack& stack = it->second;
  // Per-peer health gauges (srtt / suspicion / breaker) for every voting
  // representative this client can probe — this is what lets the scraper's
  // sparklines show a host going gray and recovering. Idempotent per peer,
  // so overlapping suites on one client host register each rep once.
  for (const RepresentativeInfo& rep : config.representatives) {
    if (rep.weak()) {
      continue;
    }
    if (Host* peer = net_.FindHost(rep.host_name)) {
      stack.health->RegisterPeerMetrics(&metrics_, peer->id(), rep.host_name);
    }
  }
  if (with_cache && !stack.cache) {
    stack.cache = std::make_unique<WeakRepresentative>(stack.rpc->host());
    stack.cache->RegisterMetrics(&metrics_);
  }
  auto client = std::make_unique<SuiteClient>(&net_, stack.rpc.get(), stack.coordinator.get(),
                                              config, client_options);
  client->SetHealth(stack.health.get());
  client->RegisterMetrics(&metrics_);
  if (with_cache) {
    client->AttachCache(stack.cache.get());
  }
  SuiteClient* raw = client.get();
  stack.clients.push_back(std::move(client));
  return raw;
}

RepresentativeServer* Cluster::representative(const std::string& host_name) {
  auto it = reps_.find(host_name);
  return it == reps_.end() ? nullptr : it->second.get();
}

WeakRepresentative* Cluster::cache_of(const std::string& client_host_name) {
  auto it = clients_.find(client_host_name);
  return it == clients_.end() ? nullptr : it->second.cache.get();
}

Coordinator* Cluster::coordinator_of(const std::string& client_host_name) {
  auto it = clients_.find(client_host_name);
  return it == clients_.end() ? nullptr : it->second.coordinator.get();
}

HealthTracker* Cluster::health_of(const std::string& client_host_name) {
  auto it = clients_.find(client_host_name);
  return it == clients_.end() ? nullptr : it->second.health.get();
}

Status Cluster::CreateSuite(const SuiteConfig& config, const std::string& initial_contents) {
  WVOTE_RETURN_IF_ERROR(config.Validate());
  VersionedValue initial{1, initial_contents};
  for (const RepresentativeInfo& rep : config.representatives) {
    if (rep.weak()) {
      continue;  // weak representatives are client-side caches, not servers
    }
    RepresentativeServer* server = representative(rep.host_name);
    if (server == nullptr) {
      return NotFoundError("no representative server on host " + rep.host_name);
    }
    Status st = RunTask(server->BootstrapSuite(config, initial));
    WVOTE_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

}  // namespace wvote
