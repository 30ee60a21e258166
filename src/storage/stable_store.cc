#include "src/storage/stable_store.h"

#include <utility>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace wvote {

StableStore::StableStore(Simulator* sim, Host* host, LatencyModel write_latency,
                         LatencyModel read_latency)
    : sim_(sim), host_(host), write_latency_(write_latency), read_latency_(read_latency) {}

void StableStoreStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("storage.stable_store.writes_started", labels, &writes_started);
  registry->RegisterCounter("storage.stable_store.writes_completed", labels,
                            &writes_completed);
  registry->RegisterCounter("storage.stable_store.writes_torn", labels, &writes_torn);
  registry->RegisterCounter("storage.stable_store.reads", labels, &reads);
  registry->RegisterCounter("storage.group_commit_batches", labels, &group_commit_batches);
  registry->RegisterCounter("storage.group_commit_writes_coalesced", labels,
                            &group_commit_coalesced);
  registry->RegisterCounter("storage.stable_store.injected_write_failures", labels,
                            &injected_write_failures);
  registry->RegisterCounter("storage.stable_store.injected_torn_flushes", labels,
                            &injected_torn_flushes);
  registry->RegisterCounter("storage.stable_store.injected_slow_ops", labels,
                            &injected_slow_ops);
  registry->AddResetHook([this]() { Reset(); });
}

void StableStore::RegisterMetrics(MetricsRegistry* registry) {
  stats_.RegisterWith(registry, {{"host", host_->name()}});
}

Duration StableStore::SampleLatency(const LatencyModel& model) {
  Duration d = model.Sample(sim_->rng());
  if (faults_.latency_multiplier != 1.0) {
    ++stats_.injected_slow_ops;
    d = Duration::Micros(static_cast<int64_t>(static_cast<double>(d.ToMicros()) *
                                              faults_.latency_multiplier));
  }
  return d;
}

bool StableStore::Verified(const Slot& slot) {
  return slot.valid && slot.checksum == PageChecksum(slot.seq, slot.data);
}

int StableStore::CommittedSlot(const Page& page) {
  // Verify the newer valid slot first (slot 0 on a tie) and hash the other
  // one only if that check fails: the same slot as verifying both and
  // taking the highest verified sequence, with one hash instead of two
  // whenever the newer slot holds.
  const Slot* slots = page.slots;
  const int newer =
      (slots[1].valid && (!slots[0].valid || slots[1].seq > slots[0].seq)) ? 1 : 0;
  if (Verified(slots[newer])) {
    return newer;
  }
  return Verified(slots[1 - newer]) ? 1 - newer : -1;
}

StableStore::Page& StableStore::PageFor(std::string_view key) {
  auto it = pages_.lower_bound(key);
  if (it != pages_.end() && it->first == key) {
    return it->second;
  }
  return pages_.emplace_hint(it, std::string(key), Page())->second;
}

void StableStore::TearTarget(std::string_view key) {
  Page& page = PageFor(key);
  const int committed = CommittedSlot(page);
  const int target = (committed == 0) ? 1 : 0;

  // Tear the target slot for the duration of the disk write: a crash in
  // this window must not expose partial data. The untorn sibling keeps the
  // previous committed value readable throughout.
  Slot& torn = page.slots[target];
  torn.valid = false;
  torn.data.clear();
  torn.checksum = 0;
}

void StableStore::Install(std::string_view key, std::string_view value) {
  // Recompute the target at install time: the committed slot is the untorn
  // sibling, so this lands in exactly the slot TearTarget invalidated.
  Page& page = PageFor(key);
  const int committed = CommittedSlot(page);
  const int target = (committed == 0) ? 1 : 0;
  const uint64_t next_seq = (committed >= 0) ? page.slots[committed].seq + 1 : 1;

  Slot& slot = page.slots[target];
  slot.seq = next_seq;
  slot.data.assign(value);
  slot.checksum = PageChecksum(slot.seq, slot.data);
  slot.valid = true;
}

void StableStore::FlushBatch::Stage(const PageWrite& page) {
  for (size_t i = 0; i < pages; ++i) {
    if (staged[i].key == page.key) {
      staged[i].value.assign(page.value);
      return;
    }
  }
  if (pages == staged.size()) {
    staged.emplace_back();
  }
  staged[pages].key.assign(page.key);
  staged[pages].value.assign(page.value);
  ++pages;
}

Task<Status> StableStore::Write(std::string_view key, std::string_view value,
                                TraceContext ctx) {
  const PageWrite page{key, value};
  const std::span<const PageWrite> pages(&page, 1);
  co_return co_await WriteBatch(pages, ctx);
}

Task<Status> StableStore::WriteBatch(std::span<const PageWrite> pages, TraceContext ctx) {
  if (pages.empty()) {
    co_return Status::Ok();
  }
  if (!host_->up()) {
    co_return AbortedError("host down");
  }
  if (faults_.write_fail_probability > 0.0 &&
      host_->rng().NextBernoulli(faults_.write_fail_probability)) {
    // Injected fail-stop write error: the disk refused the request before
    // any slot was touched, so the committed value is untouched.
    ++stats_.injected_write_failures;
    co_return UnavailableError("injected stable-store write failure");
  }
  stats_.writes_started += pages.size();
  const uint64_t epoch = host_->crash_epoch();
  TraceContext disk_span;
  if (tracer_ != nullptr) {
    disk_span = tracer_->StartChild(ctx, host_->id(), "phase.disk");
  }

  for (const PageWrite& page : pages) {
    TearTarget(page.key);
  }

  if (current_batch_ != nullptr && current_batch_->open && current_batch_->epoch == epoch) {
    // A flush window is already open: stage into it and share the leader's
    // single latency charge. Last staged value per key wins — writers that
    // raced into one window are adjacent in the serial order, and only the
    // final state of the window becomes durable.
    FlushBatch* batch = current_batch_;
    for (const PageWrite& page : pages) {
      batch->Stage(page);
    }
    stats_.group_commit_coalesced += pages.size();
    const uint64_t batch_id = batch->batch_id;
    Promise<Status> done(sim_);
    Future<Status> woken = done.GetFuture();
    batch->waiters.push_back(std::move(done));
    Status joined = co_await std::move(woken);
    if (disk_span.valid()) {
      tracer_->EndWith(disk_span, "batch=" + std::to_string(batch_id) + " coalesced");
    }
    co_return joined;
  }

  // Leader: open a batch, pay one latency window, then flush everything
  // that staged into it while the disk was "busy". A batch is idle once its
  // leader has woken; a crash can leave an earlier epoch's leader asleep.
  FlushBatch* batch = nullptr;
  for (const std::unique_ptr<FlushBatch>& idle : batches_) {
    if (!idle->open) {
      batch = idle.get();
      break;
    }
  }
  if (batch == nullptr) {
    batches_.push_back(std::make_unique<FlushBatch>());
    batch = batches_.back().get();
  }
  batch->epoch = epoch;
  batch->batch_id = next_batch_id_++;
  batch->open = true;
  for (const PageWrite& page : pages) {
    batch->Stage(page);
  }
  current_batch_ = batch;

  co_await sim_->Sleep(SampleLatency(write_latency_));

  batch->open = false;
  if (current_batch_ == batch) {
    current_batch_ = nullptr;
  }

  // One-shot injected power failure at the install point: consumed by the
  // leader whose flush it tears, whether the batch is solitary or a full
  // group-commit window (every joiner fails with it — crash-atomic).
  bool injected_tear = false;
  if (faults_.tear_next_flush) {
    faults_.tear_next_flush = false;
    injected_tear = true;
    ++stats_.injected_torn_flushes;
  }

  Status result = Status::Ok();
  if (!host_->up() || host_->crash_epoch() != epoch || injected_tear) {
    // Power failure mid-flush: every staged page stays torn; none was
    // acknowledged, so losing the whole batch is crash-atomic. An injected
    // tear is Unavailable, not Aborted: the host is still up, so callers
    // (e.g. the phase-2 retrier) must treat the failure as retryable.
    stats_.writes_torn += batch->pages;
    result = injected_tear ? UnavailableError("injected torn write during flush")
                           : AbortedError("crash during stable write window");
  } else {
    ++stats_.group_commit_batches;
    for (size_t i = 0; i < batch->pages; ++i) {
      Install(batch->staged[i].key, batch->staged[i].value);
      ++stats_.writes_completed;
    }
  }
  if (disk_span.valid()) {
    tracer_->EndWith(disk_span, "batch=" + std::to_string(batch->batch_id) + " leader pages=" +
                                    std::to_string(batch->pages) +
                                    (result.ok() ? "" : " torn"));
  }
  batch->pages = 0;
  for (Promise<Status>& waiter : batch->waiters) {
    waiter.Set(result);
  }
  batch->waiters.clear();
  co_return result;
}

Task<Result<std::string>> StableStore::Read(std::string_view key, TraceContext ctx) {
  if (!host_->up()) {
    co_return AbortedError("host down");
  }
  ++stats_.reads;
  const uint64_t epoch = host_->crash_epoch();
  TraceContext disk_span;
  if (tracer_ != nullptr) {
    disk_span = tracer_->StartChild(ctx, host_->id(), "phase.disk");
  }

  co_await sim_->Sleep(SampleLatency(read_latency_));

  if (disk_span.valid()) {
    tracer_->EndWith(disk_span, "read " + std::string(key));
  }
  if (!host_->up() || host_->crash_epoch() != epoch) {
    co_return Status(StatusCode::kAborted, {"crash during stable read of ", key});
  }
  co_return ReadCommitted(key);
}

Task<Status> StableStore::Delete(std::string_view key, TraceContext ctx) {
  if (!host_->up()) {
    co_return AbortedError("host down");
  }
  const uint64_t epoch = host_->crash_epoch();
  TraceContext disk_span;
  if (tracer_ != nullptr) {
    disk_span = tracer_->StartChild(ctx, host_->id(), "phase.disk");
  }
  co_await sim_->Sleep(SampleLatency(write_latency_));
  if (disk_span.valid()) {
    tracer_->EndWith(disk_span, "delete " + std::string(key));
  }
  if (!host_->up() || host_->crash_epoch() != epoch) {
    co_return Status(StatusCode::kAborted, {"crash during stable delete of ", key});
  }
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    pages_.erase(it);
  }
  co_return Status::Ok();
}

const std::string* StableStore::CommittedData(const Page& page) {
  const int committed = CommittedSlot(page);
  return committed < 0 ? nullptr : &page.slots[committed].data;
}

const std::string* StableStore::PeekCommitted(std::string_view key) const {
  auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : CommittedData(it->second);
}

Result<std::string> StableStore::ReadCommitted(std::string_view key) const {
  auto it = pages_.find(key);
  if (it == pages_.end()) {
    return Status(StatusCode::kNotFound, {"no page ", key});
  }
  const std::string* data = CommittedData(it->second);
  if (data == nullptr) {
    return Status(StatusCode::kNotFound, {"page ", key, " has no committed slot"});
  }
  return *data;
}

bool StableStore::Contains(std::string_view key) const {
  auto it = pages_.find(key);
  return it != pages_.end() && CommittedSlot(it->second) >= 0;
}

std::vector<std::string> StableStore::Keys() const {
  std::vector<std::string> keys;
  for (const auto& [key, page] : pages_) {
    if (CommittedSlot(page) >= 0) {
      keys.push_back(key);
    }
  }
  return keys;
}

std::vector<std::string> StableStore::KeysWithPrefix(const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = pages_.lower_bound(prefix); it != pages_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    if (CommittedSlot(it->second) >= 0) {
      keys.push_back(it->first);
    }
  }
  return keys;
}

}  // namespace wvote
