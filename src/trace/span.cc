#include "src/trace/span.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace wvote {

Tracer::Tracer(Simulator* sim, size_t capacity) : sim_(sim), capacity_(capacity) {}

TraceContext Tracer::StartRoot(HostId host, std::string_view name) {
  if (!enabled_) {
    return TraceContext();
  }
  const uint64_t id = next_id_++;
  Span span;
  span.trace_id = id;
  span.span_id = id;
  span.parent_id = 0;
  span.host = host;
  span.name = std::string(name);
  span.begin = sim_->Now();
  ++spans_started_;
  open_.emplace(id, std::move(span));
  return TraceContext(id, id);
}

TraceContext Tracer::StartChild(const TraceContext& parent, HostId host,
                                std::string_view name) {
  if (!enabled_ || !parent.valid()) {
    return TraceContext();
  }
  const uint64_t id = next_id_++;
  Span span;
  span.trace_id = parent.trace_id;
  span.span_id = id;
  span.parent_id = parent.span_id;
  span.host = host;
  span.name = std::string(name);
  span.begin = sim_->Now();
  ++spans_started_;
  open_.emplace(id, std::move(span));
  return TraceContext(parent.trace_id, id);
}

void Tracer::Annotate(const TraceContext& ctx, std::string_view note) {
  if (!ctx.valid()) {
    return;
  }
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) {
    return;
  }
  if (!it->second.annotation.empty()) {
    it->second.annotation += "; ";
  }
  it->second.annotation += note;
}

void Tracer::End(const TraceContext& ctx) {
  if (!ctx.valid()) {
    return;
  }
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) {
    return;  // already ended, or evicted by Clear()
  }
  Span span = std::move(it->second);
  open_.erase(it);
  span.end = sim_->Now();
  Complete(std::move(span));
}

void Tracer::EndWith(const TraceContext& ctx, std::string_view note) {
  Annotate(ctx, note);
  End(ctx);
}

void Tracer::Complete(Span span) {
  ++spans_completed_;
  auto it = span_histograms_.find(span.name);
  if (it != span_histograms_.end()) {
    it->second.Record(span.duration());
  }
  if (slow_log_ != nullptr && span.parent_id == 0 &&
      span.duration() >= slow_threshold_) {
    ++slow_ops_;
    char head[128];
    std::snprintf(head, sizeof(head), "%s took %.3fms trace=%llu\n",
                  span.name.c_str(), span.duration().ToMillis(),
                  static_cast<unsigned long long>(span.trace_id));
    // The root must be visible to DumpTree, so stash it first.
    const uint64_t trace_id = span.trace_id;
    const HostId host = span.host;
    Store(std::move(span));
    slow_log_->Record(host, TraceKind::kSlowOp, head + DumpTree(trace_id));
    return;
  }
  Store(std::move(span));
}

void Tracer::Store(Span span) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[next_slot_] = std::move(span);
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
}

void Tracer::RegisterMetrics(MetricsRegistry* metrics) {
  // Phase spans map to same-named histograms; client roots to trace.op.*.
  const std::pair<const char*, const char*> kMapping[] = {
      {"phase.gather", "trace.phase.gather"},
      {"phase.fetch", "trace.phase.fetch"},
      {"phase.prepare", "trace.phase.prepare"},
      {"phase.commit_ack", "trace.phase.commit_ack"},
      {"phase.lock_wait", "trace.phase.lock_wait"},
      {"phase.disk", "trace.phase.disk"},
      {"client.read", "trace.op.read"},
      {"client.write", "trace.op.write"},
  };
  for (const auto& [span_name, metric_name] : kMapping) {
    metrics->RegisterHistogram(metric_name, {}, &span_histograms_[span_name]);
  }
  metrics->AddResetHook([this]() {
    for (auto& [name, histogram] : span_histograms_) {
      histogram.Reset();
    }
  });
  metrics->RegisterCounter("trace.tracer.spans_started", {}, &spans_started_);
  metrics->RegisterCounter("trace.tracer.spans_completed", {}, &spans_completed_);
  metrics->RegisterCounter("trace.tracer.slow_ops", {}, &slow_ops_);
}

void Tracer::SetSlowOpLog(TraceLog* log, Duration threshold) {
  slow_log_ = log;
  slow_threshold_ = threshold;
}

void Tracer::SetHostNamer(std::function<std::string(HostId)> namer) {
  host_namer_ = std::move(namer);
}

std::vector<Span> Tracer::Snapshot() const {
  std::vector<Span> out;
  const uint64_t kept = ring_.size();
  out.reserve(kept + open_.size());
  // Oldest retained span sits at next_slot_ once the ring has wrapped.
  const size_t start = ring_.size() == capacity_ ? next_slot_ : 0;
  for (uint64_t i = 0; i < kept; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  // Open spans in span-id order (the map iterates in hash order, which
  // would make snapshots nondeterministic).
  std::vector<const Span*> still_open;
  still_open.reserve(open_.size());
  for (const auto& [id, span] : open_) {
    still_open.push_back(&span);
  }
  std::sort(still_open.begin(), still_open.end(),
            [](const Span* a, const Span* b) { return a->span_id < b->span_id; });
  for (const Span* span : still_open) {
    Span copy = *span;
    copy.open = true;
    copy.end = sim_->Now();
    out.push_back(std::move(copy));
  }
  return out;
}

std::vector<Span> Tracer::SpansOf(uint64_t trace_id) const {
  std::vector<Span> out;
  for (Span& span : Snapshot()) {
    if (span.trace_id == trace_id) {
      out.push_back(std::move(span));
    }
  }
  return out;
}

std::string Tracer::HostName(HostId host) const {
  if (host_namer_) {
    std::string name = host_namer_(host);
    if (!name.empty()) {
      return name;
    }
  }
  return "host-" + std::to_string(host);
}

std::string Tracer::DumpTree(uint64_t trace_id) const {
  std::vector<Span> spans = SpansOf(trace_id);
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.span_id < b.span_id;
  });
  std::map<uint64_t, std::vector<const Span*>> children;
  std::set<uint64_t> ids;
  for (const Span& span : spans) {
    ids.insert(span.span_id);
  }
  std::vector<const Span*> roots;
  for (const Span& span : spans) {
    if (span.parent_id != 0 && ids.count(span.parent_id) > 0) {
      children[span.parent_id].push_back(&span);
    } else {
      roots.push_back(&span);
    }
  }
  std::string out;
  // Recursive lambda via explicit self-parameter; depth bounded by tree
  // height (phases nest a handful deep).
  auto print = [&](const Span* span, int depth, auto&& self) -> void {
    char line[192];
    std::snprintf(line, sizeof(line), "%*s%s host=%s [%.3f..%.3fms] %.3fms%s",
                  depth * 2, "", span->name.c_str(), HostName(span->host).c_str(),
                  static_cast<double>(span->begin.ToMicros()) / 1000.0,
                  static_cast<double>(span->end.ToMicros()) / 1000.0,
                  span->duration().ToMillis(), span->open ? " (open)" : "");
    out += line;
    if (!span->annotation.empty()) {
      out += "  {" + span->annotation + "}";
    }
    out += "\n";
    auto it = children.find(span->span_id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        self(child, depth + 1, self);
      }
    }
  };
  for (const Span* root : roots) {
    print(root, 0, print);
  }
  return out;
}

void Tracer::AppendChromeEvent(const Span& span, int pid_base, std::string_view tag,
                               std::string* out, bool* first) const {
  if (!*first) {
    *out += ",\n";
  }
  *first = false;
  const int pid = pid_base + (span.host < 0 ? 0 : span.host) + 1;
  char head[192];
  std::snprintf(head, sizeof(head),
                "{\"name\":\"%s\",\"cat\":\"wvote\",\"ph\":\"X\",\"ts\":%lld,"
                "\"dur\":%lld,\"pid\":%d,\"tid\":%llu,\"args\":{",
                span.name.c_str(), static_cast<long long>(span.begin.ToMicros()),
                static_cast<long long>(std::max<int64_t>(span.duration().ToMicros(), 0)),
                pid, static_cast<unsigned long long>(span.trace_id));
  *out += head;
  char args[96];
  std::snprintf(args, sizeof(args), "\"span\":%llu,\"parent\":%llu",
                static_cast<unsigned long long>(span.span_id),
                static_cast<unsigned long long>(span.parent_id));
  *out += args;
  if (!span.annotation.empty()) {
    *out += ",\"note\":\"";
    *out += JsonEscape(span.annotation);
    *out += "\"";
  }
  if (span.open) {
    *out += ",\"open\":true";
  }
  *out += "}}";
}

int Tracer::AppendChromeEvents(std::string* out, bool* first, int pid_base,
                               std::string_view tag) const {
  int max_pid = pid_base;
  std::set<HostId> hosts;
  std::vector<Span> spans = Snapshot();
  for (const Span& span : spans) {
    hosts.insert(span.host);
  }
  for (HostId host : hosts) {
    const int pid = pid_base + (host < 0 ? 0 : host) + 1;
    max_pid = std::max(max_pid, pid);
    if (!*first) {
      *out += ",\n";
    }
    *first = false;
    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"",
                  pid);
    *out += head;
    if (!tag.empty()) {
      *out += JsonEscape(tag);
      *out += "/";
    }
    *out += JsonEscape(HostName(host));
    *out += "\"}}";
  }
  for (const Span& span : spans) {
    AppendChromeEvent(span, pid_base, tag, out, first);
    max_pid = std::max(max_pid, pid_base + (span.host < 0 ? 0 : span.host) + 1);
  }
  return max_pid;
}

std::string Tracer::ExportChromeTrace(int pid_base) const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  AppendChromeEvents(&out, &first, pid_base, "");
  out += "\n]}\n";
  return out;
}

void Tracer::Clear() {
  ring_.clear();
  next_slot_ = 0;
  spans_started_ = 0;
  spans_completed_ = 0;
  slow_ops_ = 0;
  open_.clear();
  next_id_ = 1;
}

}  // namespace wvote
