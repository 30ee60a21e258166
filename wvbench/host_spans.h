// Host-time spans around the harness's own calls (each workload run, each
// layer driver). Kept in memory and written as Chrome trace events when the
// run ends, next to the cluster tracer's sim-time spans of the traced run.

#ifndef WVBENCH_HOST_SPANS_H_
#define WVBENCH_HOST_SPANS_H_

#include <chrono>
#include <string>
#include <vector>

namespace wvbench {

class HostSpans {
 public:
  // Opens a span; `parent` is another span's id, or -1 for a root.
  int Begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, NowUs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_us = NowUs(); }

  // Appends one "X" event per span (pid 0 = the harness process,
  // args.parent = the causing span) to a traceEvents body.
  void AppendChromeEvents(std::string* out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!out->empty()) {
        *out += ",\n";
      }
      *out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" +
              std::to_string(s.begin_us - origin_us_) +
              ",\"dur\":" + std::to_string(s.end_us - s.begin_us) + ",\"args\":{\"id\":" +
              std::to_string(i) + ",\"parent\":" + std::to_string(s.parent) + "}}";
    }
  }

 private:
  struct Span {
    std::string name;
    int parent;
    long long begin_us;
    long long end_us;
  };

  static long long NowUs() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  long long origin_us_ = NowUs();
  std::vector<Span> spans_;
};

}  // namespace wvbench

#endif  // WVBENCH_HOST_SPANS_H_
