#include "src/obs/flight_recorder.h"

#include <cstdio>

namespace wvote {

std::string DumpFlightRecord(const TimeSeriesStore& store, const SloEngine* slo,
                             const std::vector<std::string>& trace_tail,
                             size_t last_windows) {
  char buf[48];
  std::string out = "{\"last_windows\":";
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(last_windows));
  out += buf;
  out += ",\"timeseries\":";
  out += store.ExportJson(last_windows);
  out += ",\"slo_events\":";
  out += slo != nullptr ? slo->EventsJson() : "[]";
  out += ",\"trace_tail\":[";
  for (size_t i = 0; i < trace_tail.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '"' + JsonEscape(trace_tail[i]) + '"';
  }
  out += "]}";
  return out;
}

}  // namespace wvote
