// Latency histogram with logarithmic buckets (HDR-style, base-10 decades
// with 90 linear sub-buckets each). Records microsecond durations; supports
// percentile, mean, and count queries. Memory is constant; recording is two
// integer ops — suitable for millions of samples per simulated run.

#ifndef WVOTE_SRC_OBS_HISTOGRAM_H_
#define WVOTE_SRC_OBS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace wvote {

class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(Duration d);

  uint64_t count() const { return count_; }
  Duration Min() const;
  Duration Max() const;
  Duration Mean() const;
  // p in [0, 100]; returns the bucket lower bound containing the percentile.
  Duration Percentile(double p) const;

  // "n=1203 mean=75ms p50=75ms p99=210ms max=260ms"
  std::string Summary() const;

  void Reset();
  void MergeFrom(const LatencyHistogram& other);

  // Windowed sketch of the samples recorded in `*this` since `prev` was a
  // snapshot of the same monotone histogram, by bucket-wise subtraction in
  // one scan with no allocation: the window's count, its p50/p99 at bucket
  // resolution and its max bucket, all as bucket lower bounds (the exact
  // extrema are not recoverable from bucket deltas). A `prev` with more
  // samples than `*this` (the histogram was reset between snapshots) yields
  // the full current contents, treating the reset as the window start. The
  // time-series scraper calls this once per histogram per window.
  void DeltaStatsSince(const LatencyHistogram& prev, uint64_t* count, int64_t* p50_us,
                       int64_t* p99_us, int64_t* max_us) const;

 private:
  static size_t BucketFor(int64_t us);
  static int64_t BucketLowerBound(size_t bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t sum_us_ = 0;
  int64_t min_us_ = 0;
  int64_t max_us_ = 0;
};

}  // namespace wvote

#endif  // WVOTE_SRC_OBS_HISTOGRAM_H_
