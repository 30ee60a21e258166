#include "src/obs/histogram.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"

namespace wvote {
namespace {

// 90 linear buckets per decade, 8 decades: 1us .. 100s.
constexpr int kBucketsPerDecade = 90;
constexpr int kDecades = 8;
constexpr size_t kNumBuckets = kBucketsPerDecade * kDecades + 2;  // + under/overflow

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

size_t LatencyHistogram::BucketFor(int64_t us) {
  if (us < 1) {
    return 0;
  }
  int64_t decade_lo = 1;
  for (int d = 0; d < kDecades; ++d) {
    const int64_t decade_hi = decade_lo * 10;
    if (us < decade_hi) {
      // Linear position within [decade_lo, decade_hi).
      const int64_t step = std::max<int64_t>(1, (decade_hi - decade_lo) / kBucketsPerDecade);
      const size_t offset = static_cast<size_t>((us - decade_lo) / step);
      return 1 + static_cast<size_t>(d) * kBucketsPerDecade +
             std::min<size_t>(offset, kBucketsPerDecade - 1);
    }
    decade_lo = decade_hi;
  }
  return kNumBuckets - 1;  // overflow
}

int64_t LatencyHistogram::BucketLowerBound(size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  if (bucket >= kNumBuckets - 1) {
    return int64_t{100000000} * 100;  // 100s in us x overflow marker
  }
  const size_t d = (bucket - 1) / kBucketsPerDecade;
  const size_t offset = (bucket - 1) % kBucketsPerDecade;
  int64_t decade_lo = 1;
  for (size_t i = 0; i < d; ++i) {
    decade_lo *= 10;
  }
  const int64_t step = std::max<int64_t>(1, (decade_lo * 10 - decade_lo) / kBucketsPerDecade);
  return decade_lo + static_cast<int64_t>(offset) * step;
}

void LatencyHistogram::Record(Duration d) {
  const int64_t us = d.ToMicros();
  WVOTE_DCHECK(us >= 0);
  ++buckets_[BucketFor(us)];
  if (count_ == 0) {
    min_us_ = max_us_ = us;
  } else {
    min_us_ = std::min(min_us_, us);
    max_us_ = std::max(max_us_, us);
  }
  ++count_;
  sum_us_ += us;
}

Duration LatencyHistogram::Min() const { return Duration::Micros(count_ ? min_us_ : 0); }
Duration LatencyHistogram::Max() const { return Duration::Micros(count_ ? max_us_ : 0); }

Duration LatencyHistogram::Mean() const {
  return Duration::Micros(count_ ? sum_us_ / static_cast<int64_t>(count_) : 0);
}

Duration LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return Duration::Zero();
  }
  p = std::clamp(p, 0.0, 100.0);
  const uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > target) {
      return Duration::Micros(BucketLowerBound(b));
    }
  }
  return Duration::Micros(max_us_);
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%llu mean=%.2fms p50=%.2fms p99=%.2fms max=%.2fms",
                static_cast<unsigned long long>(count_), Mean().ToMillis(),
                Percentile(50).ToMillis(), Percentile(99).ToMillis(), Max().ToMillis());
  return buf;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_us_ = 0;
  min_us_ = 0;
  max_us_ = 0;
}

void LatencyHistogram::DeltaStatsSince(const LatencyHistogram& prev, uint64_t* count,
                                       int64_t* p50_us, int64_t* p99_us,
                                       int64_t* max_us) const {
  // prev ahead of us means the histogram was reset between the snapshots:
  // everything currently recorded belongs to the window.
  const bool reset = prev.count_ > count_;
  const uint64_t n = reset ? count_ : count_ - prev.count_;
  *count = n;
  *p50_us = 0;
  *p99_us = 0;
  *max_us = 0;
  if (n == 0) {
    return;
  }
  WVOTE_CHECK(buckets_.size() == prev.buckets_.size());
  // Percentile()'s rank rule, applied to the bucket deltas.
  const uint64_t t50 = static_cast<uint64_t>(0.50 * static_cast<double>(n - 1));
  const uint64_t t99 = static_cast<uint64_t>(0.99 * static_cast<double>(n - 1));
  uint64_t seen = 0;
  bool have50 = false;
  bool have99 = false;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t d = reset ? buckets_[i] : buckets_[i] - prev.buckets_[i];
    if (d == 0) {
      continue;
    }
    seen += d;
    const int64_t lb = BucketLowerBound(i);
    if (!have50 && seen > t50) {
      *p50_us = lb;
      have50 = true;
    }
    if (!have99 && seen > t99) {
      *p99_us = lb;
      have99 = true;
    }
    *max_us = lb;
  }
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  WVOTE_CHECK(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_us_ = other.min_us_;
      max_us_ = other.max_us_;
    } else {
      min_us_ = std::min(min_us_, other.min_us_);
      max_us_ = std::max(max_us_, other.max_us_);
    }
  }
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

}  // namespace wvote
