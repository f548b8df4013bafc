// Fixed-memory measurement primitives for the serving benchmark: a
// log-linear histogram (quantiles at <1% relative resolution without keeping
// raw samples, so a run's memory does not grow with its op count) and a
// capped in-memory span log for the traced run.
#ifndef TRAJ2HASH_PERFBENCH_RECORDER_H_
#define TRAJ2HASH_PERFBENCH_RECORDER_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Histogram over non-negative integers (nanoseconds, record counts).
/// Values below 128 get one bucket each; above, every power-of-two range
/// splits into 128 linear buckets, so a bucket spans at most 1/128 of its
/// values (< 0.8% relative resolution). Quantiles interpolate inside the
/// bucket by rank, so they are not snapped to bucket edges. 36 KiB, all
/// allocated at construction; Record never allocates.
class Histogram {
 public:
  void Record(int64_t v) {
    ++counts_[Index(std::max<int64_t>(v, 0))];
    ++n_;
  }
  void Merge(const Histogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
  }
  int64_t count() const { return n_; }

  /// Value with `rank` samples (fractional, 0..n) below it.
  double ValueAtRank(double rank) const {
    if (n_ == 0) return 0.0;
    rank = std::clamp(rank, 0.0, static_cast<double>(n_));
    double below = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && below + c >= rank) {
        return Lower(i) + Width(i) * (rank - below) / c;
      }
      below += c;
    }
    return Lower(counts_.size() - 1);
  }
  double Quantile(double q) const { return ValueAtRank(q * n_); }

 private:
  static constexpr int kSubBits = 7;
  static constexpr int64_t kSub = int64_t{1} << kSubBits;
  static constexpr int kMaxExp = 41;  // values up to 2^42 ns ≈ 73 min

  static size_t Index(int64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int e = 63 - __builtin_clzll(static_cast<unsigned long long>(v));
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (int64_t{2} << kMaxExp) - 1;
    }
    const int64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<size_t>(kSub + (e - kSubBits) * kSub + sub);
  }
  static double Lower(size_t i) {
    if (i < static_cast<size_t>(kSub)) return static_cast<double>(i);
    const int64_t k = static_cast<int64_t>(i) - kSub;
    const int e = static_cast<int>(k / kSub) + kSubBits;
    return static_cast<double>((kSub + k % kSub) << (e - kSubBits));
  }
  static double Width(size_t i) {
    if (i < static_cast<size_t>(kSub)) return 1.0;
    const int e = static_cast<int>((static_cast<int64_t>(i) - kSub) / kSub) +
                  kSubBits;
    return static_cast<double>(int64_t{1} << (e - kSubBits));
  }

  std::array<int64_t, kSub + (kMaxExp - kSubBits + 1) * kSub> counts_{};
  int64_t n_ = 0;
};

/// Quantiles of a signed quantity (e.g. a span minus its measured parts,
/// which timing noise can push below zero) from two fixed histograms.
class SignedHistogram {
 public:
  void Record(int64_t v) { v < 0 ? neg_.Record(-v) : pos_.Record(v); }
  void Merge(const SignedHistogram& o) {
    neg_.Merge(o.neg_);
    pos_.Merge(o.pos_);
  }
  int64_t count() const { return neg_.count() + pos_.count(); }
  double Quantile(double q) const {
    const double rank = q * static_cast<double>(count());
    const double nn = static_cast<double>(neg_.count());
    if (rank < nn) return -neg_.ValueAtRank(nn - rank);
    return pos_.ValueAtRank(rank - nn);
  }

 private:
  Histogram neg_;
  Histogram pos_;
};

/// One traced call: what ran, when, under which parent span and op.
struct Span {
  int64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the parent span in the same log
  const char* name = "";
};

/// Per-thread span log with a fixed capacity allocated up front; spans past
/// the cap are dropped (counted), so tracing never allocates mid-run.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 0) { spans_.reserve(capacity); }
  /// Appends a span and returns its index (-1 when the log is full).
  int32_t Add(const char* name, int64_t op, int64_t start_ns, int64_t end_ns,
              int32_t parent = -1) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({op, start_ns, end_ns, parent, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Sets the end of an already-added span (a parent closes after its
  /// children).
  void Close(int32_t index, int64_t end_ns) {
    if (index >= 0) spans_[index].end_ns = end_ns;
  }
  /// Tab-separated rows: thread, op, span, parent, name, start, end (ns
  /// since `origin_ns`).
  void Write(std::FILE* out, int thread, int64_t origin_ns) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%d\t%lld\t%zu\t%d\t%s\t%lld\t%lld\n", thread,
                   static_cast<long long>(s.op), i, s.parent, s.name,
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns));
    }
  }
  int64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // TRAJ2HASH_PERFBENCH_RECORDER_H_
