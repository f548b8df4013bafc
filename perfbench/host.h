// Host diagnostics printed with every run, so a steadiness check can tell
// host drift (steal, a slower reference loop) from program variance.
#ifndef TRAJ2HASH_PERFBENCH_HOST_H_
#define TRAJ2HASH_PERFBENCH_HOST_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "recorder.h"

namespace perfbench {

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool ok = false;
};

inline CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  // cpu user nice system idle iowait irq softirq steal ...
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
    t.ok = true;
  }
  std::fclose(f);
  return t;
}

/// Share of all CPU time the hypervisor stole between two readings, in
/// percent (-1 when /proc/stat is unreadable).
inline double StealPct(const CpuTimes& a, const CpuTimes& b) {
  if (!a.ok || !b.ok || b.total <= a.total) return -1.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

/// A fixed single-thread loop of dependent float math and cache-resident
/// loads, timed five times; returns the median in milliseconds. Its code
/// never changes, so a move in this number is the host, not the program.
inline double ReferenceLoopMs() {
  std::vector<float> table(1 << 14);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<float>(i % 97) * 0.01f;
  }
  std::vector<double> ms;
  volatile float sink = 0.0f;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    float acc = 1.0f;
    uint32_t idx = 12345;
    for (int i = 0; i < 4'000'000; ++i) {
      idx = idx * 1664525u + 1013904223u;
      acc = acc * 0.999f + table[idx >> 18];
    }
    sink = sink + acc;
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Process CPU time (user + system) so far, in microseconds.
inline double ProcessCpuUs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return (u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e6 +
         (u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Peak resident set size of the process so far, in MiB.
inline double PeakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

#endif  // TRAJ2HASH_PERFBENCH_HOST_H_
