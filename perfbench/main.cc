// Serving benchmark for traj2hash: one named workload per process, driven
// only through the public APIs of serve, core, search, quant, ingest,
// replica and net. See README.md beside this file for the workloads, the
// metrics and how they map onto each other.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --trace-dir DIR
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set. Exit status is 0 only when every
// correctness check passed.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/zipf.h"
#include "core/model.h"
#include "host.h"
#include "ingest/wal.h"
#include "oracle.h"
#include "recorder.h"
#include "replica/replica.h"
#include "replica/router.h"
#include "replica/transport.h"
#include "search/code.h"
#include "serve/engine.h"
#include "serve/result_cache.h"
#include "serve/sharded_index.h"
#include "traj/synthetic.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using t2h::search::Code;
using t2h::search::Neighbor;
using t2h::traj::Trajectory;

// Shared configuration (README.md, "Shared configuration").
constexpr int kDbSize = 4000;
constexpr int kMaxPoints = 24;
constexpr int kDim = 128;
constexpr int kShards = 4;
constexpr int kK = 10;
constexpr int kCacheEntries = 4096;
constexpr int kRerankCandidates = 80;  // the engine default, max(8k, 64)
constexpr int kQueryBase = 2048;       // base trips behind every query stream
constexpr int kHotKeys = 512;
constexpr double kZipfS = 1.1;
constexpr int kBatch = 32;
constexpr int kSetupReps = 5;
// Traced durable_replicated: ingest counts are taken over exactly this many
// mutations, so they repeat run to run.
constexpr int kCountedMutations = 2000;
constexpr size_t kSpanCapacity = 1 << 16;  // per thread
// The end-to-end metrics are medians over this many equal slices of the
// timed window, so a slow stretch of the host covering less than half of
// the window does not move them.
constexpr int kSlices = 6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_dir;
};

/// Length of the window the metrics come from: all of --seconds, or 2/3 of
/// it in the traced run, whose other third is the untraced reference.
double TimedSeconds(const Args& args) {
  return args.trace ? args.seconds * 2 / 3 : args.seconds;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Distinct trajectories without generating one per op: op i of stream s
/// is base trip (i mod P) translated by an offset unique to (s, i / P), so
/// every op carries new geometry (a new cache key) at the encode cost of a
/// fresh trip.
class QueryStream {
 public:
  QueryStream(const std::vector<Trajectory>* base, int stream)
      : base_(base), stream_(stream) {}
  Trajectory Make(int64_t i) const {
    const int64_t n = static_cast<int64_t>(base_->size());
    const int64_t shift = (i / n) * 16 + stream_ + 1;
    Trajectory t = (*base_)[i % n];
    const double dx = static_cast<double>(shift % 256) * 0.25;
    const double dy = static_cast<double>(shift / 256) * 0.25;
    for (auto& p : t.points) {
      p.x += dx;
      p.y -= dy;
    }
    return t;
  }

 private:
  const std::vector<Trajectory>* base_;
  int stream_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;            // status of the first failed request
  std::vector<std::string> failures;  // correctness checks that failed

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void E2e(const std::string& name, double v, const std::string& unit) {
    e2e.push_back({name, v, unit});
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    layer.push_back({name, v, unit});
  }
};

/// Prints a latency line with its sample count, e.g.
/// "query_p50_us 1234.5 us (n=11423)".
void PrintLatency(const char* name, const Histogram& h, double q) {
  std::printf("%-24s %12.3f us  (n=%" PRId64 ")\n", name,
              h.Quantile(q) / 1e3, h.count());
}

t2h::serve::QueryEngineOptions EngineOptions(int pool) {
  t2h::serve::QueryEngineOptions o;
  o.num_threads = pool;
  o.num_shards = kShards;
  o.strategy = t2h::search::SearchStrategy::kMih;
  o.cache_entries = kCacheEntries;
  o.quantize = true;
  o.enable_coalescing = false;
  return o;
}

/// Runs `build` kSetupReps times (each after the previous result is
/// destroyed), returning the last result and the median wall time.
template <typename T>
std::unique_ptr<T> TimedSetup(const std::function<std::unique_ptr<T>()>& build,
                              double* median_s) {
  std::vector<double> times;
  std::unique_ptr<T> out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.reset();
    const int64_t t0 = NowNs();
    out = build();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::printf("setup reps (s):");
  for (double t : times) std::printf(" %.4f", t);
  std::printf("\n");
  std::sort(times.begin(), times.end());
  *median_s = times[times.size() / 2];
  return out;
}

std::string CacheKey(const Trajectory& q) {
  std::string key;
  key.reserve(q.points.size() * 2 * sizeof(double) + 16);
  t2h::serve::ResultCache::AppendCanonicalKey(static_cast<int32_t>(kK), &key);
  t2h::serve::ResultCache::AppendCanonicalKey(
      static_cast<uint8_t>(t2h::search::SearchStrategy::kMih), &key);
  t2h::serve::ResultCache::AppendCanonicalKey(q, &key);
  return key;
}

/// Per-layer aggregates of the traced replay, one per client thread and
/// merged at the end. Every op's replay goes through the public calls the
/// engine makes internally, next to the engine call itself.
struct LayerStats {
  Histogram encode_ns;          // Embed + PackSigns (or EmbedBatch)
  Histogram encode_ns_point;    // encode ns ÷ (points × 2 directions)
  Histogram encode_share_ppm;   // encode ÷ the op's engine span, × 1e6
  Histogram batch_ns_traj;      // EmbedBatch ns ÷ batch size
  Histogram probe_sum_ns;       // Σ ShardTopK over shards
  Histogram probe_max_ns;       // slowest ShardTopK
  Histogram merge_ns;           // MergeTopK
  SignedHistogram overhead_ns;  // Query span − encode − probe max − merge
  Histogram key_ns;             // ResultCache::AppendCanonicalKey
  Histogram rerank_ns;          // ShardedIndex::QueryRerankTopK
  Histogram apply_ns;           // ShardedIndex::Insert/Update/Remove
  Histogram compaction_ns;      // RunClaimedCompaction
  Histogram route_ns;           // ReadRouter::Query
  Histogram lag_records;        // sampled Replica::lag_records
  int64_t replay_mismatches = 0;
  SpanLog spans;  // sized only in the traced run

  void Merge(const LayerStats& o) {
    encode_ns.Merge(o.encode_ns);
    encode_ns_point.Merge(o.encode_ns_point);
    encode_share_ppm.Merge(o.encode_share_ppm);
    batch_ns_traj.Merge(o.batch_ns_traj);
    probe_sum_ns.Merge(o.probe_sum_ns);
    probe_max_ns.Merge(o.probe_max_ns);
    merge_ns.Merge(o.merge_ns);
    overhead_ns.Merge(o.overhead_ns);
    key_ns.Merge(o.key_ns);
    rerank_ns.Merge(o.rerank_ns);
    apply_ns.Merge(o.apply_ns);
    compaction_ns.Merge(o.compaction_ns);
    route_ns.Merge(o.route_ns);
    lag_records.Merge(o.lag_records);
    replay_mismatches += o.replay_mismatches;
  }
};

/// Times building the engine's cache key for `q`.
void ReplayKey(const Trajectory& q, int64_t op, int32_t parent,
               LayerStats* ls) {
  const int64_t t = NowNs();
  const std::string key = CacheKey(q);
  const int64_t e = NowNs();
  ls->key_ns.Record(e - t);
  ls->spans.Add("serve.cache_key", op, t, e, parent);
}

/// Replays the engine's probe and merge of one encoded query — ShardTopK
/// per shard, then MergeTopK — timing each call as a child span of `parent`.
std::vector<Neighbor> ReplayProbeMerge(const t2h::serve::ShardedIndex& index,
                                       const Code& code, int64_t op,
                                       int32_t parent, LayerStats* ls,
                                       int64_t* probe_max_ns,
                                       int64_t* merge_ns) {
  std::vector<std::vector<Neighbor>> part(index.num_shards());
  int64_t sum = 0;
  int64_t mx = 0;
  for (int s = 0; s < index.num_shards(); ++s) {
    const int64_t t = NowNs();
    part[s] = index.ShardTopK(s, code, kK);
    const int64_t e = NowNs();
    sum += e - t;
    mx = std::max(mx, e - t);
    ls->spans.Add("search.probe", op, t, e, parent);
  }
  ls->probe_sum_ns.Record(sum);
  ls->probe_max_ns.Record(mx);
  *probe_max_ns = mx;
  const int64_t t = NowNs();
  std::vector<Neighbor> merged = t2h::serve::ShardedIndex::MergeTopK(part, kK);
  const int64_t e = NowNs();
  *merge_ns = e - t;
  ls->merge_ns.Record(e - t);
  ls->spans.Add("serve.merge", op, t, e, parent);
  return merged;
}

/// Times Embed + PackSigns of `q` (the engine's HashCode) as a child span of
/// `parent`; returns the embedding and sets `*code` and `*encode_ns`.
std::vector<float> ReplayEncode(const t2h::core::Traj2Hash& model,
                                const Trajectory& q, int64_t op,
                                int32_t parent, LayerStats* ls, Code* code,
                                int64_t* encode_ns) {
  const int64_t t = NowNs();
  std::vector<float> emb = model.Embed(q);
  *code = t2h::search::PackSigns(emb);
  const int64_t e = NowNs();
  *encode_ns = e - t;
  ls->encode_ns.Record(e - t);
  ls->encode_ns_point.Record((e - t) / (2 * std::max(1, q.size())));
  ls->spans.Add("core.encode", op, t, e, parent);
  return emb;
}

/// Start and end of a timed window, and the slice an op completing at `t`
/// falls in (-1 once the window is over: that op counts as attempted but
/// not in the slice medians).
struct Clock {
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  int Slice(int64_t t) const {
    if (t >= deadline_ns) return -1;
    return static_cast<int>((t - start_ns) * kSlices /
                            (deadline_ns - start_ns));
  }
};

/// Per-client results of a window.
struct ClientResult {
  Histogram op_ns;      // the workload's op, whole window
  Histogram query_ns;   // single Query calls (unique_lookup)
  Histogram rerank_ns;  // single QueryRerank calls (unique_lookup)
  std::array<Histogram, kSlices> slice_ns;  // the workload's op, per slice
  std::array<int64_t, kSlices> slice_ops{};  // requests counted by ops_per_s
  int64_t ops = 0;      // requests counted by ops_per_s
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;  // status of the first failed request
  LayerStats layers;

  /// Counts one request; a non-OK or incomplete one is a failure.
  void Attempt(bool complete, const t2h::Status& status) {
    ++attempted;
    if (complete && status.ok()) return;
    if (failed++ == 0) first_error = status.ToString();
  }

  /// One op of the workload's kind, from `t0` to `t1`.
  void Op(const Clock& clock, int64_t t0, int64_t t1) {
    op_ns.Record(t1 - t0);
    const int k = clock.Slice(t1);
    if (k >= 0) slice_ns[k].Record(t1 - t0);
  }
  /// Requests counted by ops_per_s, done at `t1`.
  void Requests(const Clock& clock, int64_t t1, int64_t requests) {
    ops += requests;
    const int k = clock.Slice(t1);
    if (k >= 0) slice_ops[k] += requests;
  }
  void Merge(const ClientResult& o) {
    op_ns.Merge(o.op_ns);
    query_ns.Merge(o.query_ns);
    rerank_ns.Merge(o.rerank_ns);
    for (int k = 0; k < kSlices; ++k) {
      slice_ns[k].Merge(o.slice_ns[k]);
      slice_ops[k] += o.slice_ops[k];
    }
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
    layers.Merge(o.layers);
  }
};

struct Window {
  int64_t planned_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_us = 0;
  CpuTimes cpu0;
  CpuTimes cpu1;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Runs `body(client, clock)` on `clients` threads for `seconds` and
/// records the window's wall, CPU and steal.
Window RunClients(int clients, double seconds,
                  const std::function<void(int, const Clock&)>& body) {
  Window w;
  w.cpu0 = ReadCpuTimes();
  const double cpu0 = ProcessCpuUs();
  w.start_ns = NowNs();
  const Clock clock{w.start_ns,
                    w.start_ns + static_cast<int64_t>(seconds * 1e9)};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(body, c, std::cref(clock));
  }
  for (auto& t : threads) t.join();
  w.end_ns = NowNs();
  w.planned_ns = clock.deadline_ns - clock.start_ns;
  w.cpu_us = ProcessCpuUs() - cpu0;
  w.cpu1 = ReadCpuTimes();
  return w;
}

void WriteSpans(const Args& args, const std::vector<const LayerStats*>& logs,
                int64_t origin_ns) {
  if (args.trace_dir.empty()) return;
  std::error_code ec;
  fs::create_directories(args.trace_dir, ec);
  const std::string path =
      args.trace_dir + "/" + args.workload + ".spans.tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns\n");
  int64_t dropped = 0;
  for (size_t i = 0; i < logs.size(); ++i) {
    logs[i]->spans.Write(f, static_cast<int>(i), origin_ns);
    dropped += logs[i]->spans.dropped();
  }
  std::fclose(f);
  std::printf("spans written to %s (%" PRId64 " past the per-thread cap)\n",
              path.c_str(), dropped);
}

/// The per-layer metrics every workload prints in its traced run; layers a
/// workload does not exercise read 0.
struct LayerValues {
  double encode_us = 0, encode_ns_per_point = 0, encode_share = 0,
         encode_batch_us_per_traj = 0, probe_us = 0, probe_max_shard_us = 0,
         merge_us = 0, overhead_us = 0, cache_key_us = 0, cache_hit_rate = 0,
         cache_evictions_per_query = 0, cache_bytes = 0, shed = 0,
         rerank_us = 0, recheck_rate = 0, band_violations = 0,
         resident_bytes = 0, apply_us = 0, compaction_ms = 0, compactions = 0,
         wal_bytes_per_mutation = 0, bootstrap_s = 0, apply_us_per_record = 0,
         route_us = 0, lag_records_p50 = 0, catchup_ms = 0, failovers = 0,
         records_sent = 0, reconnects = 0, cpu_us_per_op = 0,
         trace_overhead_pct = 0, steal_pct = 0, ref_ms = 0;

  void FromLayers(const LayerStats& l) {
    encode_us = l.encode_ns.Quantile(0.5) / 1e3;
    encode_ns_per_point = l.encode_ns_point.Quantile(0.5);
    encode_share = l.encode_share_ppm.Quantile(0.5) / 1e6;
    encode_batch_us_per_traj = l.batch_ns_traj.Quantile(0.5) / 1e3;
    probe_us = l.probe_sum_ns.Quantile(0.5) / 1e3;
    probe_max_shard_us = l.probe_max_ns.Quantile(0.5) / 1e3;
    merge_us = l.merge_ns.Quantile(0.5) / 1e3;
    overhead_us = l.overhead_ns.Quantile(0.5) / 1e3;
    cache_key_us = l.key_ns.Quantile(0.5) / 1e3;
    rerank_us = l.rerank_ns.Quantile(0.5) / 1e3;
    apply_us = l.apply_ns.Quantile(0.5) / 1e3;
    compaction_ms = l.compaction_ns.Quantile(0.5) / 1e6;
    route_us = l.route_ns.Quantile(0.5) / 1e3;
    lag_records_p50 = l.lag_records.Quantile(0.5);
  }

  void Emit(Report* r) const {
    r->Layer("core.encode_us", encode_us, "us");
    r->Layer("core.encode_ns_per_point", encode_ns_per_point, "ns");
    r->Layer("core.encode_share", encode_share, "ratio");
    r->Layer("core.encode_batch_us_per_traj", encode_batch_us_per_traj, "us");
    r->Layer("search.probe_us", probe_us, "us");
    r->Layer("search.probe_max_shard_us", probe_max_shard_us, "us");
    r->Layer("serve.merge_us", merge_us, "us");
    r->Layer("serve.overhead_us", overhead_us, "us");
    r->Layer("serve.cache_key_us", cache_key_us, "us");
    r->Layer("serve.cache.hit_rate", cache_hit_rate, "ratio");
    r->Layer("serve.cache.evictions_per_query", cache_evictions_per_query,
             "ratio");
    r->Layer("serve.cache.bytes", cache_bytes, "bytes");
    r->Layer("serve.shed", shed, "count");
    r->Layer("quant.rerank_us", rerank_us, "us");
    r->Layer("quant.recheck_rate", recheck_rate, "ratio");
    r->Layer("quant.band_violations", band_violations, "count");
    r->Layer("quant.resident_bytes", resident_bytes, "bytes");
    r->Layer("ingest.apply_us", apply_us, "us");
    r->Layer("ingest.compaction_ms", compaction_ms, "ms");
    r->Layer("ingest.compactions", compactions, "count");
    r->Layer("ingest.wal_bytes_per_mutation", wal_bytes_per_mutation,
             "bytes");
    r->Layer("replica.bootstrap_s", bootstrap_s, "s");
    r->Layer("replica.apply_us_per_record", apply_us_per_record, "us");
    r->Layer("replica.route_us", route_us, "us");
    r->Layer("replica.lag_records_p50", lag_records_p50, "count");
    r->Layer("replica.catchup_ms", catchup_ms, "ms");
    r->Layer("replica.failovers", failovers, "count");
    r->Layer("net.records_sent", records_sent, "count");
    r->Layer("net.reconnects", reconnects, "count");
    r->Layer("proc.cpu_us_per_op", cpu_us_per_op, "us");
    r->Layer("trace.overhead_pct", trace_overhead_pct, "%");
    r->Layer("host.steal_pct", steal_pct, "%");
    r->Layer("host.ref_ms", ref_ms, "ms");
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The end-to-end metrics every workload prints (BENCHMARK.json order).
/// The op's latency is the sum of the medians of its `parts` (one part,
/// except on durable_replicated: a mutation and a routed read), taken per
/// slice of the window; the reported figure is the median over slices.
/// The request rate is printed but not gated: with a fixed number of
/// closed-loop clients it is clients ÷ mean latency, so it adds host noise
/// and no information (README.md, "End-to-end metrics").
void EmitE2e(Report* r, const std::vector<const ClientResult*>& parts,
             const Window& w, double setup_s, double peak_rss) {
  const double success =
      r->attempted > 0
          ? static_cast<double>(r->attempted - r->failed) / r->attempted
          : 0.0;
  const double slice_s = static_cast<double>(w.planned_ns) / 1e9 / kSlices;
  std::vector<double> rate, p50;
  std::printf("slices (requests/s | op p50 us):");
  for (int k = 0; k < kSlices; ++k) {
    double ops = 0, us = 0;
    for (const ClientResult* p : parts) {
      ops += static_cast<double>(p->slice_ops[k]);
      us += p->slice_ns[k].Quantile(0.5) / 1e3;
    }
    rate.push_back(ops / slice_s);
    p50.push_back(us);
    std::printf(" %.5g|%.5g", rate.back(), p50.back());
  }
  std::printf("\n%-24s %14.4f 1/s\n", "ops_per_s", Median(rate));
  r->E2e("op_p50_us", Median(p50), "us");
  r->E2e("success_rate", success, "ratio");
  r->E2e("setup_s", setup_s, "s");
  r->E2e("peak_rss_mb", peak_rss, "MiB");
}

/// Adds the process and host figures to `v` and emits both metric sets.
void Finish(Report* r, LayerValues* v,
            const std::vector<const ClientResult*>& parts, const Window& w,
            double setup_s, double peak_rss, double ref_ms) {
  int64_t ops = 0;
  for (const ClientResult* p : parts) ops += p->ops;
  v->cpu_us_per_op = w.cpu_us / static_cast<double>(std::max<int64_t>(1, ops));
  v->steal_pct = StealPct(w.cpu0, w.cpu1);
  v->ref_ms = ref_ms;
  v->Emit(r);
  EmitE2e(r, parts, w, setup_s, peak_rss);
}

struct Inputs {
  std::vector<Trajectory> db;
  std::vector<Trajectory> query_base;  // disjoint from db
  std::vector<Trajectory> hot;         // disjoint from db and query_base
};

/// Points of the i-th generated trajectory: 3 in 4 at the 24-point cap and
/// the rest spread over 10..23, so every seed encodes the same number of
/// points in the same order (encode cost is linear in points; left to the
/// generator, the capped share swings from ~60% to ~80% between seeds).
int ScheduledPoints(int i) {
  return i % 4 != 3 ? kMaxPoints : 10 + (i / 4) % (kMaxPoints - 10);
}

Inputs MakeInputs(uint64_t seed) {
  // One generator call, so every set shares the city's hub layout; trips
  // shorter than their scheduled length are skipped, longer ones are
  // downsampled to it.
  constexpr int kTotal = kDbSize + kQueryBase + kHotKeys;
  t2h::traj::CityConfig city = t2h::traj::CityConfig::PortoLike();
  city.max_points = kMaxPoints;
  t2h::Rng rng(SubSeed(seed, 1));
  const std::vector<Trajectory> pool =
      t2h::traj::GenerateTrips(city, 3 * kTotal, rng);
  std::vector<Trajectory> all;
  all.reserve(kTotal);
  for (size_t next = 0; static_cast<int>(all.size()) < kTotal; ++next) {
    if (next == pool.size()) {
      std::fprintf(stderr, "generator produced too few long trips\n");
      std::exit(2);
    }
    const int want = ScheduledPoints(static_cast<int>(all.size()));
    if (pool[next].size() < want) continue;
    all.push_back(t2h::traj::Downsample(pool[next], want));
  }
  Inputs in;
  in.db.assign(all.begin(), all.begin() + kDbSize);
  in.query_base.assign(all.begin() + kDbSize,
                       all.begin() + kDbSize + kQueryBase);
  in.hot.assign(all.begin() + kDbSize + kQueryBase, all.end());
  for (int i = 0; i < kDbSize; ++i) in.db[i].id = i;
  return in;
}

std::unique_ptr<t2h::serve::QueryEngine> LoadedEngine(
    const t2h::core::Traj2Hash& model, const Inputs& in, int pool) {
  auto engine =
      std::make_unique<t2h::serve::QueryEngine>(&model, EngineOptions(pool));
  const t2h::Status s = engine->InsertAll(in.db);
  if (!s.ok()) {
    std::fprintf(stderr, "InsertAll failed: %s\n", s.ToString().c_str());
    std::exit(2);
  }
  engine->CompactAll();
  // InsertAll also schedules background compactions, and CompactAll skips a
  // shard whose background run is still in flight. Ready means every shard's
  // delta is folded into its base; a later install would bump the mutation
  // epoch and void result-cache entries filled by the warm-up.
  const t2h::serve::ShardedIndex& index = engine->index();
  const int64_t give_up = NowNs() + 60'000'000'000;
  for (int s = 0; s < index.num_shards(); ++s) {
    while (index.shard(s).delta_size() != 0) {
      if (NowNs() > give_up) {
        std::fprintf(stderr, "shard %d still has a delta after CompactAll\n",
                     s);
        std::exit(2);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return engine;
}

/// Encodes `qs` on a 4-thread pool (verification only, after timing).
std::vector<std::vector<float>> EmbedForCheck(
    const t2h::core::Traj2Hash& m, const std::vector<Trajectory>& qs) {
  t2h::ThreadPool pool(4);
  return m.EmbedBatch(qs, &pool);
}

void FillFrontend(const t2h::serve::FrontendSnapshot& a,
                  const t2h::serve::FrontendSnapshot& b, LayerValues* v) {
  const double lookups = static_cast<double>(b.cache_lookups - a.cache_lookups);
  if (lookups > 0) {
    v->cache_hit_rate =
        static_cast<double>(b.cache_hits - a.cache_hits) / lookups;
    v->cache_evictions_per_query =
        static_cast<double>(b.cache_evictions - a.cache_evictions) / lookups;
  }
  v->cache_bytes = static_cast<double>(b.cache_bytes);
}

// ---------------------------------------------------------------------------
// The read-only workloads (unique_lookup, hot_cached, batch_join) share one
// window runner, RunReadOnly; each supplies its client loop and its oracle
// check.

/// What one client thread runs in one window of a read-only workload.
struct ClientCtx {
  int client;
  int stream;  // `client` in the timed window, a fresh stream in the other
  bool timed;  // the window the metrics come from; samples come only from it
  bool traced;
  const Clock& clock;
  ClientResult& r;
};

struct ReadOnlyRun {
  std::vector<ClientResult> clients;  // timed window, per client
  ClientResult all;                   // `clients` merged
  Window w;
  double peak_rss = 0;
};

/// Runs `body` on `clients` threads: in the traced run, first an untraced
/// reference window of 1/3 of --seconds on fresh streams (it also fills the
/// result cache, so the traced window sees evictions), then the timed
/// window. Fills the report's request counts and the serve and quant layer
/// values; in the traced run also the replay check, spans and overhead.
ReadOnlyRun RunReadOnly(const Args& args,
                        const t2h::serve::QueryEngine& engine, int clients,
                        const std::function<void(const ClientCtx&)>& body,
                        Report* report, LayerValues* v) {
  auto window = [&](bool timed, bool traced, double seconds,
                    std::vector<ClientResult>* results) {
    results->assign(clients, ClientResult());
    if (traced) {
      for (auto& r : *results) r.layers.spans = SpanLog(kSpanCapacity);
    }
    return RunClients(clients, seconds, [&](int c, const Clock& clock) {
      body({c, timed ? c : clients + c, timed, traced, clock, (*results)[c]});
    });
  };
  double ref_ops_per_s = 0;
  if (args.trace) {
    std::vector<ClientResult> ref;
    const Window rw = window(false, false, args.seconds / 3, &ref);
    int64_t ops = 0;
    for (const auto& r : ref) ops += r.ops;
    ref_ops_per_s = ops / rw.seconds();
  }
  ReadOnlyRun run;
  const t2h::serve::FrontendSnapshot fs0 = engine.frontend_stats();
  const t2h::serve::QuantSnapshot qs0 = engine.quant_stats();
  const int64_t shed0 = engine.shed_count();
  run.w = window(true, args.trace, TimedSeconds(args), &run.clients);
  run.peak_rss = PeakRssMiB();
  const t2h::serve::FrontendSnapshot fs1 = engine.frontend_stats();
  const t2h::serve::QuantSnapshot qs1 = engine.quant_stats();

  for (const auto& r : run.clients) run.all.Merge(r);
  report->attempted = run.all.attempted;
  report->failed = run.all.failed;
  report->first_error = run.all.first_error;
  const double ops_per_s = run.all.ops / run.w.seconds();
  std::printf("requests %" PRId64 " in %.3f s (%" PRId64 " failed)\n",
              run.all.ops, run.w.seconds(), run.all.failed);
  std::printf("%-24s %12.3f 1/s\n", "qps", ops_per_s);
  if (args.trace) {
    v->FromLayers(run.all.layers);
    report->Check(run.all.layers.replay_mismatches == 0,
                  "traced replay disagrees with the engine");
    std::printf("replay: %" PRId64 " mismatches\n",
                run.all.layers.replay_mismatches);
    std::vector<const LayerStats*> logs;
    for (const auto& r : run.clients) logs.push_back(&r.layers);
    WriteSpans(args, logs, run.w.start_ns);
    v->trace_overhead_pct = 100.0 * (ref_ops_per_s / ops_per_s - 1.0);
  }
  FillFrontend(fs0, fs1, v);
  v->shed = static_cast<double>(engine.shed_count() - shed0);
  const uint64_t scanned = qs1.rerank_candidates - qs0.rerank_candidates;
  if (scanned > 0) {
    v->recheck_rate = static_cast<double>(qs1.rechecked - qs0.rechecked) /
                      static_cast<double>(scanned);
  }
  v->band_violations = static_cast<double>(qs1.band_violations);
  v->resident_bytes = static_cast<double>(qs1.resident_bytes);
  report->Check(qs1.band_violations == 0, "quant.band_violations != 0");
  return run;
}

// ---------------------------------------------------------------------------
// unique_lookup: 2 clients, pool 2; each client cycles through 3 Query and
// 1 QueryRerank over queries that never repeat, so the cache only pays its
// miss path. The op is one such cycle, so both calls are in op_p50_us.

Report UniqueLookup(const Args& args, const Inputs& in,
                    const t2h::core::Traj2Hash& model, double ref_ms) {
  constexpr int kClients = 2;
  Report report;
  double setup_s = 0;
  const QueryStream warm(&in.query_base, 5);
  auto engine = TimedSetup<t2h::serve::QueryEngine>(
      [&] {
        auto e = LoadedEngine(model, in, 2);
        for (int i = 0; i < 16; ++i) {
          (void)(i % 4 == 3 ? e->QueryRerank(warm.Make(i), kK)
                            : e->Query(warm.Make(i), kK));
        }
        return e;
      },
      &setup_s);
  const t2h::serve::ShardedIndex& index = engine->index();

  struct Sample {
    int64_t i;
    std::vector<Neighbor> got;
  };
  constexpr size_t kMaxSamples = 256;
  std::vector<std::vector<Sample>> samples(kClients);
  for (auto& s : samples) s.reserve(kMaxSamples);

  LayerValues v;
  const ReadOnlyRun run = RunReadOnly(
      args, *engine, kClients,
      [&](const ClientCtx& ctx) {
        ClientResult& r = ctx.r;
        std::vector<Sample>& mine = samples[ctx.client];
        const QueryStream stream(&in.query_base, ctx.stream);
        int64_t cycle_start = 0;
        for (int64_t i = 0; NowNs() < ctx.clock.deadline_ns; ++i) {
          const Trajectory q = stream.Make(i);
          const bool rerank = i % 4 == 3;
          const int32_t op_span =
              ctx.traced ? r.layers.spans.Add(
                               rerank ? "op.rerank" : "op.query", i, NowNs(), 0)
                         : -1;
          const int64_t t0 = NowNs();
          if (i % 4 == 0) cycle_start = t0;
          const t2h::serve::QueryResult res =
              rerank ? engine->QueryRerank(q, kK) : engine->Query(q, kK);
          const int64_t t1 = NowNs();
          r.Attempt(res.complete, res.status);
          r.Requests(ctx.clock, t1, 1);
          (rerank ? r.rerank_ns : r.query_ns).Record(t1 - t0);
          if (rerank) r.Op(ctx.clock, cycle_start, t1);
          // Every 64th Query and QueryRerank, so the checked ops reach past
          // the point where the cache starts evicting.
          if (ctx.timed && (i % 64 == 0 || i % 64 == 3) &&
              mine.size() < kMaxSamples) {
            mine.push_back({i, res.neighbors});
          }
          if (!ctx.traced) continue;
          LayerStats& ls = r.layers;
          ls.spans.Add(rerank ? "serve.QueryRerank" : "serve.Query", i, t0, t1,
                       op_span);
          Code code;
          int64_t enc = 0;
          if (rerank) {
            const std::vector<float> emb =
                ReplayEncode(model, q, i, op_span, &ls, &code, &enc);
            const int64_t t = NowNs();
            const std::vector<Neighbor> replay =
                index.QueryRerankTopK(code, emb, kK, kRerankCandidates);
            const int64_t e = NowNs();
            ls.rerank_ns.Record(e - t);
            ls.spans.Add("quant.rerank", i, t, e, op_span);
            if (!SameNeighbors(replay, res.neighbors)) ++ls.replay_mismatches;
          } else {
            ReplayKey(q, i, op_span, &ls);
            ReplayEncode(model, q, i, op_span, &ls, &code, &enc);
            int64_t pmax = 0, mrg = 0;
            const std::vector<Neighbor> replay =
                ReplayProbeMerge(index, code, i, op_span, &ls, &pmax, &mrg);
            if (!SameNeighbors(replay, res.neighbors)) ++ls.replay_mismatches;
            ls.encode_share_ppm.Record(enc * 1000000 /
                                       std::max<int64_t>(1, t1 - t0));
            ls.overhead_ns.Record((t1 - t0) - enc - pmax - mrg);
          }
          ls.spans.Close(op_span, NowNs());
        }
      },
      &report, &v);
  PrintLatency("query_p50_us", run.all.query_ns, 0.5);
  PrintLatency("query_p90_us", run.all.query_ns, 0.9);
  PrintLatency("rerank_p50_us", run.all.rerank_ns, 0.5);
  PrintLatency("rerank_p90_us", run.all.rerank_ns, 0.9);
  PrintLatency("cycle_p50_us", run.all.op_ns, 0.5);

  // Correctness: sampled results against the brute-force oracle.
  {
    const Oracle oracle(index);
    std::vector<Trajectory> qs;
    std::vector<const Sample*> flat;
    for (int c = 0; c < kClients; ++c) {
      for (const Sample& s : samples[c]) {
        qs.push_back(QueryStream(&in.query_base, c).Make(s.i));
        flat.push_back(&s);
      }
    }
    const auto embs = EmbedForCheck(model, qs);
    int64_t bad = 0;
    for (size_t j = 0; j < flat.size(); ++j) {
      const Code code = t2h::search::PackSigns(embs[j]);
      const bool rerank = flat[j]->i % 4 == 3;
      const std::vector<Neighbor> want =
          rerank ? oracle.RerankTopK(code, embs[j], kK, kRerankCandidates)
                 : oracle.HammingTopK(code, kK);
      if (!SameNeighbors(want, flat[j]->got)) ++bad;
    }
    std::printf("oracle: %zu sampled results checked, %" PRId64
                " mismatched\n", flat.size(), bad);
    report.Check(bad == 0 && !flat.empty(),
                 "unique_lookup: sampled results differ from the oracle");
  }
  Finish(&report, &v, {&run.all}, run.w, setup_s, run.peak_rss, ref_ms);
  return report;
}

// ---------------------------------------------------------------------------
// hot_cached: 2 clients, pool 2; Query over zipf(1.1) ranks of 512 keys, all
// answered once before timing, so every timed query is a cache hit.

Report HotCached(const Args& args, const Inputs& in,
                 const t2h::core::Traj2Hash& model, double ref_ms) {
  constexpr int kClients = 2;
  Report report;
  double setup_s = 0;
  std::vector<std::vector<Neighbor>> warm_results(kHotKeys);
  int64_t warm_failed = 0;
  auto engine = TimedSetup<t2h::serve::QueryEngine>(
      [&] {
        auto e = LoadedEngine(model, in, 2);
        warm_failed = 0;
        for (int i = 0; i < kHotKeys; ++i) {
          t2h::serve::QueryResult r = e->Query(in.hot[i], kK);
          if (!r.complete || !r.status.ok()) ++warm_failed;
          warm_results[i] = std::move(r.neighbors);
        }
        return e;
      },
      &setup_s);
  report.Check(warm_failed == 0, "hot_cached: warm-up queries failed");
  const t2h::ZipfSampler zipf(kHotKeys, kZipfS);

  struct Sample {
    int rank;
    std::vector<Neighbor> got;
  };
  constexpr size_t kMaxSamples = 1024;
  std::vector<std::vector<Sample>> samples(kClients);
  for (auto& s : samples) s.reserve(kMaxSamples);

  LayerValues v;
  const ReadOnlyRun run = RunReadOnly(
      args, *engine, kClients,
      [&](const ClientCtx& ctx) {
        ClientResult& r = ctx.r;
        std::vector<Sample>& mine = samples[ctx.client];
        t2h::Rng rng(SubSeed(args.seed, 10 + ctx.stream));
        for (int64_t i = 0; NowNs() < ctx.clock.deadline_ns; ++i) {
          const int rank = zipf.Sample(rng);
          const Trajectory& q = in.hot[rank];
          const int32_t op_span =
              ctx.traced ? r.layers.spans.Add("op.query", i, NowNs(), 0) : -1;
          const int64_t t0 = NowNs();
          const t2h::serve::QueryResult res = engine->Query(q, kK);
          const int64_t t1 = NowNs();
          r.Attempt(res.complete, res.status);
          r.Op(ctx.clock, t0, t1);
          r.Requests(ctx.clock, t1, 1);
          if (ctx.timed && i % 1024 == 0 && mine.size() < kMaxSamples) {
            mine.push_back({rank, res.neighbors});
          }
          if (!ctx.traced) continue;
          // A hit runs CacheKey + the cache lookup; only building the key is
          // a public call, so the replay times it and checks the answer
          // against the warm-up result for the same key.
          LayerStats& ls = r.layers;
          ls.spans.Add("serve.Query", i, t0, t1, op_span);
          ReplayKey(q, i, op_span, &ls);
          if (!SameNeighbors(warm_results[rank], res.neighbors)) {
            ++ls.replay_mismatches;
          }
          ls.spans.Close(op_span, NowNs());
        }
      },
      &report, &v);
  PrintLatency("query_p50_us", run.all.op_ns, 0.5);
  PrintLatency("query_p99_us", run.all.op_ns, 0.99);
  std::printf("cache hit rate over the window: %.6f\n", v.cache_hit_rate);

  // Correctness: every hot key's warm-up answer against the oracle, and the
  // sampled timed answers against those.
  {
    const Oracle oracle(engine->index());
    const auto embs = EmbedForCheck(model, in.hot);
    int64_t bad = 0;
    for (int i = 0; i < kHotKeys; ++i) {
      const Code code = t2h::search::PackSigns(embs[i]);
      if (!SameNeighbors(oracle.HammingTopK(code, kK), warm_results[i])) ++bad;
    }
    int64_t checked = 0;
    for (const auto& per : samples) {
      for (const Sample& s : per) {
        ++checked;
        if (!SameNeighbors(warm_results[s.rank], s.got)) ++bad;
      }
    }
    std::printf("oracle: %d keys + %" PRId64
                " sampled results checked, %" PRId64 " mismatched\n",
                kHotKeys, checked, bad);
    report.Check(bad == 0 && checked > 0,
                 "hot_cached: results differ from the oracle");
  }
  Finish(&report, &v, {&run.all}, run.w, setup_s, run.peak_rss, ref_ms);
  return report;
}

// ---------------------------------------------------------------------------
// batch_join: 1 submitter, pool 3; QueryBatch of 32 unseen trajectories.

Report BatchJoin(const Args& args, const Inputs& in,
                 const t2h::core::Traj2Hash& model, double ref_ms) {
  Report report;
  double setup_s = 0;
  const QueryStream warm(&in.query_base, 5);
  auto make_batch = [](const QueryStream& s, int64_t b) {
    std::vector<Trajectory> batch;
    batch.reserve(kBatch);
    for (int j = 0; j < kBatch; ++j) batch.push_back(s.Make(b * kBatch + j));
    return batch;
  };
  auto engine = TimedSetup<t2h::serve::QueryEngine>(
      [&] {
        auto e = LoadedEngine(model, in, 3);
        (void)e->QueryBatch(make_batch(warm, 0), kK);
        return e;
      },
      &setup_s);
  const t2h::serve::ShardedIndex& index = engine->index();
  std::unique_ptr<t2h::ThreadPool> replay_pool;
  if (args.trace) replay_pool = std::make_unique<t2h::ThreadPool>(3);

  struct Sample {
    int64_t batch;
    std::vector<std::vector<Neighbor>> got;
  };
  constexpr size_t kMaxSamples = 32;
  std::vector<Sample> samples;
  samples.reserve(kMaxSamples);

  LayerValues v;
  const ReadOnlyRun run = RunReadOnly(
      args, *engine, 1,
      [&](const ClientCtx& ctx) {
        ClientResult& r = ctx.r;
        const QueryStream stream(&in.query_base, ctx.stream);
        for (int64_t b = 0; NowNs() < ctx.clock.deadline_ns; ++b) {
          const std::vector<Trajectory> batch = make_batch(stream, b);
          const int32_t op_span =
              ctx.traced ? r.layers.spans.Add("op.batch", b, NowNs(), 0) : -1;
          const int64_t t0 = NowNs();
          const std::vector<t2h::serve::QueryResult> res =
              engine->QueryBatch(batch, kK);
          const int64_t t1 = NowNs();
          r.Op(ctx.clock, t0, t1);
          r.Requests(ctx.clock, t1, kBatch);
          for (const auto& q : res) r.Attempt(q.complete, q.status);
          if (ctx.timed && b % 16 == 0 && samples.size() < kMaxSamples) {
            Sample s{b, {}};
            for (const auto& q : res) s.got.push_back(q.neighbors);
            samples.push_back(std::move(s));
          }
          if (!ctx.traced) continue;
          // Replay: keys, one EmbedBatch on an engine-sized pool, then each
          // query's per-shard probes and merge.
          LayerStats& ls = r.layers;
          ls.spans.Add("serve.QueryBatch", b, t0, t1, op_span);
          for (const Trajectory& q : batch) ReplayKey(q, b, op_span, &ls);
          const int64_t t = NowNs();
          const std::vector<std::vector<float>> embs =
              model.EmbedBatch(batch, replay_pool.get());
          std::vector<Code> codes;
          for (const auto& emb : embs) {
            codes.push_back(t2h::search::PackSigns(emb));
          }
          const int64_t e = NowNs();
          int points = 0;
          for (const Trajectory& q : batch) points += q.size();
          ls.encode_ns.Record(e - t);
          ls.encode_ns_point.Record((e - t) / (2 * std::max(1, points)));
          ls.batch_ns_traj.Record((e - t) / kBatch);
          ls.encode_share_ppm.Record((e - t) * 1000000 /
                                     std::max<int64_t>(1, t1 - t0));
          ls.spans.Add("core.encode_batch", b, t, e, op_span);
          for (int j = 0; j < kBatch; ++j) {
            int64_t pmax = 0, mrg = 0;
            const std::vector<Neighbor> merged = ReplayProbeMerge(
                index, codes[j], b, op_span, &ls, &pmax, &mrg);
            if (!SameNeighbors(merged, res[j].neighbors)) {
              ++ls.replay_mismatches;
            }
          }
          ls.spans.Close(op_span, NowNs());
        }
      },
      &report, &v);
  PrintLatency("batch_p50_us", run.all.op_ns, 0.5);
  PrintLatency("batch_p90_us", run.all.op_ns, 0.9);

  {
    const Oracle oracle(index);
    const QueryStream stream(&in.query_base, 0);
    std::vector<Trajectory> qs;
    for (const Sample& s : samples) {
      for (auto& q : make_batch(stream, s.batch)) qs.push_back(std::move(q));
    }
    const auto embs = EmbedForCheck(model, qs);
    int64_t bad = 0;
    size_t j = 0;
    for (const Sample& s : samples) {
      for (const auto& got : s.got) {
        const Code code = t2h::search::PackSigns(embs[j++]);
        if (!SameNeighbors(oracle.HammingTopK(code, kK), got)) ++bad;
      }
    }
    std::printf("oracle: %zu sampled results checked, %" PRId64
                " mismatched\n", qs.size(), bad);
    report.Check(bad == 0 && !qs.empty(),
                 "batch_join: sampled results differ from the oracle");
  }
  Finish(&report, &v, {&run.all}, run.w, setup_s, run.peak_rss, ref_ms);
  return report;
}

// ---------------------------------------------------------------------------
// durable_replicated: a WAL-attached primary recovered from a snapshot, one
// quantized replica fed over a socket, 1 writer (6 Insert : 2 Update :
// 2 Remove per 10) and 1 reader (HashCode + ReadRouter::Query), pool 2.
// op_p50_us adds a mutation's median to a routed read's, so both paths are
// gated.

/// A primary, its ship server, one socket replica, a router and the ship
/// loop, in one directory. Destruction joins the ship loop first.
class DurableNode {
 public:
  DurableNode(const t2h::core::Traj2Hash& model, const std::string& dir,
              const std::string& base_snapshot)
      : dir_(dir), wal_path_(dir + "/primary.wal") {
    fs::create_directories(dir);
    // Recover replays whatever log it finds; a stale one from an earlier
    // run in this directory would change the database the writer targets.
    fs::remove(wal_path_);
    engine_ =
        std::make_unique<t2h::serve::QueryEngine>(&model, EngineOptions(2));
    Require(engine_->Recover(base_snapshot, wal_path_), "Recover");
    primary_ = std::make_unique<t2h::replica::Primary>(
        engine_->mutable_index(), wal_path_);
    server_ = std::make_unique<t2h::replica::ShipServer>(primary_.get());
    Require(server_->Start(), "ShipServer::Start");
    t2h::replica::ReplicaOptions ropts;
    ropts.num_shards = kShards;
    ropts.quantize = true;
    ropts.embedding_dim = kDim;
    replica_ = std::make_unique<t2h::replica::Replica>(
        primary_.get(),
        std::make_unique<t2h::replica::SocketTransport>("127.0.0.1",
                                                        server_->port()),
        ropts, "replica-0");
    const int64_t t0 = NowNs();
    Require(replica_->Bootstrap(dir + "/boot.snap"), "Replica::Bootstrap");
    bootstrap_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    t2h::replica::ReadRouterOptions router_opts;
    router_opts.max_attempts = 2;
    router_opts.cache_entries = kCacheEntries;
    router_ = std::make_unique<t2h::replica::ReadRouter>(
        std::vector<t2h::replica::Replica*>{replica_.get()}, router_opts);
    // PollApplyOnce blocks on the socket, so the loop needs no sleep.
    ship_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        if (!replica_->PollApplyOnce().ok()) {
          ship_errors_.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  ~DurableNode() {
    stop_.store(true, std::memory_order_release);
    if (ship_.joinable()) ship_.join();
    router_.reset();
    replica_.reset();
    if (server_ != nullptr) server_->Stop();
  }
  DurableNode(const DurableNode&) = delete;
  DurableNode& operator=(const DurableNode&) = delete;

  t2h::serve::QueryEngine& engine() { return *engine_; }
  t2h::replica::Primary& primary() { return *primary_; }
  t2h::replica::Replica& replica() { return *replica_; }
  t2h::replica::ReadRouter& router() { return *router_; }
  t2h::replica::ShipServer& server() { return *server_; }
  const std::string& wal_path() const { return wal_path_; }
  const std::string& dir() const { return dir_; }
  double bootstrap_s() const { return bootstrap_s_; }
  int64_t ship_errors() const { return ship_errors_.load(); }

 private:
  static void Require(const t2h::Status& s, const char* what) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
      std::exit(2);
    }
  }

  const std::string dir_;
  const std::string wal_path_;
  double bootstrap_s_ = 0;
  std::unique_ptr<t2h::serve::QueryEngine> engine_;
  std::unique_ptr<t2h::replica::Primary> primary_;
  std::unique_ptr<t2h::replica::ShipServer> server_;
  std::unique_ptr<t2h::replica::Replica> replica_;
  std::unique_ptr<t2h::replica::ReadRouter> router_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> ship_errors_{0};
  std::thread ship_;  // declared last: joins before the members it uses go
};

/// Picks update/remove targets so that no mutation fails and the per-shard
/// op sequence does not depend on the seed: shards take turns, and each
/// target is a live id never touched before — bulk-loaded ids first (always
/// in a shard's base), then ids this writer inserted.
class TargetPicker {
 public:
  TargetPicker(uint64_t seed, int db_size) : rng_(seed), fresh_(kShards) {
    for (int id = 0; id < db_size; ++id) fresh_[id % kShards].push_back(id);
    for (auto& f : fresh_) rng_.Shuffle(f);
  }
  void Inserted(int id) { inserted_[id % kShards].push_back(id); }
  int Next() {
    const int s = turn_++ % kShards;
    std::vector<int>& pool = fresh_[s].empty() ? inserted_[s] : fresh_[s];
    const int id = pool.back();  // inserts outpace picks, so never empty
    pool.pop_back();
    return id;
  }

 private:
  t2h::Rng rng_;
  std::vector<std::vector<int>> fresh_;
  std::vector<std::vector<int>> inserted_{kShards};
  int64_t turn_ = 0;
};

enum class MutationKind { kInsert, kUpdate, kRemove };
constexpr MutationKind kMutationCycle[10] = {
    MutationKind::kInsert, MutationKind::kUpdate, MutationKind::kInsert,
    MutationKind::kRemove, MutationKind::kInsert, MutationKind::kInsert,
    MutationKind::kUpdate, MutationKind::kInsert, MutationKind::kRemove,
    MutationKind::kInsert};

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// Replica apply cost without the socket wait that PollApplyOnce blocks in:
/// replays the primary's WAL (ingest::WalCursor) into a quantized index
/// loaded from the boot snapshot through ShardedIndex::ApplyShipped, the
/// call a replica applies each shipped record with. Returns the median µs
/// per record and checks the result against the primary.
double ShadowApplyUs(const std::string& snapshot, const std::string& wal,
                     const t2h::serve::ShardedIndex& primary, Report* report) {
  t2h::serve::ShardedIndex shadow(kShards, kDim,
                                  t2h::search::SearchStrategy::kMih, 0, 64,
                                  0.25, /*quantize=*/true, kDim);
  std::vector<t2h::ingest::WalRecord> records;
  t2h::ingest::WalCursor cursor(wal);
  report->Check(
      shadow.LoadSnapshot(snapshot).ok() && cursor.Poll(&records).ok(),
      "shadow replay could not read the snapshot and WAL");
  Histogram ns;
  for (const auto& rec : records) {
    const int64_t t = NowNs();
    const t2h::Status s = shadow.ApplyShipped(rec);
    ns.Record(NowNs() - t);
    report->Check(s.ok(), "ApplyShipped failed in the shadow replay");
  }
  report->Check(shadow.live_size() == primary.live_size(),
                "shadow replay differs from the primary");
  std::printf("shadow apply: %zu records\n", records.size());
  return ns.Quantile(0.5) / 1e3;
}

Report DurableReplicated(const Args& args, const Inputs& in,
                         const t2h::core::Traj2Hash& model, double ref_ms) {
  Report report;
  const std::string base_snapshot = args.workdir + "/base.snap";
  {
    // Input preparation (not part of setup_s): the snapshot a restarting
    // primary boots from.
    fs::create_directories(args.workdir);
    const int64_t t0 = NowNs();
    auto loader = LoadedEngine(model, in, 2);
    const t2h::Status s = loader->SaveSnapshot(base_snapshot);
    if (!s.ok()) {
      std::fprintf(stderr, "SaveSnapshot failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    std::printf("prep: base snapshot in %.3f s\n",
                static_cast<double>(NowNs() - t0) / 1e9);
  }
  double setup_s = 0;
  int rep = 0;
  const QueryStream warm(&in.query_base, 5);
  auto node = TimedSetup<DurableNode>(
      [&] {
        auto n = std::make_unique<DurableNode>(
            model, args.workdir + "/rep" + std::to_string(rep++),
            base_snapshot);
        for (int i = 0; i < 16; ++i) {
          (void)n->router().Query(model.HashCode(warm.Make(i)), kK);
        }
        return n;
      },
      &setup_s);
  t2h::serve::QueryEngine& engine = node->engine();
  t2h::serve::ShardedIndex* index = engine.mutable_index();

  const QueryStream write_stream(&in.query_base, 6);
  TargetPicker picker(SubSeed(args.seed, 20), kDbSize);
  int64_t writes = 0;          // mutation ordinal, across windows
  int64_t expected_live = kDbSize;
  std::atomic<bool> writer_done{false};
  int64_t writer_stop_ns = 0;
  int64_t counted_compactions = -1;
  double counted_wal_bytes = -1;
  const int compactions0 = index->compactions_run();

  // Window body: client 0 writes, client 1 reads.
  auto run = [&](bool traced, double seconds, int read_stream_id,
                 std::vector<ClientResult>* results) {
    results->assign(2, ClientResult());
    if (traced) {
      for (auto& r : *results) r.layers.spans = SpanLog(kSpanCapacity);
    }
    writer_done.store(false);
    return RunClients(2, seconds, [&](int c, const Clock& clock) {
      ClientResult& r = (*results)[c];
      LayerStats& ls = r.layers;
      if (c == 1) {
        const QueryStream read_stream(&in.query_base, read_stream_id);
        for (int64_t i = 0; !writer_done.load(std::memory_order_acquire); ++i) {
          const Trajectory q = read_stream.Make(i);
          const int64_t t0 = NowNs();
          const Code code = model.HashCode(q);
          const int64_t tr = NowNs();
          const t2h::replica::RoutedRead read = node->router().Query(code, kK);
          const int64_t t1 = NowNs();
          r.Op(clock, t0, t1);
          r.Requests(clock, t1, 1);
          r.Attempt(true, read.status);
          if (traced) {
            const int32_t op_span = ls.spans.Add("op.read", i, t0, t1);
            ls.spans.Add("core.hash_code", i, t0, tr, op_span);
            ls.spans.Add("replica.route", i, tr, t1, op_span);
            ls.route_ns.Record(t1 - tr);
            ls.lag_records.Record(node->replica().lag_records());
          }
        }
        return;
      }
      const uint64_t wal0 = FileSize(node->wal_path());
      const int64_t first = writes;
      for (;; ++writes) {
        const int64_t done = writes - first;
        if (traced && done == kCountedMutations) {
          counted_compactions = index->compactions_run() - compactions0;
          counted_wal_bytes =
              static_cast<double>(FileSize(node->wal_path()) - wal0) / done;
        }
        if (NowNs() >= clock.deadline_ns &&
            !(traced && done < kCountedMutations)) {
          break;
        }
        const MutationKind kind = kMutationCycle[writes % 10];
        const int target = kind == MutationKind::kInsert ? -1 : picker.Next();
        const Trajectory t = kind == MutationKind::kRemove
                                 ? Trajectory()
                                 : write_stream.Make(writes);
        const int64_t t0 = NowNs();
        t2h::Status status;
        int new_id = -1;
        if (!traced) {
          if (kind == MutationKind::kInsert) {
            t2h::Result<int> id = engine.Insert(t);
            status = id.status();
            if (id.ok()) new_id = id.value();
          } else if (kind == MutationKind::kUpdate) {
            status = engine.Update(target, t);
          } else {
            status = engine.Remove(target);
          }
        } else {
          // Replay of QueryEngine::Insert/Update/Remove: encode, apply the
          // precomputed code through the WAL-attached index, then claim and
          // run any triggered compaction inline, in the engine's order.
          const int32_t op_span = ls.spans.Add("op.mutation", writes, t0, 0);
          std::vector<float> emb;
          Code code;
          int64_t enc = 0;
          if (kind != MutationKind::kRemove) {
            emb = ReplayEncode(model, t, writes, op_span, &ls, &code, &enc);
          }
          const int64_t ta = NowNs();
          if (kind == MutationKind::kInsert) {
            t2h::Result<int> id =
                index->Insert(std::move(code), std::move(emb));
            status = id.status();
            if (id.ok()) new_id = id.value();
          } else if (kind == MutationKind::kUpdate) {
            status = index->Update(target, std::move(code), std::move(emb));
          } else {
            status = index->Remove(target);
          }
          const int64_t ea = NowNs();
          ls.apply_ns.Record(ea - ta);
          ls.spans.Add("ingest.apply", writes, ta, ea, op_span);
          for (int s = 0; s < index->num_shards(); ++s) {
            if (!index->ClaimCompaction(s)) continue;
            const int64_t tc = NowNs();
            index->RunClaimedCompaction(s);
            const int64_t ec = NowNs();
            ls.compaction_ns.Record(ec - tc);
            ls.spans.Add("ingest.compaction", writes, tc, ec, op_span);
          }
          const int64_t end = NowNs();
          ls.spans.Close(op_span, end);
          if (enc > 0) {
            ls.encode_share_ppm.Record(enc * 1000000 /
                                       std::max<int64_t>(1, end - t0));
          }
        }
        const int64_t t1 = NowNs();
        r.Op(clock, t0, t1);
        r.Requests(clock, t1, 1);
        r.Attempt(true, status);
        if (status.ok() && kind == MutationKind::kInsert) {
          picker.Inserted(new_id);
          ++expected_live;
        } else if (status.ok() && kind == MutationKind::kRemove) {
          --expected_live;
        }
      }
      writer_stop_ns = NowNs();
      writer_done.store(true, std::memory_order_release);
    });
  };

  std::vector<ClientResult> results;
  const uint64_t sent0 = node->server().records_sent();
  const t2h::serve::ResultCache::Stats router_cache0 =
      node->router().cache_stats();
  const Window w = run(args.trace, TimedSeconds(args), 7, &results);
  const double peak_rss = PeakRssMiB();
  // Catch-up: from the writer's stop until the replica has applied the
  // primary's last commit.
  const uint64_t committed = node->primary().committed_seq();
  while (node->replica().applied_seq() < committed &&
         NowNs() - writer_stop_ns < 10'000'000'000) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const double catchup_ms = static_cast<double>(NowNs() - writer_stop_ns) / 1e6;
  const bool caught_up = node->replica().applied_seq() >= committed;

  const ClientResult& wr = results[0];
  const ClientResult& rd = results[1];
  report.attempted = wr.attempted + rd.attempted;
  report.failed = wr.failed + rd.failed;
  report.first_error = !wr.first_error.empty() ? "writer: " + wr.first_error
                       : !rd.first_error.empty() ? "reader: " + rd.first_error
                                                 : "";
  const double mutations_per_s = wr.ops / w.seconds();
  std::printf("mutations %" PRId64 ", routed reads %" PRId64 " in %.3f s (%"
              PRId64 " failed)\n", wr.attempted, rd.attempted, w.seconds(),
              report.failed);
  std::printf("%-24s %12.3f 1/s\n", "qps", rd.attempted / w.seconds());
  PrintLatency("query_p50_us", rd.op_ns, 0.5);
  PrintLatency("query_p90_us", rd.op_ns, 0.9);
  std::printf("%-24s %12.3f 1/s\n", "mutations_per_s", mutations_per_s);
  PrintLatency("mutation_p50_us", wr.op_ns, 0.5);
  PrintLatency("mutation_p90_us", wr.op_ns, 0.9);
  std::printf("replica caught up in %.3f ms: %s\n", catchup_ms,
              caught_up ? "yes" : "NO");

  // Correctness after quiescence: primary = oracle, replica = primary, a
  // node recovered from copies of the snapshot + WAL = primary.
  report.Check(caught_up, "replica did not catch up");
  report.Check(engine.live_size() == expected_live,
               "primary live size differs from the acknowledged mutations");
  {
    const Oracle oracle(engine.index());
    const std::string copy_dir = node->dir() + "/recovered";
    std::error_code ec;
    fs::create_directories(copy_dir, ec);
    fs::copy_file(base_snapshot, copy_dir + "/base.snap",
                  fs::copy_options::overwrite_existing, ec);
    fs::copy_file(node->wal_path(), copy_dir + "/primary.wal",
                  fs::copy_options::overwrite_existing, ec);
    t2h::serve::QueryEngine recovered(&model, EngineOptions(1));
    report.Check(recovered.Recover(copy_dir + "/base.snap",
                                   copy_dir + "/primary.wal")
                     .ok(),
                 "recovery from the snapshot + WAL failed");
    const QueryStream check(&in.query_base, 8);
    std::vector<Trajectory> qs;
    for (int i = 0; i < 64; ++i) qs.push_back(check.Make(i));
    const auto embs = EmbedForCheck(model, qs);
    const auto replica_index = node->replica().index();
    int64_t bad = 0;
    for (const auto& emb : embs) {
      const Code code = t2h::search::PackSigns(emb);
      const std::vector<Neighbor> want = oracle.HammingTopK(code, kK);
      if (!SameNeighbors(engine.index().QueryTopK(code, kK), want)) ++bad;
      if (!SameNeighbors(replica_index->QueryTopK(code, kK), want)) ++bad;
      const t2h::replica::RoutedRead routed = node->router().Query(code, kK);
      if (!routed.status.ok() || !SameNeighbors(routed.neighbors, want)) ++bad;
      if (!SameNeighbors(recovered.index().QueryTopK(code, kK), want)) ++bad;
    }
    std::printf("oracle: %zu queries x (primary, replica, router, recovered)"
                " checked, %" PRId64 " mismatched\n", qs.size(), bad);
    report.Check(bad == 0,
                 "durable_replicated: results differ from the oracle");
  }
  report.Check(node->ship_errors() == 0, "ship loop reported errors");

  LayerValues v;
  const t2h::serve::QuantSnapshot qsnap = engine.quant_stats();
  v.resident_bytes = static_cast<double>(qsnap.resident_bytes);
  v.band_violations = static_cast<double>(qsnap.band_violations);
  report.Check(qsnap.band_violations == 0, "quant.band_violations != 0");
  if (args.trace) {
    LayerStats merged;
    merged.Merge(wr.layers);
    merged.Merge(rd.layers);
    v.FromLayers(merged);
    WriteSpans(args, {&wr.layers, &rd.layers}, w.start_ns);
    report.Check(counted_compactions >= 0,
                 "traced writer did not reach the counted mutations");
    v.compactions = static_cast<double>(counted_compactions);
    v.wal_bytes_per_mutation = counted_wal_bytes;
    v.bootstrap_s = node->bootstrap_s();
    v.apply_us_per_record =
        ShadowApplyUs(base_snapshot, node->wal_path(), engine.index(), &report);
    v.catchup_ms = catchup_ms;
    v.failovers = static_cast<double>(node->router().failovers());
    v.records_sent =
        static_cast<double>(node->server().records_sent() - sent0);
    v.reconnects = static_cast<double>(
        node->replica().transport().counters().reconnects.load());
    const t2h::replica::ReadRouter& router = node->router();
    const t2h::serve::ResultCache::Stats cs = router.cache_stats();
    const double lookups =
        static_cast<double>(cs.lookups - router_cache0.lookups);
    v.cache_hit_rate =
        lookups > 0
            ? static_cast<double>(cs.hits - router_cache0.hits) / lookups
            : 0.0;
    v.cache_evictions_per_query =
        lookups > 0
            ? static_cast<double>(cs.evictions - router_cache0.evictions) /
                  lookups
            : 0.0;
    v.cache_bytes = static_cast<double>(router.cache_bytes());
    v.shed = static_cast<double>(router.shed_count());
    std::printf("ingest: %d compactions over the first %d mutations, %.1f WAL"
                " bytes per mutation\n", static_cast<int>(counted_compactions),
                kCountedMutations, counted_wal_bytes);
    std::vector<ClientResult> ref;
    const Window rw = run(false, args.seconds / 3, 9, &ref);
    v.trace_overhead_pct =
        100.0 * ((ref[0].ops / rw.seconds()) / mutations_per_s - 1.0);
  }
  Finish(&report, &v, {&wr, &rd}, w, setup_s, peak_rss, ref_ms);
  node.reset();
  return report;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty();
}

void PrintJson(const Report& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %"
              PRId64 ", \"metrics\": {", r.failures.empty() ? "true" : "false",
              r.attempted, r.failed);
  const std::vector<Metric>& ms = trace ? r.layer : r.e2e;
  for (size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-dir DIR]\n");
    return 2;
  }
  using Fn = Report (*)(const Args&, const Inputs&, const t2h::core::Traj2Hash&,
                        double);
  const std::pair<const char*, Fn> workloads[] = {
      {"unique_lookup", UniqueLookup},
      {"hot_cached", HotCached},
      {"batch_join", BatchJoin},
      {"durable_replicated", DurableReplicated}};
  Fn fn = nullptr;
  for (const auto& [name, f] : workloads) {
    if (args.workload == name) fn = f;
  }
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  const double ref_ms = ReferenceLoopMs();
  const Inputs in = MakeInputs(args.seed);
  t2h::core::Traj2HashConfig config;
  config.dim = kDim;
  t2h::Rng model_rng(SubSeed(args.seed, 4));
  auto model = t2h::core::Traj2Hash::Create(config, in.db, model_rng);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 2;
  }
  const Report report = fn(args, in, *model.value(), ref_ms);
  for (const Metric& m : report.layer) {
    if (m.name.rfind("host.", 0) == 0 || m.name == "proc.cpu_us_per_op") {
      std::printf("%s %.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const Metric& m : report.e2e) {
    std::printf("%-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    for (const Metric& m : report.layer) {
      std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!report.first_error.empty()) {
    std::printf("first failed request: %s\n", report.first_error.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::fflush(stdout);
  PrintJson(report, args.trace);
  std::fflush(stdout);
  return report.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
