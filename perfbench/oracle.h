// Brute-force answers that the benchmark compares served results against,
// bit for bit (ids and distances, in order).
#ifndef TRAJ2HASH_PERFBENCH_ORACLE_H_
#define TRAJ2HASH_PERFBENCH_ORACLE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "search/code.h"
#include "search/flat_storage.h"
#include "search/knn.h"
#include "serve/sharded_index.h"

namespace perfbench {

namespace t2h = traj2hash;

/// Ascending distance, ties by ascending id — written out here rather than
/// borrowed from the library, so the oracle does not share the ordering it
/// checks.
inline void SortByDistanceThenId(std::vector<t2h::search::Neighbor>* v) {
  std::sort(v->begin(), v->end(),
            [](const t2h::search::Neighbor& a, const t2h::search::Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.index < b.index;
            });
}

inline bool SameNeighbors(const std::vector<t2h::search::Neighbor>& a,
                          const std::vector<t2h::search::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

/// Snapshot of an index's live codes (per shard, via SnapshotEntries) that
/// answers top-k queries by exhaustive scan.
class Oracle {
 public:
  explicit Oracle(const t2h::serve::ShardedIndex& index) : index_(index) {
    shards_.resize(index.num_shards());
    for (int s = 0; s < index.num_shards(); ++s) {
      for (auto& e : index.shard(s).SnapshotEntries()) {
        shards_[s].emplace_back(e.id, std::move(e.code));
      }
    }
  }

  /// Hamming top-k over every live entry.
  std::vector<t2h::search::Neighbor> HammingTopK(const t2h::search::Code& q,
                                                 int k) const {
    std::vector<t2h::search::Neighbor> all;
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
      std::vector<t2h::search::Neighbor> part = ShardHamming(s, q);
      all.insert(all.end(), part.begin(), part.end());
    }
    SortByDistanceThenId(&all);
    if (static_cast<int>(all.size()) > k) all.resize(k);
    return all;
  }

  /// Re-rank: in each shard, exact L2 over the stored (EmbeddingOf)
  /// embeddings of the shard's Hamming top-`candidates`; the shard answers
  /// then merge by (distance, id).
  std::vector<t2h::search::Neighbor> RerankTopK(
      const t2h::search::Code& q, const std::vector<float>& embedding, int k,
      int candidates) const {
    std::vector<t2h::search::Neighbor> all;
    for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
      std::vector<t2h::search::Neighbor> cand = ShardHamming(s, q);
      if (static_cast<int>(cand.size()) > candidates) cand.resize(candidates);
      std::vector<int> ids;
      for (const auto& n : cand) ids.push_back(n.index);
      std::sort(ids.begin(), ids.end());
      t2h::search::FlatMatrix rows(static_cast<int>(embedding.size()));
      std::vector<int> row_ids;
      for (const int id : ids) {
        const std::vector<float> e = index_.EmbeddingOf(id);
        if (e.size() != embedding.size()) continue;
        rows.Append(e);
        row_ids.push_back(id);
      }
      if (row_ids.empty()) continue;
      for (auto n : t2h::search::TopKEuclidean(rows, embedding, k)) {
        n.index = row_ids[n.index];
        all.push_back(n);
      }
    }
    SortByDistanceThenId(&all);
    if (static_cast<int>(all.size()) > k) all.resize(k);
    return all;
  }

 private:
  std::vector<t2h::search::Neighbor> ShardHamming(
      int s, const t2h::search::Code& q) const {
    std::vector<t2h::search::Neighbor> out;
    out.reserve(shards_[s].size());
    for (const auto& [id, code] : shards_[s]) {
      out.push_back({id, static_cast<double>(
                             t2h::search::HammingDistance(code, q))});
    }
    SortByDistanceThenId(&out);
    return out;
  }

  const t2h::serve::ShardedIndex& index_;
  std::vector<std::vector<std::pair<int, t2h::search::Code>>> shards_;
};

}  // namespace perfbench

#endif  // TRAJ2HASH_PERFBENCH_ORACLE_H_
