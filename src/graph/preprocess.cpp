#include "graph/preprocess.hpp"

#include <algorithm>
#include <vector>

#include "common/edge_key_set.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"

namespace pimtc::graph {

PreprocessStats remove_loops_and_duplicates(EdgeList& list) {
  PreprocessStats stats;
  stats.input_edges = list.num_edges();

  EdgeKeySet seen;
  seen.reserve(list.num_edges());

  std::vector<Edge>& edges = list.mutable_edges();
  const std::size_t n = edges.size();
  std::size_t write = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + EdgeKeySet::kPrefetchDistance < n) {
      seen.prefetch(
          edge_key(edges[i + EdgeKeySet::kPrefetchDistance].canonical()));
    }
    const Edge e = edges[i];
    if (e.is_loop()) {
      ++stats.removed_self_loops;
      continue;
    }
    if (!seen.insert(edge_key(e.canonical()))) {
      ++stats.removed_duplicates;
      continue;
    }
    edges[write++] = e;
  }
  edges.resize(write);
  list.rescan_num_nodes();
  stats.output_edges = write;
  return stats;
}

void shuffle_edges(EdgeList& list, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Edge>& edges = list.mutable_edges();
  for (std::size_t i = edges.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(edges[i - 1], edges[j]);
  }
}

PreprocessStats preprocess(EdgeList& list, std::uint64_t seed) {
  PreprocessStats stats = remove_loops_and_duplicates(list);
  shuffle_edges(list, seed);
  return stats;
}

}  // namespace pimtc::graph
