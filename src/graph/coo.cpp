#include "graph/coo.hpp"

#include <algorithm>

namespace pimtc::graph {

void EdgeList::assign(std::vector<Edge> edges) {
  edges_ = std::move(edges);
  rescan_num_nodes();
}

void EdgeList::append(std::span<const Edge> batch) {
  // insert() grows the vector geometrically; reserving size() + batch
  // here would reallocate on every small append (quadratic for a stream
  // of one-edge batches).
  for (const Edge& e : batch) {
    if (e.u >= num_nodes_) num_nodes_ = e.u + 1;
    if (e.v >= num_nodes_) num_nodes_ = e.v + 1;
  }
  edges_.insert(edges_.end(), batch.begin(), batch.end());
}

void EdgeList::rescan_num_nodes() {
  NodeId bound = 0;
  for (const Edge& e : edges_) {
    bound = std::max({bound, static_cast<NodeId>(e.u + 1),
                      static_cast<NodeId>(e.v + 1)});
  }
  num_nodes_ = bound;
}

}  // namespace pimtc::graph
