#include <algorithm>
#include <numeric>

#include "support/reference.hpp"
#include "util/error.hpp"

namespace optibar {

ReferenceSourceRows source_rows_reference(
    std::size_t ranks, const std::vector<CompiledEdge>& edges) {
  ReferenceSourceRows rows;
  rows.sources.resize(ranks);
  rows.one_sided.resize(ranks);
  rows.recv_l.assign(ranks, 0.0);
  // Comparison sort of an index permutation into (dst, src) order.
  std::vector<std::size_t> by_dst(edges.size());
  std::iota(by_dst.begin(), by_dst.end(), std::size_t{0});
  std::sort(by_dst.begin(), by_dst.end(), [&edges](std::size_t a,
                                                   std::size_t b) {
    return edges[a].dst != edges[b].dst ? edges[a].dst < edges[b].dst
                                        : edges[a].src < edges[b].src;
  });
  for (std::size_t e : by_dst) {
    const CompiledEdge& edge = edges[e];
    OPTIBAR_REQUIRE(edge.dst < ranks, "edge target out of range");
    rows.sources[edge.dst].push_back(edge.src);
    rows.one_sided[edge.dst].push_back(edge.one_sided ? 1 : 0);
    if (!edge.one_sided) {
      rows.recv_l[edge.dst] += edge.l;
    }
  }
  return rows;
}

}  // namespace optibar
