// MbiQueryStats — the one per-query record of an MBI query's work. The block
// loop of MbiIndex::Search writes it; the process metrics, the trace's totals
// and the caller's accumulated stats are derived from it at query end.

#ifndef MBI_MBI_QUERY_STATS_H_
#define MBI_MBI_QUERY_STATS_H_

#include <cstddef>

#include "graph/search.h"

namespace mbi {

/// The work of one MBI query, or the sum over several: every field adds up.
struct MbiQueryStats {
  size_t graph_blocks = 0;  ///< blocks searched through their block index
  size_t exact_blocks = 0;  ///< exact scans: committed tail, adaptive fallback
  SearchStats search;       ///< counters of every searched block
  /// The exact scans' share of search.distance_evaluations. A scan offers
  /// every row it reads to the result set, so it is also their filter hits.
  size_t exact_distance_evals = 0;

  size_t blocks_searched() const { return graph_blocks + exact_blocks; }

  MbiQueryStats& operator+=(const MbiQueryStats& o) {
    graph_blocks += o.graph_blocks;
    exact_blocks += o.exact_blocks;
    search += o.search;
    exact_distance_evals += o.exact_distance_evals;
    return *this;
  }
  friend bool operator==(const MbiQueryStats&,
                         const MbiQueryStats&) = default;
};

}  // namespace mbi

#endif  // MBI_MBI_QUERY_STATS_H_
