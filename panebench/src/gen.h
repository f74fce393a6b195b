// Seeded input generators. The program never sees a seed: it gets a graph
// directory in the public text layout, or a saved artifact.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"

namespace panebench {

/// A degree-corrected attributed block model in the shape of one of the
/// paper's datasets (sizes of the repository's stand-ins).
struct GraphShape {
  int64_t n = 0;                ///< nodes
  int64_t m = 0;                ///< directed edges (distinct, before holdout)
  int64_t d = 0;                ///< attributes
  int64_t entries = 0;          ///< node-attribute entries (before holdout)
  int64_t communities = 0;
  double edge_homophily = 0.0;  ///< share of edges inside the community
  double attr_homophily = 0.0;  ///< share of entries from the community block
};

/// "tweibo" (n=10k, m=220k, d=600) or "google+" (n=6k, m=120k, d=1000);
/// false for an unknown name.
bool ShapeByName(const std::string& name, GraphShape* shape);

/// Generates the graph, holds out `holdout_share` of its edges and entries
/// (plus as many absent pairs as negatives), writes the training graph as
/// meta.txt / edges.txt / attrs.txt under `dir` and returns the held-out
/// pairs. Returns false on an I/O error.
bool GenerateGraph(const GraphShape& shape, uint64_t seed, double holdout_share,
                   const std::string& dir, Holdout* holdout);

/// Clustered factors as the serving benches build them: `communities`
/// Gaussian centroids per side, node rows (xf, xb) and attribute rows (y)
/// scattered around their community's centroid. `holdout` receives planted
/// pairs: same-community (node, attribute) and (node, node) positives and
/// uniform negatives, `pairs` of each.
void GenerateClusteredFactors(int64_t n, int64_t d, int64_t h,
                              int64_t communities, uint64_t seed,
                              int64_t pairs, Factors* factors,
                              Holdout* holdout);

}  // namespace panebench
