#include "gen.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unordered_set>
#include <vector>

namespace panebench {

namespace {

uint64_t PairKey(int64_t a, int64_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

/// Index drawn with probability proportional to the weights whose running
/// sums are `cumulative`.
int64_t Draw(const std::vector<double>& cumulative, Rng* rng) {
  const double x = rng->Uniform() * cumulative.back();
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
  return std::min<int64_t>(it - cumulative.begin(),
                           static_cast<int64_t>(cumulative.size()) - 1);
}

std::vector<double> Cumulative(const std::vector<double>& weights) {
  std::vector<double> out(weights.size());
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) out[i] = sum += weights[i];
  return out;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

bool WriteString(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok && SyncFile(path);
}

/// Moves a `share` of `pairs` (chosen by shuffle) into `held`, and draws as
/// many negatives: pairs in [0, rows) x [0, cols) absent from `present`
/// (and not on the diagonal when `no_self`).
void HoldOut(std::vector<std::pair<int64_t, int64_t>>* pairs, double share,
             const std::unordered_set<uint64_t>& present, int64_t rows,
             int64_t cols, bool no_self, Rng* rng,
             std::vector<std::pair<int64_t, int64_t>>* held,
             std::vector<std::pair<int64_t, int64_t>>* negatives) {
  for (size_t i = pairs->size(); i > 1; --i) {
    std::swap((*pairs)[i - 1],
              (*pairs)[static_cast<size_t>(rng->Below(static_cast<int64_t>(i)))]);
  }
  const size_t count = static_cast<size_t>(share * pairs->size());
  held->assign(pairs->end() - static_cast<ptrdiff_t>(count), pairs->end());
  pairs->resize(pairs->size() - count);
  std::unordered_set<uint64_t> drawn;
  while (negatives->size() < count) {
    const int64_t a = rng->Below(rows);
    const int64_t b = rng->Below(cols);
    if (no_self && a == b) continue;
    const uint64_t key = PairKey(a, b);
    if (present.count(key) != 0 || !drawn.insert(key).second) continue;
    negatives->emplace_back(a, b);
  }
}

}  // namespace

bool ShapeByName(const std::string& name, GraphShape* shape) {
  if (name == "tweibo") {
    *shape = {10000, 220000, 600, 73000, 8, 0.55, 0.5};
    return true;
  }
  if (name == "google+") {
    *shape = {6000, 120000, 1000, 120000, 20, 0.7, 0.65};
    return true;
  }
  return false;
}

bool GenerateGraph(const GraphShape& shape, uint64_t seed, double holdout_share,
                   const std::string& dir, Holdout* holdout) {
  Rng rng(seed);
  const int64_t n = shape.n, d = shape.d, c_count = shape.communities;
  std::vector<int64_t> community(static_cast<size_t>(n));
  std::vector<double> activity(static_cast<size_t>(n));
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(c_count));
  std::vector<std::vector<double>> member_activity(
      static_cast<size_t>(c_count));
  for (int64_t v = 0; v < n; ++v) {
    community[v] = rng.Below(c_count);
    // Truncated Pareto activity, exponent 2.5: skewed degrees.
    activity[v] = std::min(50.0, std::pow(1.0 - rng.Uniform(), -1.0 / 1.5));
    members[community[v]].push_back(v);
    member_activity[community[v]].push_back(activity[v]);
  }
  const std::vector<double> global_cum = Cumulative(activity);
  std::vector<std::vector<double>> member_cum;
  for (const auto& w : member_activity) member_cum.push_back(Cumulative(w));

  std::vector<std::pair<int64_t, int64_t>> edges;
  std::unordered_set<uint64_t> edge_set;
  edges.reserve(static_cast<size_t>(shape.m));
  while (static_cast<int64_t>(edges.size()) < shape.m) {
    const int64_t u = Draw(global_cum, &rng);
    const int64_t c = community[u];
    const int64_t v =
        (rng.Uniform() < shape.edge_homophily && !members[c].empty())
            ? members[c][Draw(member_cum[c], &rng)]
            : Draw(global_cum, &rng);
    if (u == v || !edge_set.insert(PairKey(u, v)).second) continue;
    edges.emplace_back(u, v);
  }

  // Attributes: one preferred block per community, Zipf-tilted inside.
  const int64_t block = std::max<int64_t>(1, d / c_count);
  std::vector<double> zipf(static_cast<size_t>(block));
  for (int64_t i = 0; i < block; ++i) zipf[i] = 1.0 / static_cast<double>(i + 1);
  const std::vector<double> zipf_cum = Cumulative(zipf);
  std::vector<std::pair<int64_t, int64_t>> entries;
  std::unordered_set<uint64_t> entry_set;
  entries.reserve(static_cast<size_t>(shape.entries));
  while (static_cast<int64_t>(entries.size()) < shape.entries) {
    const int64_t v = rng.Below(n);
    const int64_t r =
        rng.Uniform() < shape.attr_homophily
            ? std::min(d - 1, community[v] * block + Draw(zipf_cum, &rng))
            : rng.Below(d);
    if (!entry_set.insert(PairKey(v, r)).second) continue;
    entries.emplace_back(v, r);
  }

  HoldOut(&edges, holdout_share, edge_set, n, n, true, &rng,
          &holdout->link_pos, &holdout->link_neg);
  HoldOut(&entries, holdout_share, entry_set, n, d, false, &rng,
          &holdout->attr_pos, &holdout->attr_neg);
  std::sort(edges.begin(), edges.end());
  std::sort(entries.begin(), entries.end());

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string text;
  text.reserve(edges.size() * 12);
  for (const auto& [u, v] : edges) {
    AppendInt(&text, u);
    text += ' ';
    AppendInt(&text, v);
    text += '\n';
  }
  if (!WriteString(dir + "/edges.txt", text)) return false;
  text.clear();
  for (const auto& [v, r] : entries) {
    AppendInt(&text, v);
    text += ' ';
    AppendInt(&text, r);
    text += " 1\n";
  }
  if (!WriteString(dir + "/attrs.txt", text)) return false;
  return WriteString(dir + "/meta.txt", std::to_string(n) + " " +
                                            std::to_string(d) + " 1\n");
}

void GenerateClusteredFactors(int64_t n, int64_t d, int64_t h,
                              int64_t communities, uint64_t seed,
                              int64_t pairs, Factors* f, Holdout* holdout) {
  Rng rng(seed);
  std::vector<double> node_centroids(static_cast<size_t>(communities * h));
  std::vector<double> attr_centroids(static_cast<size_t>(communities * h));
  // A community's attribute centroid leans towards its node centroid, so
  // the planted same-community pairs are the likely ones (the held-out AUC
  // has something to find).
  for (double& x : node_centroids) x = rng.Gaussian();
  for (size_t i = 0; i < attr_centroids.size(); ++i) {
    attr_centroids[i] = node_centroids[i] + 0.5 * rng.Gaussian();
  }
  f->n = n;
  f->d = d;
  f->h = h;
  f->xf.resize(static_cast<size_t>(n * h));
  f->xb.resize(static_cast<size_t>(n * h));
  f->y.resize(static_cast<size_t>(d * h));
  std::vector<int64_t> node_community(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    const int64_t c = rng.Below(communities);
    node_community[v] = c;
    for (int64_t t = 0; t < h; ++t) {
      f->xf[v * h + t] = node_centroids[c * h + t] + 0.3 * rng.Gaussian();
      f->xb[v * h + t] = node_centroids[c * h + t] + 0.3 * rng.Gaussian();
    }
  }
  // Attributes fall into contiguous per-community blocks.
  const int64_t block = std::max<int64_t>(1, d / communities);
  for (int64_t r = 0; r < d; ++r) {
    const int64_t c = std::min(r / block, communities - 1);
    for (int64_t t = 0; t < h; ++t) {
      f->y[r * h + t] = attr_centroids[c * h + t] + 0.3 * rng.Gaussian();
    }
  }
  // Planted pairs: positives share the community, negatives are uniform.
  std::vector<std::vector<int64_t>> members(static_cast<size_t>(communities));
  for (int64_t v = 0; v < n; ++v) members[node_community[v]].push_back(v);
  for (int64_t i = 0; i < pairs; ++i) {
    const int64_t v = rng.Below(n);
    const int64_t c = node_community[v];
    const int64_t r =
        std::min(d - 1, c * block + rng.Below(std::min(block, d - c * block)));
    holdout->attr_pos.emplace_back(v, r);
    holdout->attr_neg.emplace_back(rng.Below(n), rng.Below(d));
    const std::vector<int64_t>& same = members[c];
    int64_t w = same[static_cast<size_t>(
        rng.Below(static_cast<int64_t>(same.size())))];
    if (w == v) w = (v + 1) % n;
    holdout->link_pos.emplace_back(v, w);
    int64_t neg = rng.Below(n);
    if (neg == v) neg = (v + 1) % n;
    holdout->link_neg.emplace_back(v, neg);
  }
}

}  // namespace panebench
