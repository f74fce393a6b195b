#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

namespace panebench {

namespace {

std::string Describe(bool attr, int64_t node, const std::string& what) {
  return std::string(attr ? "attr " : "link ") + std::to_string(node) + ": " +
         what;
}

bool WithinTolerance(double got, double want, double scale, double tol) {
  return std::fabs(got - want) <= tol * (scale + 1e-300);
}

}  // namespace

Oracle::Oracle(const Factors& factors) : f_(factors) {
  const int64_t h = f_.h;
  gram_.assign(static_cast<size_t>(h * h), 0.0);
  for (int64_t r = 0; r < f_.d; ++r) {
    const double* y = f_.Y(r);
    for (int64_t s = 0; s < h; ++s) {
      for (int64_t t = 0; t < h; ++t) gram_[s * h + t] += y[s] * y[t];
    }
  }
  abs_gram_.resize(gram_.size());
  for (size_t i = 0; i < gram_.size(); ++i) abs_gram_[i] = std::fabs(gram_[i]);
}

double Oracle::AttrScore(int64_t v, int64_t r, double* scale) const {
  const double* xf = f_.Xf(v);
  const double* xb = f_.Xb(v);
  const double* y = f_.Y(r);
  double sum = 0.0, mag = 0.0;
  for (int64_t t = 0; t < f_.h; ++t) {
    sum += (xf[t] + xb[t]) * y[t];
    mag += (std::fabs(xf[t]) + std::fabs(xb[t])) * std::fabs(y[t]);
  }
  if (scale != nullptr) *scale = mag;
  return sum;
}

double Oracle::LinkScore(int64_t u, int64_t w, double* scale) const {
  const int64_t h = f_.h;
  const double* xf = f_.Xf(u);
  const double* xb = f_.Xb(w);
  double sum = 0.0, mag = 0.0;
  for (int64_t s = 0; s < h; ++s) {
    double q = 0.0, qa = 0.0;
    for (int64_t t = 0; t < h; ++t) {
      q += gram_[s * h + t] * xf[t];
      qa += abs_gram_[s * h + t] * std::fabs(xf[t]);
    }
    sum += q * xb[s];
    mag += qa * std::fabs(xb[s]);
  }
  if (scale != nullptr) *scale = mag;
  return sum;
}

void Oracle::AllAttrScores(int64_t v, std::vector<double>* scores,
                           std::vector<double>* scales) const {
  scores->resize(static_cast<size_t>(f_.d));
  scales->resize(static_cast<size_t>(f_.d));
  for (int64_t r = 0; r < f_.d; ++r) {
    (*scores)[r] = AttrScore(v, r, &(*scales)[r]);
  }
}

void Oracle::AllLinkScores(int64_t u, std::vector<double>* scores,
                           std::vector<double>* scales) const {
  const int64_t h = f_.h;
  // q = G Xf[u] once, then one dot per target.
  std::vector<double> q(static_cast<size_t>(h)), qa(static_cast<size_t>(h));
  const double* xf = f_.Xf(u);
  for (int64_t s = 0; s < h; ++s) {
    double acc = 0.0, acc_abs = 0.0;
    for (int64_t t = 0; t < h; ++t) {
      acc += gram_[s * h + t] * xf[t];
      acc_abs += abs_gram_[s * h + t] * std::fabs(xf[t]);
    }
    q[s] = acc;
    qa[s] = acc_abs;
  }
  scores->resize(static_cast<size_t>(f_.n));
  scales->resize(static_cast<size_t>(f_.n));
  for (int64_t w = 0; w < f_.n; ++w) {
    const double* xb = f_.Xb(w);
    double sum = 0.0, mag = 0.0;
    for (int64_t s = 0; s < h; ++s) {
      sum += q[s] * xb[s];
      mag += qa[s] * std::fabs(xb[s]);
    }
    (*scores)[w] = sum;
    (*scales)[w] = mag;
  }
}

std::string Oracle::CheckTopK(bool attr, int64_t node, int64_t k,
                              const Ranked& got, bool exact, bool full_scan,
                              double* recall) const {
  const double tol = exact ? kExactTolerance : kPrunedTolerance;
  const int64_t universe = attr ? f_.d : f_.n;
  const int64_t candidates = attr ? f_.d : f_.n - 1;
  const int64_t want = std::min(k, candidates);
  const int64_t size = static_cast<int64_t>(got.size());
  if (exact ? size != want : (size > k || size == 0)) {
    return Describe(attr, node,
                    "returned " + std::to_string(size) + " results for k=" +
                        std::to_string(k));
  }
  std::unordered_set<int64_t> seen;
  for (int64_t i = 0; i < size; ++i) {
    const auto& [id, score] = got[static_cast<size_t>(i)];
    if (id < 0 || id >= universe) {
      return Describe(attr, node, "id " + std::to_string(id) + " out of range");
    }
    if (!attr && id == node) return Describe(attr, node, "returned itself");
    if (!seen.insert(id).second) {
      return Describe(attr, node, "duplicate id " + std::to_string(id));
    }
    if (i > 0) {
      const auto& [prev_id, prev_score] = got[static_cast<size_t>(i - 1)];
      if (!(prev_score > score || (prev_score == score && prev_id < id))) {
        return Describe(attr, node,
                        "order broken at rank " + std::to_string(i));
      }
    }
    double scale = 0.0;
    const double want_score =
        attr ? AttrScore(node, id, &scale) : LinkScore(node, id, &scale);
    if (!WithinTolerance(score, want_score, scale, tol)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "id %lld score %.17g, oracle %.17g",
                    static_cast<long long>(id), score, want_score);
      return Describe(attr, node, buf);
    }
  }
  if (!full_scan) return "";

  std::vector<double> scores, scales;
  if (attr) {
    AllAttrScores(node, &scores, &scales);
  } else {
    AllLinkScores(node, &scores, &scales);
  }
  if (exact) {
    const double kth = got.back().second;
    for (int64_t c = 0; c < universe; ++c) {
      if ((!attr && c == node) || seen.count(c) != 0) continue;
      if (scores[c] > kth && !WithinTolerance(scores[c], kth, scales[c], tol)) {
        return Describe(attr, node,
                        "unreturned candidate " + std::to_string(c) +
                            " beats the k-th score");
      }
    }
  }
  if (recall != nullptr) {
    std::vector<int64_t> order;
    order.reserve(static_cast<size_t>(universe));
    for (int64_t c = 0; c < universe; ++c) {
      if (attr || c != node) order.push_back(c);
    }
    std::partial_sort(order.begin(), order.begin() + want, order.end(),
                      [&scores](int64_t a, int64_t b) {
                        return scores[a] > scores[b] ||
                               (scores[a] == scores[b] && a < b);
                      });
    int64_t hits = 0;
    for (int64_t i = 0; i < want; ++i) hits += seen.count(order[i]);
    *recall = static_cast<double>(hits) / static_cast<double>(want);
  }
  return "";
}

std::string Oracle::CheckPair(bool attr, int64_t a, int64_t b,
                              double got) const {
  const int64_t limit_b = attr ? f_.d : f_.n;
  if (a < 0 || a >= f_.n || b < 0 || b >= limit_b) {
    return "pair ids out of range";
  }
  double scale = 0.0;
  const double want = attr ? AttrScore(a, b, &scale) : LinkScore(a, b, &scale);
  if (!WithinTolerance(got, want, scale, kExactTolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %lld %lld score %.17g, oracle %.17g",
                  attr ? "pattr" : "pair", static_cast<long long>(a),
                  static_cast<long long>(b), got, want);
    return buf;
  }
  return "";
}

double Auc(const std::vector<double>& pos, const std::vector<double>& neg) {
  if (pos.empty() || neg.empty()) return std::nan("");
  // (score, is_positive), ranked ascending; ties share their mean rank.
  std::vector<std::pair<double, int>> all;
  all.reserve(pos.size() + neg.size());
  for (double s : pos) all.emplace_back(s, 1);
  for (double s : neg) all.emplace_back(s, 0);
  std::sort(all.begin(), all.end());
  double pos_rank_sum = 0.0;
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    while (j < all.size() && all[j].first == all[i].first) ++j;
    const double mean_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t t = i; t < j; ++t) {
      if (all[t].second == 1) pos_rank_sum += mean_rank;
    }
    i = j;
  }
  const double np = static_cast<double>(pos.size());
  const double nn = static_cast<double>(neg.size());
  return (pos_rank_sum - np * (np + 1) / 2) / (np * nn);
}

void HoldoutAuc(const Oracle& oracle, const Holdout& holdout, double* attr_auc,
                double* link_auc) {
  const auto score = [&oracle](
                         const std::vector<std::pair<int64_t, int64_t>>& pairs,
                         bool attr) {
    std::vector<double> out;
    out.reserve(pairs.size());
    for (const auto& [a, b] : pairs) {
      out.push_back(attr ? oracle.AttrScore(a, b) : oracle.LinkScore(a, b));
    }
    return out;
  };
  *attr_auc = Auc(score(holdout.attr_pos, true), score(holdout.attr_neg, true));
  *link_auc =
      Auc(score(holdout.link_pos, false), score(holdout.link_neg, false));
}

}  // namespace panebench
