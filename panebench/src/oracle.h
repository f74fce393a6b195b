// The benchmark's correctness oracle: plain-loop scoring over the factor
// blocks, written apart from the program's blocked kernels, IVF indexes and
// selection heaps.
//
//   attribute score  p(v, r) = Xf[v].Y[r] + Xb[v].Y[r]        (Eq. 21)
//   link score       p(u, w) = Xf[u].(Xb[w] G),  G = Y^T Y     (Eq. 22)
//
// The link score is evaluated as (G Xf[u]).Xb[w], a different association
// from the program's precomputed Z = Xb G, so agreement is not an echo of
// the same arithmetic. Scores are compared with a tolerance relative to
// the magnitude sum of the products (|x|.|y|): kExactTolerance for exact
// serving (double precision, reassociated), kPrunedTolerance for the IVF
// path, which scores in single precision.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace panebench {

inline constexpr double kExactTolerance = 1e-9;
inline constexpr double kPrunedTolerance = 1e-4;

/// One (candidate, score) pair of a served ranking, in response order.
using Ranked = std::vector<std::pair<int64_t, double>>;

class Oracle {
 public:
  explicit Oracle(const Factors& factors);

  /// Score and magnitude scale (sum of |products|) of one pair.
  double AttrScore(int64_t v, int64_t r, double* scale = nullptr) const;
  double LinkScore(int64_t u, int64_t w, double* scale = nullptr) const;

  /// Every candidate's score and scale for one query (attributes over all
  /// d, link targets over all n; the caller skips the query node itself).
  void AllAttrScores(int64_t v, std::vector<double>* scores,
                     std::vector<double>* scales) const;
  void AllLinkScores(int64_t u, std::vector<double>* scores,
                     std::vector<double>* scales) const;

  /// Checks one top-k response: size (exactly min(k, candidates) when
  /// exact, at most k when pruned), ids in range, distinct and never the
  /// query node for links, order (score desc, index asc), every score
  /// within tolerance of the oracle's. With `full_scan` it also scores
  /// every candidate: in exact mode no unreturned candidate may beat the
  /// k-th score beyond tolerance, and `recall` (if non-null) receives
  /// |returned ∩ true top-k| / k. Returns "" when the response is right.
  std::string CheckTopK(bool attr, int64_t node, int64_t k, const Ranked& got,
                        bool exact, bool full_scan, double* recall) const;

  /// Checks one pair score against the oracle. Pair scoring is exact (double
  /// precision) in every serving mode.
  std::string CheckPair(bool attr, int64_t a, int64_t b, double got) const;

 private:
  const Factors& f_;
  std::vector<double> gram_;      // h x h, G = Y^T Y
  std::vector<double> abs_gram_;  // |G| elementwise, for the error scale
};

/// Mann-Whitney AUC: P(pos > neg) + P(pos == neg) / 2, by rank sums.
double Auc(const std::vector<double>& pos, const std::vector<double>& neg);

/// Held-out attribute and link AUC of the factors over `holdout`.
void HoldoutAuc(const Oracle& oracle, const Holdout& holdout, double* attr_auc,
                double* link_auc);

}  // namespace panebench
