// Known-answer tests for the benchmark's own arithmetic: the oracle, the
// AUC scorer, nearest-rank percentiles, open-loop lateness accounting and
// the answer parsers. `pbench selftest` runs them; run.py runs it before
// every measurement, so a broken oracle never passes a wrong answer.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.h"
#include "oracle.h"
#include "util.h"

namespace panebench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-12 * (1.0 + std::fabs(want)),
         what + " = " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  ExpectNear(NearestRank(&hundred, 50.0), 50.0, "p50 of 1..100");
  ExpectNear(NearestRank(&hundred, 99.0), 99.0, "p99 of 1..100");
  ExpectNear(NearestRank(&hundred, 100.0), 100.0, "p100 of 1..100");
  ExpectNear(NearestRank(&hundred, 0.5), 1.0, "p0.5 of 1..100");
  std::vector<double> three = {3.0, 1.0, 2.0};
  ExpectNear(NearestRank(&three, 50.0), 2.0, "p50 of {3,1,2}");
  ExpectNear(NearestRank(&three, 99.0), 3.0, "p99 of {3,1,2}");
  std::vector<double> one = {7.0};
  ExpectNear(NearestRank(&one, 99.0), 7.0, "p99 of one sample");
  std::vector<double> none;
  Expect(std::isnan(NearestRank(&none, 50.0)), "empty sample is NaN");
}

void TestOpenLoop() {
  // Due at 0, 10, 20 ms; the second was sent 5 ms late and answered at
  // 30 ms, the third never answered.
  const OpenLoopTiming t = AccountOpenLoop({0, 10000000, 20000000},
                                           {0, 15000000, 20000000},
                                           {5000000, 30000000, -1});
  Expect(t.latency_ms.size() == 2, "two answered requests");
  ExpectNear(t.latency_ms[0], 5.0, "latency of the first");
  // Timed from the due time, so the generator's 5 ms stall counts.
  ExpectNear(t.latency_ms[1], 20.0, "latency of the late one");
  Expect(t.late_ms.size() == 3, "three sent requests");
  ExpectNear(t.late_ms[1], 5.0, "lateness of the second");
  ExpectNear(t.late_ms[2], 0.0, "lateness of the third");
  Expect(t.unanswered == 1, "one unanswered");
  // A request sent early (clock skew) has lateness 0, never negative.
  const OpenLoopTiming early = AccountOpenLoop({100}, {50}, {200});
  ExpectNear(early.late_ms[0], 0.0, "early send is not negative lateness");
}

void TestAuc() {
  ExpectNear(Auc({3, 4}, {1, 2}), 1.0, "separated AUC");
  ExpectNear(Auc({1}, {2}), 0.0, "inverted AUC");
  ExpectNear(Auc({1}, {1}), 0.5, "tied AUC");
  ExpectNear(Auc({1, 3}, {2}), 0.5, "half AUC");
  ExpectNear(Auc({2, 2, 5}, {2, 1}), (1.5 + 1.5 + 2.0) / 6.0, "AUC with ties");
}

// n = 3 nodes, d = 2 attributes, h = 2:
//   xf = [1 0; 0 1; 1 1], xb = [0 1; 1 0; 0 0], y = [1 2; 3 -1]
//   G = Y^T Y = [10 -1; -1 5]
//   attr(0,0) = (1+0)*1 + (0+1)*2 = 3      attr(0,1) = 1*3 + 1*(-1) = 2
//   attr(1,0) = 1*1 + 1*2 = 3              attr(1,1) = 3 - 1 = 2
//   link(0,w) = (G xf0).xb_w = (10,-1).xb_w: w=1 -> 10, w=2 -> 0
//   link(2,w) = (9, 4).xb_w: w=0 -> 4, w=1 -> 9
Factors TinyFactors() {
  Factors f;
  f.n = 3;
  f.d = 2;
  f.h = 2;
  f.xf = {1, 0, 0, 1, 1, 1};
  f.xb = {0, 1, 1, 0, 0, 0};
  f.y = {1, 2, 3, -1};
  return f;
}

void TestOracle() {
  const Factors f = TinyFactors();
  const Oracle o(f);
  ExpectNear(o.AttrScore(0, 0), 3.0, "attr(0,0)");
  ExpectNear(o.AttrScore(0, 1), 2.0, "attr(0,1)");
  ExpectNear(o.LinkScore(0, 1), 10.0, "link(0,1)");
  ExpectNear(o.LinkScore(0, 2), 0.0, "link(0,2)");
  ExpectNear(o.LinkScore(2, 0), 4.0, "link(2,0)");
  ExpectNear(o.LinkScore(2, 1), 9.0, "link(2,1)");

  double recall = 0.0;
  Expect(o.CheckTopK(true, 0, 2, {{0, 3.0}, {1, 2.0}}, true, true, &recall)
             .empty(),
         "right attr top-2 accepted");
  ExpectNear(recall, 1.0, "recall of the right answer");
  Expect(!o.CheckTopK(true, 0, 2, {{1, 2.0}, {0, 3.0}}, true, false, nullptr)
              .empty(),
         "wrong order rejected");
  Expect(!o.CheckTopK(true, 0, 2, {{0, 3.5}, {1, 2.0}}, true, false, nullptr)
              .empty(),
         "wrong score rejected");
  Expect(!o.CheckTopK(true, 0, 1, {{1, 2.0}}, true, true, nullptr).empty(),
         "exact answer missing a better candidate rejected");
  Expect(!o.CheckTopK(true, 0, 2, {{0, 3.0}, {0, 3.0}}, true, false, nullptr)
              .empty(),
         "duplicate id rejected");
  Expect(!o.CheckTopK(true, 0, 2, {{0, 3.0}, {2, 2.0}}, true, false, nullptr)
              .empty(),
         "out-of-range id rejected");
  Expect(!o.CheckTopK(false, 0, 2, {{0, 0.0}, {1, 10.0}}, true, false, nullptr)
              .empty(),
         "link answer containing the query node rejected");
  // k larger than the candidate set: links exclude the node itself.
  Expect(o.CheckTopK(false, 0, 5, {{1, 10.0}, {2, 0.0}}, true, true, nullptr)
             .empty(),
         "link top-5 over 2 candidates accepted");
  Expect(!o.CheckTopK(false, 0, 5, {{1, 10.0}}, true, false, nullptr).empty(),
         "short exact answer rejected");
  // Pruned answers may be short and carry single-precision scores.
  Expect(o.CheckTopK(false, 0, 2, {{1, 10.0 + 1e-6}}, false, true, &recall)
             .empty(),
         "short pruned answer within tolerance accepted");
  ExpectNear(recall, 0.5, "recall of a half answer");
  Expect(!o.CheckTopK(false, 0, 2, {{1, 10.1}}, false, false, nullptr).empty(),
         "pruned score off by 1% rejected");
  Expect(o.CheckPair(true, 1, 0, 3.0).empty(), "right pattr accepted");
  Expect(!o.CheckPair(false, 2, 1, 9.001).empty(), "wrong pair rejected");
  Expect(!o.CheckPair(false, 3, 1, 0.0).empty(), "out-of-range pair rejected");

  Holdout h;
  h.attr_pos = {{0, 0}};  // 3 vs attr(0,1) = 2
  h.attr_neg = {{0, 1}};
  h.link_pos = {{2, 0}};  // 4 vs link(2,1) = 9
  h.link_neg = {{2, 1}};
  double attr_auc = 0.0, link_auc = 0.0;
  HoldoutAuc(o, h, &attr_auc, &link_auc);
  ExpectNear(attr_auc, 1.0, "held-out attr AUC");
  ExpectNear(link_auc, 0.0, "held-out link AUC");
}

void TestParsers() {
  Request attr{Verb::kAttr, 7, 0};
  Ranked got;
  Expect(ParseTopK("attr 7 ok 3:0.5 1:-2.25", attr, &got) && got.size() == 2 &&
             got[0].first == 3 && got[1].second == -2.25,
         "top-k answer parsed");
  Expect(!ParseTopK("attr 8 ok 3:0.5", attr, &got), "wrong node rejected");
  Expect(!ParseTopK("err shard unavailable", attr, &got), "err rejected");
  Expect(!ParseTopK("attr 7 ok 3:0.5x", attr, &got), "bad score rejected");
  Request pair{Verb::kPair, 4, 9};
  double score = 0.0;
  Expect(ParsePair("pair 4 9 ok 1.25", pair, &score) && score == 1.25,
         "pair answer parsed");
  Expect(!ParsePair("pair 4 8 ok 1.25", pair, &score), "wrong pair rejected");
}

}  // namespace

int RunSelfTest() {
  TestPercentiles();
  TestOpenLoop();
  TestAuc();
  TestOracle();
  TestParsers();
  std::printf("{\"selftest_failures\": %d}\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace panebench
