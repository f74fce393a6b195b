// Small shared pieces of the benchmark tool: a seeded RNG, monotonic time,
// nearest-rank percentiles, open-loop lateness accounting, a flat JSON
// writer and the raw factor file the oracle reads. Nothing here calls into
// the program under test.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace panebench {

/// xoshiro256** seeded through splitmix64: the benchmark's own generator,
/// so its inputs do not move when the program's RNG changes.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& s : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Uniform() * static_cast<double>(n));
  }
  double Gaussian() {
    double u1 = Uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 *
                                                       Uniform());
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Stream seed for one named phase of a run, so no two phases of one run
/// (nor two runs with different seeds) replay the same request stream.
inline uint64_t PhaseSeed(uint64_t seed, uint64_t phase) {
  return seed * 0x100000001B3ull + phase * 0x9E3779B97F4A7C15ull + 1;
}

inline int64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

/// Nearest-rank percentile of `values` (p in (0, 100]): the smallest value
/// with at least p% of the samples at or below it. Sorts in place. Returns
/// NaN for an empty sample.
double NearestRank(std::vector<double>* values, double p);

/// Open-loop timing of one request stream. Every request has a scheduled
/// send time; latency runs from that time to the response, so a stall in
/// the generator or the server is charged to every request it delayed.
struct OpenLoopTiming {
  std::vector<double> latency_ms;  ///< received - scheduled, answered only
  std::vector<double> late_ms;     ///< sent - scheduled (>= 0), all sent
  int64_t unanswered = 0;          ///< sent or due but never answered
};

/// Builds the timing record from per-request nanosecond stamps; a request
/// with received_ns < 0 was not answered, one with sent_ns < 0 was never
/// sent.
OpenLoopTiming AccountOpenLoop(const std::vector<int64_t>& scheduled_ns,
                               const std::vector<int64_t>& sent_ns,
                               const std::vector<int64_t>& received_ns);

/// One flat JSON object built field by field; numbers keep all digits.
class JsonObject {
 public:
  void Add(const std::string& key, double value);
  void Add(const std::string& key, int64_t value);
  void Add(const std::string& key, const std::string& value);
  void AddRaw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& s);

/// fsyncs a written file, so its write-back does not land in a later
/// measured phase.
bool SyncFile(const std::string& path);

/// The factors the oracle scores with: xf, xb (n x h) and y (d x h),
/// row-major doubles.
struct Factors {
  int64_t n = 0;
  int64_t d = 0;
  int64_t h = 0;
  std::vector<double> xf, xb, y;
  const double* Xf(int64_t v) const { return xf.data() + v * h; }
  const double* Xb(int64_t v) const { return xb.data() + v * h; }
  const double* Y(int64_t r) const { return y.data() + r * h; }
};

/// The benchmark's own factor file: "PBRAW001", n, d, h (int64), then xf,
/// xb, y. Written next to each artifact so the oracle never reads the
/// artifact through the program's own reader.
bool WriteFactors(const Factors& f, const std::string& path);
bool ReadFactors(const std::string& path, Factors* f);

/// Held-out pairs for the AUC scorer: positives were removed from the
/// training graph (or planted, for generated artifacts), negatives are
/// pairs absent from the full graph.
struct Holdout {
  std::vector<std::pair<int64_t, int64_t>> attr_pos, attr_neg;
  std::vector<std::pair<int64_t, int64_t>> link_pos, link_neg;
};
bool WriteHoldout(const Holdout& h, const std::string& path);
bool ReadHoldout(const std::string& path, Holdout* h);

}  // namespace panebench
