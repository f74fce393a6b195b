// Open-loop TCP load for pane_server, from one thread of one process.
//
// Requests are due at a constant rate; each is written at its due time on
// connection (index mod conns) whether or not earlier answers came back,
// so the server's queue can grow. Latency runs from the due time to the
// answer. Answers arrive in request order per connection and are matched
// by position. The client speaks the line or the frame wire with its own
// codec, not the program's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.h"
#include "util.h"

namespace panebench {

struct LoadConfig {
  int port = 0;
  int conns = 2;
  bool frame = false;
  int64_t k = 10;
  int64_t num_nodes = 0;
  int64_t num_attributes = 0;
  /// Shares of the mix; the rest of the requests are split evenly between
  /// pattr and pair.
  double attr_share = 0.45;
  double link_share = 0.45;
};

enum class Verb { kAttr, kLink, kPattr, kPair };

struct Request {
  Verb verb = Verb::kAttr;
  int64_t a = 0;
  int64_t b = 0;  ///< attribute / target of a pair request
};

/// One constant-rate phase: what was sent, when, and what came back.
struct Phase {
  double rate = 0.0;      ///< offered requests per second
  bool aborted = false;   ///< sending stopped early: the backlog ran away
  int64_t backlog_at_end = 0;  ///< unanswered when the send window closed
  std::vector<Request> requests;  ///< the sent requests
  std::vector<std::string> answers;  ///< "" when unanswered
  std::vector<int64_t> scheduled_ns;  ///< due time of each sent request
  std::vector<int64_t> received_ns;   ///< answer time, -1 if unanswered
  OpenLoopTiming timing;
};

class LoadClient {
 public:
  explicit LoadClient(const LoadConfig& config);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Connects every connection; false if the server refuses.
  bool Connect();

  /// Sends `total` requests drawn from `seed` at `rate` per second, then
  /// waits up to `drain_s` for the answers. Sending stops early once more
  /// than `max_backlog` requests are unanswered. Connections that did not
  /// drain are reopened, so the next phase starts clean.
  Phase Run(double rate, int64_t total, uint64_t seed, int64_t max_backlog,
            double drain_s);

 private:
  struct Conn;
  std::string Encode(const Request& r) const;
  void CloseAll();

  LoadConfig config_;
  std::vector<Conn*> conns_;
};

/// Draws the request of index `i` of a phase from `rng`: node ids uniform
/// over the whole node space, the verb by the configured shares.
Request DrawRequest(const LoadConfig& config, Rng* rng);

/// Outcome of checking a phase's answers.
struct PhaseCheck {
  int64_t failed = 0;          ///< answered "err ..." or never answered
  int64_t wrong = 0;           ///< malformed, or disagrees with the oracle
  std::string first_error;
  int64_t full_scans = 0;      ///< answers checked against a full scan
  double recall_sum = 0.0;     ///< over the full-scanned top-k answers
  int64_t recall_count = 0;
};

/// Parses every answer and checks it: the top-k shape and each returned
/// score against the oracle for all answers, plus a full candidate scan
/// on every `scan_every`-th top-k answer (up to `max_scans`).
PhaseCheck CheckPhase(const Phase& phase, const Oracle& oracle, int64_t k,
                      bool exact, int64_t scan_every, int64_t max_scans);

/// Parses one top-k answer ("attr <node> ok i:s i:s ...") for `r`.
bool ParseTopK(const std::string& answer, const Request& r, Ranked* out);
/// Parses one pair answer ("pattr <v> <r> ok <score>") for `r`.
bool ParsePair(const std::string& answer, const Request& r, double* score);

}  // namespace panebench
