// pbench: the compiled half of the benchmark. run.py drives it; each
// subcommand prints one JSON object as its last stdout line. Every flag is
// required (only --trace is optional): the values that vary between
// workloads live in run.py, the fixed ones are the constants below.
//
//   pbench gen-graph    --shape=tweibo|google+ --seed=N --out=DIR --holdout=FILE
//   pbench train        --graph=DIR --budget-mb=MB --out=ART --raw=FILE
//                       --holdout=FILE --spill-dir=DIR [--trace=FILE]
//   pbench gen-artifact --seed=N --out=ART --raw=FILE
//   pbench load         --port=P --raw=FILE --seed=N --rate=R --windows=W
//                       --frame=0|1 --exact=0|1 [--trace=FILE]
//   pbench setup-probe  --artifact=ART --threads=T --shards=S --pruned=0|1
//   pbench selftest
//
// `train` is the process whose peak RSS the benchmark reports: it does the
// user's work (load the graph file, train, save the artifact) and then
// re-checks it; nothing else runs in it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "loadgen.h"
#include "oracle.h"
#include "src/api/node_embedding.h"
#include "src/core/pane.h"
#include "src/graph/graph_io.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"
#include "util.h"

namespace panebench {

int RunSelfTest();

namespace {

// Training: k, threads, and graph-file loads per process (setup_s is their
// median).
constexpr int kTrainK = 128;
constexpr int kTrainThreads = 4;
constexpr int kGraphLoads = 3;

// The clustered serving artifact and the number of timed saves of it.
constexpr int64_t kArtifactNodes = 100000;
constexpr int64_t kArtifactAttributes = 20000;
constexpr int64_t kArtifactDim = 64;
constexpr int64_t kArtifactCommunities = 32;
constexpr int64_t kArtifactHeldOut = 20000;
constexpr int kArtifactSaves = 7;

// Load: one thread over kConns pipelined connections. A warm-up of
// kWarmupRequests (checked, not timed) precedes the timed windows of
// kWindow requests, each on fresh connections: pane_server's latency
// settles into one of a few levels per set of connections (see the
// README), so a run samples many sets. Sending stops, and the run fails,
// once more than kBacklogSeconds of requests at the offered rate are
// unanswered.
constexpr int kConns = 2;
constexpr int64_t kWindow = 500;
constexpr int64_t kWarmupRequests = 500;
constexpr double kBacklogSeconds = 0.2;
constexpr double kDrainSeconds = 10.0;
// Every kScanEvery-th top-k answer, up to kWindowScans per timed window
// and kWarmupScans in the warm-up, is re-scored against every candidate
// (the exact k-th-score check and recall_at_10).
constexpr int64_t kScanEvery = 7;
constexpr int64_t kWindowScans = 4;
constexpr int64_t kWarmupScans = 2;

[[noreturn]] void Die(const std::string& message);

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      const size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        Die("expected --flag=value, got " + a);
      }
      values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const { return std::stoll(Str(key)); }
  double Num(const std::string& key) const { return std::stod(Str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

void Die(const std::string& message) {
  std::fprintf(stderr, "pbench: %s\n", message.c_str());
  std::exit(1);
}

double Median(std::vector<double> v) { return NearestRank(&v, 50.0); }

double FileMb(const std::string& path) {
  std::error_code ec;
  double bytes = 0.0;
  if (std::filesystem::is_directory(path, ec)) {
    for (const auto& e : std::filesystem::directory_iterator(path, ec)) {
      bytes += static_cast<double>(e.file_size(ec));
    }
  } else {
    bytes = static_cast<double>(std::filesystem::file_size(path, ec));
  }
  return bytes / (1024.0 * 1024.0);
}

/// Spans recorded around the calls the benchmark makes into the program;
/// kept in memory and written as Chrome trace events at the end.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  int Begin(const std::string& name, int parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, parent, NowNanos(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Add(const std::string& name, int parent, int64_t start_ns,
           int64_t end_ns) {
    if (on_) spans_.push_back({name, parent, start_ns, end_ns});
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNanos();
  }
  void Write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    std::fprintf(f, "{\"traceEvents\": [");
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d}}",
                   i == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool on_;
  std::vector<Span> spans_;
};

pane::NodeEmbedding ToArtifact(const pane::DenseMatrix& xf,
                               const pane::DenseMatrix& xb,
                               const pane::DenseMatrix& y) {
  pane::NodeEmbedding e;
  e.method = "pane";
  e.xf = xf;
  e.xb = xb;
  e.y = y;
  e.features = pane::DenseMatrix(xf.rows(), xf.cols() + xb.cols());
  e.features.SetBlock(0, 0, xf);
  e.features.SetBlock(0, xf.cols(), xb);
  e.link_convention = pane::LinkConvention::kForwardBackward;
  e.attribute_convention = pane::AttributeConvention::kFactors;
  return e;
}

bool SameBits(const pane::DenseMatrix& a, const pane::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

/// Reloads `path` through the program's reader and requires every block to
/// equal the in-memory artifact bit for bit; returns the factors.
Factors ReloadAndCompare(const std::string& path,
                         const pane::NodeEmbedding& in_memory) {
  auto loaded = pane::NodeEmbedding::Load(path);
  if (!loaded.ok()) Die("artifact reload failed: " + loaded.status().ToString());
  const pane::NodeEmbedding& e = *loaded;
  if (!SameBits(e.xf, in_memory.xf) || !SameBits(e.xb, in_memory.xb) ||
      !SameBits(e.y, in_memory.y) || !SameBits(e.features, in_memory.features)) {
    Die("artifact reload differs from the in-memory embedding");
  }
  Factors f;
  f.n = e.xf.rows();
  f.d = e.y.rows();
  f.h = e.xf.cols();
  f.xf.assign(e.xf.data(), e.xf.data() + e.xf.size());
  f.xb.assign(e.xb.data(), e.xb.data() + e.xb.size());
  f.y.assign(e.y.data(), e.y.data() + e.y.size());
  return f;
}

int GenGraph(const Args& args) {
  GraphShape shape;
  if (!ShapeByName(args.Str("shape"), &shape)) Die("unknown --shape");
  Holdout holdout;
  const std::string out = args.Str("out");
  if (!GenerateGraph(shape, static_cast<uint64_t>(args.Int("seed")), 0.1,
                     out, &holdout) ||
      !WriteHoldout(holdout, args.Str("holdout"))) {
    Die("cannot write the generated graph");
  }
  JsonObject j;
  j.Add("graph_mb", FileMb(out));
  j.Add("heldout_edges", static_cast<int64_t>(holdout.link_pos.size()));
  j.Add("heldout_entries", static_cast<int64_t>(holdout.attr_pos.size()));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int Train(const Args& args) {
  const std::string graph_dir = args.Str("graph");
  const std::string trace = args.Has("trace") ? args.Str("trace") : "";
  Spans spans(!trace.empty());
  const int64_t t_all = NowNanos();

  pane::ThreadPool pool(kTrainThreads);
  std::vector<double> load_s;
  pane::AttributedGraph graph;
  for (int i = 0; i < kGraphLoads; ++i) {
    const int span = spans.Begin("graph.LoadGraphAuto");
    const int64_t t = NowNanos();
    auto loaded = pane::LoadGraphAuto(graph_dir, &pool);
    load_s.push_back(SecondsSince(t));
    spans.End(span);
    if (!loaded.ok()) Die("graph load failed: " + loaded.status().ToString());
    graph = loaded.MoveValueUnsafe();
  }

  pane::PaneOptions options;
  options.k = kTrainK;
  options.num_threads = kTrainThreads;
  options.memory_budget_mb = args.Int("budget-mb");
  options.spill_dir = args.Str("spill-dir");
  pane::PaneStats stats;
  const int train_span = spans.Begin("core.Pane::Train");
  int64_t t = NowNanos();
  auto trained = pane::Pane(options).Train(graph, &stats);
  const double train_only_s = SecondsSince(t);
  spans.End(train_span);
  if (!trained.ok()) Die("training failed: " + trained.status().ToString());
  const pane::NodeEmbedding artifact =
      ToArtifact(trained->xf, trained->xb, trained->y);
  const std::string out = args.Str("out");
  const int save_span = spans.Begin("store.SaveContainer");
  t = NowNanos();
  const pane::Status saved = artifact.SaveContainer(out);
  const double save_s = SecondsSince(t);
  spans.End(save_span);
  if (!saved.ok()) Die("artifact save failed: " + saved.ToString());
  const double work_s = SecondsSince(t_all);

  // Checks, after everything the figures time.
  const int check_span = spans.Begin("check.reload+auc");
  const Factors factors = ReloadAndCompare(out, artifact);
  if (!WriteFactors(factors, args.Str("raw"))) Die("cannot write --raw");
  Holdout holdout;
  if (!ReadHoldout(args.Str("holdout"), &holdout)) Die("cannot read --holdout");
  const Oracle oracle(factors);
  double attr_auc = 0.0, link_auc = 0.0;
  HoldoutAuc(oracle, holdout, &attr_auc, &link_auc);
  spans.End(check_span);
  spans.Write(trace);

  const int64_t n = graph.num_nodes(), d = graph.num_attributes();
  const double graph_mb = FileMb(graph_dir);
  const double setup_s = Median(load_s);
  const int sweeps = stats.t;
  JsonObject j;
  j.Add("setup_s", setup_s);
  j.Add("train_s", train_only_s + save_s);
  j.Add("work_s", work_s);
  j.Add("attr_auc", attr_auc);
  j.Add("link_auc", link_auc);
  j.Add("graph.load_s", setup_s);
  j.Add("graph.load_mb_per_s", graph_mb / setup_s);
  j.Add("graph_mb", graph_mb);
  j.Add("train.pane_s", train_only_s);
  j.Add("affinity.s", stats.affinity_seconds);
  j.Add("affinity.mcells_per_s",
        2.0 * static_cast<double>(n) * static_cast<double>(d) * (stats.t + 1) /
            std::max(stats.affinity_seconds, 1e-9) * 1e-6);
  j.Add("affinity.panels", stats.affinity.num_panels);
  j.Add("affinity.panel_width", stats.affinity.panel_width);
  j.Add("affinity.scratch_mb",
        static_cast<double>(stats.affinity.scratch_bytes) / (1 << 20));
  j.Add("affinity.row_parallel",
        static_cast<int64_t>(stats.affinity.panel_parallel ? 0 : 1));
  j.Add("init.s", stats.init_seconds);
  j.Add("init.blocks_overlapped",
        static_cast<int64_t>(stats.init_blocks_overlapped));
  j.Add("ccd.s", stats.ccd_seconds);
  j.Add("ccd.sweeps", static_cast<int64_t>(sweeps));
  j.Add("ccd.s_per_sweep", stats.ccd_seconds / std::max(sweeps, 1));
  j.Add("ccd.strip_width", stats.ccd.strip_width);
  j.Add("ccd.objective_ratio",
        stats.objective_final / std::max(stats.objective_initial, 1e-300));
  j.Add("pool.evictions", stats.pool.evicted_pages);
  j.Add("pool.writebacks", stats.pool.writeback_pages);
  j.Add("pool.resident_peak_mb",
        static_cast<double>(stats.pool.resident_peak_bytes) / (1 << 20));
  j.Add("slab.spilled_mb", stats.slabs_spilled
                               ? static_cast<double>(stats.slab_bytes) / (1 << 20)
                               : 0.0);
  j.Add("slab.factor_mb", static_cast<double>(stats.slab_bytes) / (1 << 20));
  j.Add("save.s", save_s);
  j.Add("artifact_mb", FileMb(out));
  j.Add("budget_mb", options.memory_budget_mb);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int GenArtifact(const Args& args) {
  Factors f;
  Holdout holdout;
  GenerateClusteredFactors(kArtifactNodes, kArtifactAttributes, kArtifactDim,
                           kArtifactCommunities,
                           static_cast<uint64_t>(args.Int("seed")),
                           kArtifactHeldOut, &f, &holdout);
  pane::DenseMatrix xf(f.n, f.h), xb(f.n, f.h), y(f.d, f.h);
  std::copy(f.xf.begin(), f.xf.end(), xf.data());
  std::copy(f.xb.begin(), f.xb.end(), xb.data());
  std::copy(f.y.begin(), f.y.end(), y.data());
  const pane::NodeEmbedding artifact = ToArtifact(xf, xb, y);
  const std::string out = args.Str("out");
  std::vector<double> save_s;
  for (int i = 0; i < kArtifactSaves; ++i) {
    const int64_t t = NowNanos();
    const pane::Status saved = artifact.SaveContainer(out);
    save_s.push_back(SecondsSince(t));
    if (!saved.ok()) Die("artifact save failed: " + saved.ToString());
  }
  const Factors reloaded = ReloadAndCompare(out, artifact);
  if (!WriteFactors(reloaded, args.Str("raw"))) Die("cannot write --raw");
  const Oracle oracle(reloaded);
  double attr_auc = 0.0, link_auc = 0.0;
  HoldoutAuc(oracle, holdout, &attr_auc, &link_auc);
  JsonObject j;
  j.Add("save_s", Median(save_s));
  j.Add("attr_auc", attr_auc);
  j.Add("link_auc", link_auc);
  j.Add("artifact_mb", FileMb(out));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Times the steps of a server start through the entry points pane_server
/// calls, one by one: EmbeddingStore::Open, QueryEngine::Create (+ the IVF
/// build when pruned) for one shard, or BuildLocalShards without and with
/// the IVF options for a local fleet.
int SetupProbe(const Args& args) {
  const int shards = static_cast<int>(args.Int("shards"));
  const bool pruned = args.Int("pruned") != 0;
  pane::ThreadPool pool(static_cast<int>(args.Int("threads")));
  pane::serve::IvfOptions ivf;  // pane_server's defaults
  ivf.pool = &pool;
  int64_t t = NowNanos();
  auto store = pane::serve::EmbeddingStore::Open(args.Str("artifact"));
  const double open_s = SecondsSince(t);
  if (!store.ok()) Die("store open failed: " + store.status().ToString());
  double create_s = 0.0, ivf_s = 0.0, shard_s = 0.0;
  if (shards == 0) {
    pane::serve::QueryEngineOptions options;
    options.pool = &pool;
    t = NowNanos();
    auto engine = pane::serve::QueryEngine::Create(*store, options);
    create_s = SecondsSince(t);
    if (!engine.ok()) Die("engine create failed");
    if (pruned) {
      t = NowNanos();
      if (!engine->BuildPrunedIndex(ivf).ok()) Die("IVF build failed");
      ivf_s = SecondsSince(t);
    }
  } else {
    pane::serve::ServerOptions server_options;
    server_options.cache_capacity = 0;
    server_options.pruned = pruned;
    t = NowNanos();
    if (!pane::serve::BuildLocalShards(*store, shards, {}, server_options,
                                       nullptr)
             .ok()) {
      Die("shard build failed");
    }
    shard_s = SecondsSince(t);
    if (pruned) {
      t = NowNanos();
      if (!pane::serve::BuildLocalShards(*store, shards, {}, server_options,
                                         &ivf)
               .ok()) {
        Die("shard build failed");
      }
      ivf_s = SecondsSince(t) - shard_s;
    }
  }
  JsonObject j;
  j.Add("store.open_s", open_s);
  j.Add("engine.create_s", create_s);
  j.Add("ivf.build_s", ivf_s);
  j.Add("shard.build_s", shard_s);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Open-loop load at --rate: a warm-up, then --windows windows of kWindow
/// requests, every answer checked against the oracle. A request not sent
/// (the backlog ran away), not answered or answered `err ...` is failed.
/// p50 is the mean of the windows' p50s, p99 the median of their p99s.
int Load(const Args& args) {
  Factors f;
  if (!ReadFactors(args.Str("raw"), &f)) Die("cannot read --raw");
  const Oracle oracle(f);
  LoadConfig config;
  config.port = static_cast<int>(args.Int("port"));
  config.conns = kConns;
  config.frame = args.Int("frame") != 0;
  config.num_nodes = f.n;
  config.num_attributes = f.d;
  const bool exact = args.Int("exact") != 0;
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const double rate = args.Num("rate");
  const int64_t windows = args.Int("windows");
  const std::string trace = args.Has("trace") ? args.Str("trace") : "";
  const int64_t max_backlog =
      static_cast<int64_t>(rate * kBacklogSeconds) + 4 * kConns;
  Spans spans(!trace.empty());

  LoadClient client(config);
  if (!client.Connect()) Die("cannot connect to the server");
  int64_t attempted = 0, failed = 0, wrong = 0;
  std::string first_error;
  const auto run = [&](int64_t total, uint64_t phase_seed, int64_t scans) {
    Phase phase = client.Run(rate, total, phase_seed, max_backlog,
                             kDrainSeconds);
    const PhaseCheck c =
        CheckPhase(phase, oracle, config.k, exact, kScanEvery, scans);
    const int64_t unsent = total - static_cast<int64_t>(phase.requests.size());
    attempted += total;
    failed += c.failed + unsent;
    wrong += c.wrong;
    if (first_error.empty()) first_error = c.first_error;
    if (first_error.empty() && unsent > 0) {
      first_error = std::to_string(unsent) + " requests not sent: backlog";
    }
    return std::make_pair(std::move(phase), c);
  };

  // Warm-up: pages the artifact in and fills the connections; its answers
  // are checked but not timed.
  run(kWarmupRequests, PhaseSeed(seed, 1), kWarmupScans);

  // The timed windows, each on fresh connections and its own seed stream.
  const int span = spans.Begin("loadgen.reference");
  std::vector<double> p50s, p99s, latency, late;
  double recall_sum = 0.0;
  int64_t recall_count = 0, backlog = 0;
  for (int64_t w = 0; w < windows; ++w) {
    if (!client.Connect()) Die("cannot connect to the server");
    auto [phase, c] = run(kWindow, PhaseSeed(seed, 2 + w), kWindowScans);
    std::vector<double>& lat = phase.timing.latency_ms;
    p50s.push_back(NearestRank(&lat, 50.0));
    p99s.push_back(NearestRank(&lat, 99.0));
    latency.insert(latency.end(), lat.begin(), lat.end());
    late.insert(late.end(), phase.timing.late_ms.begin(),
                phase.timing.late_ms.end());
    recall_sum += c.recall_sum;
    recall_count += c.recall_count;
    backlog = std::max(backlog, phase.backlog_at_end);
    // One span per answered request, due time to answer.
    for (size_t i = 0; i < phase.received_ns.size(); ++i) {
      if (phase.received_ns[i] >= 0) {
        spans.Add("client.request", span, phase.scheduled_ns[i],
                  phase.received_ns[i]);
      }
    }
  }
  spans.End(span);
  double p50_sum = 0.0, latency_sum = 0.0;
  for (double v : p50s) p50_sum += v;
  for (double v : latency) latency_sum += v;
  JsonObject j;
  j.Add("ref_rate", rate);
  j.Add("ref_windows", windows);
  j.Add("ref_samples", static_cast<int64_t>(latency.size()));
  j.Add("ref_p50_ms", p50_sum / static_cast<double>(p50s.size()));
  j.Add("ref_p99_ms", NearestRank(&p99s, 50.0));
  j.Add("ref_min_window_p50_ms", *std::min_element(p50s.begin(), p50s.end()));
  j.Add("ref_max_window_p50_ms", *std::max_element(p50s.begin(), p50s.end()));
  j.Add("ref_pooled_p50_ms", NearestRank(&latency, 50.0));
  j.Add("ref_mean_ms", latency_sum / static_cast<double>(latency.size()));
  j.Add("ref_late_p99_ms", NearestRank(&late, 99.0));
  j.Add("ref_backlog_at_end", backlog);
  j.Add("recall_at_10",
        recall_count > 0 ? recall_sum / recall_count : std::nan(""));
  j.Add("full_scans", recall_count);
  j.Add("attempted", attempted);
  j.Add("failed", failed);
  j.Add("wrong", wrong);
  j.Add("first_error", first_error);
  spans.Write(trace);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace panebench

int main(int argc, char** argv) {
  using namespace panebench;
  if (argc < 2) {
    Die("usage: pbench <gen-graph|train|gen-artifact|load|setup-probe|"
        "selftest>");
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "gen-graph") return GenGraph(args);
  if (command == "train") return Train(args);
  if (command == "gen-artifact") return GenArtifact(args);
  if (command == "load") return Load(args);
  if (command == "setup-probe") return SetupProbe(args);
  if (command == "selftest") return RunSelfTest();
  Die("unknown command " + command);
}
