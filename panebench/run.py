#!/usr/bin/env python3
"""The PANE benchmark: one command, three workloads, end-to-end or traced.

    python3 panebench/run.py --workload train-ram --seed 1 --seconds 30 --trace 0

Run from the root of a PANE source tree. The first run builds the program
and the benchmark tool into .bench_build/ with the repository's own CMake
build; each run works in .bench_out/<workload>-<seed>/ and removes its bulky
inputs when it ends. Human-readable lines go to stdout first; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics untraced, the per-layer metrics with
--trace 1). Any failed check, wrong answer or failed operation exits with
status 1. See panebench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "panebench")
PBENCH = os.path.join(BUILD, "pbench")
SERVER = os.path.join(BUILD, "pane", "pane_server")

# Load comes from one pbench thread over 2 connections; the server runs
# SERVER_THREADS pool workers plus its event-loop thread, so server and load
# together use the 4 cores of the reference machine. Training uses 4 threads
# (pbench's constants).
SERVER_THREADS = 2
# Fresh training processes per untraced run; train_s, setup_s and
# peak_rss_mb are their medians.
TRAININGS = 3
# Timed load per run: windows of 500 requests at the workload's rate, each
# on fresh connections.
WINDOWS = 18

# Fixed per-workload settings; `rate` is the serving phase's constant
# open-loop rate.
WORKLOADS = {
    "train-ram": dict(kind="train", shape="tweibo", budget_mb=0,
                      attr_auc_floor=0.62, link_auc_floor=0.70,
                      serve=dict(rate=1500.0, frame=False, shards=0,
                                 pruned=False, recall_floor=0.999)),
    "train-spill": dict(kind="train", shape="google+", budget_mb=48,
                        attr_auc_floor=0.68, link_auc_floor=0.80,
                        serve=dict(rate=1500.0, frame=False, shards=0,
                                   pruned=False, recall_floor=0.999)),
    "serve-sharded": dict(kind="serve", starts=2, attr_auc_floor=0.9,
                          link_auc_floor=0.9,
                          serve=dict(rate=1200.0, frame=True, shards=4,
                                     pruned=True, recall_floor=0.9)),
}

PER_LAYER = [
    ("graph.load_s", "s"), ("graph.load_mb_per_s", "MB/s"),
    ("affinity.s", "s"), ("affinity.mcells_per_s", "Mcell/s"),
    ("affinity.panels", "count"), ("affinity.panel_width", "count"),
    ("affinity.scratch_mb", "MB"), ("affinity.row_parallel", "count"),
    ("init.s", "s"), ("init.blocks_overlapped", "count"),
    ("ccd.s", "s"), ("ccd.sweeps", "count"), ("ccd.s_per_sweep", "s"),
    ("ccd.strip_width", "count"), ("ccd.objective_ratio", "ratio"),
    ("pool.faults", "count"), ("pool.evictions", "count"),
    ("pool.writebacks", "count"), ("slab.spilled_mb", "MB"),
    ("save.s", "s"), ("artifact_mb", "MB"), ("store.open_s", "s"),
    ("engine.create_s", "s"), ("ivf.build_s", "s"), ("shard.build_s", "s"),
    ("session.decode_us.p50", "us"), ("session.encode_us.p50", "us"),
    ("server.batch_wait_us.p50", "us"), ("server.batch_wait_us.p99", "us"),
    ("server.batch_size.mean", "count"), ("server.batch_us.p50", "us"),
    ("server.batch_us.mixed", "count"),
    ("engine.scan_us.p50", "us"), ("engine.scan_us.p99", "us"),
    ("engine.select_us.p50", "us"), ("engine.tiles", "count"),
    ("ivf.candidates_scanned", "count"), ("ivf.scan_fraction", "ratio"),
    ("router.fanout_us.p50", "us"), ("router.fanout_us.p99", "us"),
    ("router.merge_us.p50", "us"), ("router.hop_us.p99.max_shard", "us"),
    ("router.hop_us.p50.median_shard", "us"),
    ("loadgen.late_ms.p99", "ms"), ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("trace.e2e_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.unattributed_pct", "%"), ("trace.overhead_pct", "%"),
]

END_TO_END = [("setup_s", "s"), ("train_s", "s"), ("peak_rss_mb", "MB"),
              ("attr_auc", "auc"), ("link_auc", "auc"),
              ("serve_cpu_us", "us"), ("recall_at_10", "ratio")]


class CheckFailed(Exception):
    pass


def log(*parts):
    print(*parts, flush=True)


def build():
    """Configures once, then brings pbench and pane_server up to date."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise CheckFailed("no CMakeLists.txt at %s: run from a PANE checkout"
                          % ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    out = subprocess.DEVNULL
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "panebench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=out, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "pbench", "pane_server"],
                   check=True, stdout=out, stderr=sys.stderr)


def run_json(args):
    """Runs a pbench subcommand; returns the JSON of its last stdout line."""
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def run_measured(args):
    """Runs one pbench worker and returns (JSON, peak RSS in MB) of that
    process alone, read from wait4 — never a high-water mark shared with
    earlier work."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise CheckFailed("%s exited with %s" % (" ".join(args[:2]),
                                                  proc.returncode))
    return json.loads(out.decode().strip().splitlines()[-1]), \
        usage.ru_maxrss / 1024.0, usage


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """A pane_server process; start() returns the seconds until it accepts
    its first connection, stop() its peak RSS in MB."""

    def __init__(self, artifact, serve, log_path):
        self.port = free_port()
        self.command = [
            SERVER, "--embedding=" + artifact, "--port=%d" % self.port,
            "--threads=%d" % SERVER_THREADS, "--cache-size=0"]
        if serve["shards"]:
            self.command.append("--local-shards=%d" % serve["shards"])
        if serve["pruned"]:
            self.command.append("--pruned")
        self.log_path = log_path
        self.proc = None

    def start(self, timeout_s=120.0):
        t0 = time.monotonic()
        with open(self.log_path, "ab") as log_file:
            self.proc = subprocess.Popen(self.command, stdout=log_file,
                                         stderr=log_file)
        while True:
            if self.proc.poll() is not None:
                self.proc = None
                raise CheckFailed("server exited at start; see " +
                                  self.log_path)
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=1.0):
                    return time.monotonic() - t0
            except OSError:
                if time.monotonic() - t0 > timeout_s:
                    raise CheckFailed("server did not accept in time")
                time.sleep(0.005)

    def cpu_s(self):
        """CPU seconds, user plus system over all threads, the server has
        used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def scrape(self, verb):
        """Sends one line-protocol verb ('metrics' or 'stats') and returns
        the answer text."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=10.0) as s:
            s.sendall((verb + "\nquit\n").encode())
            data = b""
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        return data.decode()

    def stop(self):
        """Ends the server with SIGTERM (pane_server has no handler, so it
        dies of that signal). A server that ended before, or of anything
        else, fails the run."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0.0
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        ended_early = pid != 0
        if not ended_early:
            os.kill(proc.pid, signal.SIGTERM)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if ended_early or proc.returncode != -signal.SIGTERM:
            raise CheckFailed("server ended with status %d%s; see %s"
                              % (proc.returncode,
                                 " before it was stopped" if ended_early
                                 else "", self.log_path))
        return usage.ru_maxrss / 1024.0


def parse_exposition(text):
    """Prometheus text -> {(name, frozenset(labels)): value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or " " not in line:
            continue
        key, value = line.rsplit(" ", 1)
        labels = frozenset()
        name = key
        if "{" in key:
            name, rest = key.split("{", 1)
            pairs = [p for p in rest.rstrip("}").split(",") if p]
            labels = frozenset(tuple(p.split("=", 1)) for p in pairs)
        try:
            samples[(name, labels)] = float(value)
        except ValueError:
            pass
    return samples


def quantile(samples, name, q):
    return samples.get((name, frozenset([("quantile", '"%s"' % q)])), 0.0)


def serving_layers(samples, stats_line, load, sharded):
    """The per-layer serving figures from one scraped server."""
    get = lambda name: samples.get((name, frozenset()), 0.0)
    stage = lambda s, q: quantile(samples, "pane_stage_%s_us" % s, q)
    layers = {
        "session.decode_us.p50": stage("decode", "0.5"),
        "session.encode_us.p50": stage("encode", "0.5"),
        "server.batch_wait_us.p50": stage("batch_wait", "0.5"),
        "server.batch_wait_us.p99": stage("batch_wait", "0.99"),
        "server.batch_size.mean": get("pane_server_requests_total") /
        max(get("pane_server_batches_total"), 1.0),
        "server.batch_us.p50": quantile(samples, "pane_server_batch_us",
                                        "0.5"),
        # In-process shard servers record into the same unlabelled
        # pane_server_batch_us histogram as the router's server, so on a
        # sharded fleet that figure mixes router and shard batches.
        "server.batch_us.mixed": 1.0 if sharded else 0.0,
        "engine.scan_us.p50": stage("engine_scan", "0.5"),
        "engine.scan_us.p99": stage("engine_scan", "0.99"),
        "engine.select_us.p50": stage("topk_select", "0.5"),
        "engine.tiles": get("pane_engine_tiles_scanned_total"),
        "ivf.candidates_scanned":
            get("pane_engine_ivf_candidates_scanned_total"),
        "router.fanout_us.p50": stage("fanout", "0.5"),
        "router.fanout_us.p99": stage("fanout", "0.99"),
        "router.merge_us.p50": stage("merge", "0.5"),
        "loadgen.late_ms.p99": load["ref_late_p99_ms"],
        "serve.p50_ms": load["ref_p50_ms"],
        "serve.p99_ms": load["ref_p99_ms"],
    }
    scanned = layers["ivf.candidates_scanned"]
    pruned = get("pane_engine_ivf_candidates_pruned_total")
    layers["ivf.scan_fraction"] = scanned / (scanned + pruned) \
        if scanned + pruned > 0 else 0.0
    hop_p99, hop_p50 = [], []
    for (name, labels), value in samples.items():
        if name != "pane_router_hop_us":
            continue
        d = dict(labels)
        if d.get("quantile") == '"0.99"':
            hop_p99.append(value)
        elif d.get("quantile") == '"0.5"':
            hop_p50.append(value)
    layers["router.hop_us.p99.max_shard"] = max(hop_p99) if hop_p99 else 0.0
    layers["router.hop_us.p50.median_shard"] = \
        statistics.median(hop_p50) if hop_p50 else 0.0
    # Per-request attribution: each request lives through one batch, so a
    # stage's mean per batch is what it adds to that request's latency. On a
    # fleet the shard scans run inside the fan-out and are not added again.
    names = ["decode", "batch_wait", "encode"] + (
        ["fanout", "merge"] if sharded else ["engine_scan", "topk_select"])
    attributed_ms = 0.0
    for s in names:
        count = samples.get(("pane_stage_%s_us_count" % s, frozenset()), 0.0)
        total = samples.get(("pane_stage_%s_us_sum" % s, frozenset()), 0.0)
        if count > 0:
            attributed_ms += total / count / 1000.0
    mean_ms = load["ref_mean_ms"]
    layers["serve.attributed_ms"] = attributed_ms
    layers["serve.unattributed_ms"] = mean_ms - attributed_ms
    layers["serve.stats_requests"] = float(
        dict(kv.split("=", 1) for kv in stats_line.split()[2:]
             if "=" in kv).get("requests", 0))
    return layers


def load_args(port, raw, seed, serve, trace_file=None):
    """pbench load arguments: a checked warm-up, then WINDOWS windows of
    500 requests at the workload's rate."""
    args = [PBENCH, "load", "--port=%d" % port, "--raw=" + raw,
            "--seed=%d" % seed, "--rate=%g" % serve["rate"],
            "--windows=%d" % WINDOWS, "--frame=%d" % int(serve["frame"]),
            "--exact=%d" % int(not serve["pruned"])]
    if trace_file:
        args.append("--trace=" + trace_file)
    return args


def serve_phase(artifact, raw, seed, serve, work):
    """One server start and the checked load; returns (load JSON with the
    server's CPU microseconds per request added, server peak RSS MB, start
    seconds)."""
    server = Server(artifact, serve, os.path.join(work, "server.log"))
    try:
        start_s = server.start()
        cpu0 = server.cpu_s()
        load = run_json(load_args(server.port, raw, seed, serve))
        load["serve_cpu_us"] = \
            (server.cpu_s() - cpu0) * 1e6 / load["attempted"]
    finally:
        rss = server.stop()
    check_serving(load, serve)
    return load, rss, start_s


def traced_serving(artifact, raw, seed, serve, work, sharded):
    """Untraced then traced load, each on a fresh server and both checked;
    the traced server is scraped after serving only the traced load."""
    untraced, _, _ = serve_phase(artifact, raw, seed, serve, work)
    traced_server = Server(artifact, serve, os.path.join(work, "server.log"))
    try:
        traced_server.start()
        traced = run_json(load_args(
            traced_server.port, raw, seed, serve,
            trace_file=os.path.join(work, "trace-requests.json")))
        samples = parse_exposition(traced_server.scrape("metrics"))
        stats_line = traced_server.scrape("stats").splitlines()[0]
    finally:
        traced_server.stop()
    check_serving(traced, serve)
    layers = serving_layers(samples, stats_line, traced, sharded)
    probe = run_json([PBENCH, "setup-probe", "--artifact=" + artifact,
                      "--threads=%d" % SERVER_THREADS,
                      "--shards=%d" % serve["shards"],
                      "--pruned=%d" % int(serve["pruned"])])
    layers.update(probe)
    return layers, untraced, traced


def check_serving(load, serve):
    """Every request must be sent, answered and right, and recall must
    hold its floor."""
    if load["wrong"] or load["failed"]:
        raise CheckFailed("%d wrong and %d failed of %d requests, first: %s"
                          % (load["wrong"], load["failed"],
                             load["attempted"], load["first_error"]))
    recall = load["recall_at_10"]
    if recall is None or recall < serve["recall_floor"]:
        raise CheckFailed("recall@10 %s below the floor %s"
                          % (recall, serve["recall_floor"]))


def check_auc(result, spec):
    if not (result["attr_auc"] >= spec["attr_auc_floor"] and
            result["link_auc"] >= spec["link_auc_floor"]):
        raise CheckFailed("held-out AUC %.4f / %.4f below the floors %s / %s"
                          % (result["attr_auc"], result["link_auc"],
                             spec["attr_auc_floor"], spec["link_auc_floor"]))


def train_workload(spec, seed, trace, work):
    graph = os.path.join(work, "graph")
    holdout = os.path.join(work, "holdout.bin")
    run_json([PBENCH, "gen-graph", "--shape=" + spec["shape"],
              "--seed=%d" % seed, "--out=" + graph, "--holdout=" + holdout])
    artifact = os.path.join(work, "artifact.ctn")
    raw = os.path.join(work, "factors.raw")

    def worker(trace_file=None):
        args = [PBENCH, "train", "--graph=" + graph,
                "--budget-mb=%d" % spec["budget_mb"], "--out=" + artifact, "--raw=" + raw, "--holdout=" + holdout,
                "--spill-dir=" + work]
        if trace_file:
            args.append("--trace=" + trace_file)
        result, rss, usage = run_measured(args)
        result["peak_rss_mb"] = rss
        result["page_faults"] = usage.ru_minflt + usage.ru_majflt
        check_auc(result, spec)
        log("train: budget %d MiB, spilled %.1f MB, peak RSS %.1f MB, "
            "train %.3f s (affinity %.3f, init %.3f, ccd %.3f, save %.3f)"
            % (spec["budget_mb"], result["slab.spilled_mb"], rss,
               result["train_s"], result["affinity.s"], result["init.s"],
               result["ccd.s"], result["save.s"]))
        return result

    serve = spec["serve"]
    if trace:
        untraced = worker()
        traced = worker(os.path.join(work, "trace-train.json"))
        e2e_plain = untraced["setup_s"] + untraced["train_s"]
        e2e = traced["setup_s"] + traced["train_s"]
        layers = {k: v for k, v in traced.items()
                  if "." in k and isinstance(v, (int, float))}
        layers["pool.faults"] = traced["page_faults"]
        layers["artifact_mb"] = traced["artifact_mb"]
        parts = (traced["graph.load_s"] + traced["affinity.s"] +
                 traced["init.s"] + traced["ccd.s"] + traced["save.s"])
        layers["trace.e2e_s"] = e2e
        layers["trace.unattributed_s"] = e2e - parts
        layers["trace.unattributed_pct"] = 100.0 * (e2e - parts) / e2e
        layers["trace.overhead_pct"] = 100.0 * (e2e - e2e_plain) / e2e_plain
        serving, untraced_load, traced_load = traced_serving(
            artifact, raw, seed, serve, work, False)
        layers.update(serving)
        attempted = 2 + untraced_load["attempted"] + traced_load["attempted"]
        return layers, attempted, traced_load

    results = [worker() for _ in range(TRAININGS)]
    load, _, _ = serve_phase(artifact, raw, seed, serve, work)
    med = lambda key: statistics.median(r[key] for r in results)
    metrics = {
        "setup_s": med("setup_s"),
        "train_s": med("train_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "attr_auc": results[-1]["attr_auc"],
        "link_auc": results[-1]["link_auc"],
    }
    attempted = len(results) + load["attempted"]
    return metrics, attempted, load


def serve_workload(spec, seed, trace, work):
    artifact = os.path.join(work, "artifact.ctn")
    raw = os.path.join(work, "factors.raw")
    serve = spec["serve"]
    built = run_json([PBENCH, "gen-artifact", "--seed=%d" % seed,
                      "--out=" + artifact, "--raw=" + raw])
    check_auc(built, spec)
    sharded = serve["shards"] > 0
    if trace:
        layers, untraced, traced = traced_serving(
            artifact, raw, seed, serve, work, sharded)
        layers["save.s"] = built["save_s"]
        layers["artifact_mb"] = built["artifact_mb"]
        layers["trace.e2e_s"] = traced["ref_mean_ms"] / 1000.0
        layers["trace.unattributed_s"] = layers["serve.unattributed_ms"] / 1e3
        layers["trace.unattributed_pct"] = \
            100.0 * layers["serve.unattributed_ms"] / traced["ref_mean_ms"]
        layers["trace.overhead_pct"] = 100.0 * (
            traced["ref_p50_ms"] - untraced["ref_p50_ms"]) / \
            untraced["ref_p50_ms"]
        return layers, untraced["attempted"] + traced["attempted"], traced

    # Set up `starts` times (artifact open to first accepted connection);
    # the last server takes the load, so its peak RSS is one fresh process.
    starts = []
    for _ in range(spec["starts"] - 1):
        server = Server(artifact, serve, os.path.join(work, "server.log"))
        try:
            starts.append(server.start())
        finally:
            server.stop()
    load, rss, start_s = serve_phase(artifact, raw, seed, serve, work)
    starts.append(start_s)
    metrics = {
        "setup_s": statistics.median(starts),
        # No training step: the artifact is built by saving the generated
        # factors through the container writer.
        "train_s": built["save_s"],
        "peak_rss_mb": rss,
        "attr_auc": built["attr_auc"],
        "link_auc": built["link_auc"],
    }
    return metrics, spec["starts"] + load["attempted"], load


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    # Accepted for the benchmark interface; every run does the same fixed
    # amount of work (TRAININGS, WINDOWS, server starts) so that runs are
    # alike, about 30 s of measurement per workload.
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    try:
        build()
        selftest = run_json([PBENCH, "selftest"])
        if selftest["selftest_failures"]:
            raise CheckFailed("benchmark self-test failed")
    except (CheckFailed, subprocess.CalledProcessError, OSError) as e:
        print("panebench: %s" % e, file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_out",
                        "%s-%d%s" % (args.workload, args.seed,
                                     "-trace" if args.trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = train_workload if spec["kind"] == "train" else serve_workload
    try:
        metrics, attempted, load = run(spec, args.seed, args.trace,
                                      work)
        if not args.trace:
            metrics["serve_cpu_us"] = load["serve_cpu_us"]
            metrics["recall_at_10"] = load["recall_at_10"]
    except (CheckFailed, subprocess.CalledProcessError, OSError,
            KeyError, ValueError) as e:
        print("panebench: check failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        # Keep the traces and logs, drop the bulky inputs.
        for name in ("graph", "artifact.ctn", "factors.raw", "holdout.bin"):
            path = os.path.join(work, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif os.path.exists(path):
                os.remove(path)

    log("workload %s seed %d: attempted %d, failed 0"
        % (args.workload, args.seed, attempted))
    log("serving at %.1f req/s: %d latency samples in %d windows, p50 %.3f "
        "ms (window p50s %.3f-%.3f), p99 %.3f ms, load generator late p99 "
        "%.3f ms, server CPU %.1f us/request"
        % (load["ref_rate"], load["ref_samples"], load["ref_windows"],
           load["ref_p50_ms"], load["ref_min_window_p50_ms"],
           load["ref_max_window_p50_ms"], load["ref_p99_ms"],
           load["ref_late_p99_ms"], load.get("serve_cpu_us", 0.0)))
    figures = PER_LAYER if args.trace else END_TO_END
    reported = {}
    for name, unit in figures:
        # A layer a workload does not use reads 0 (see the README table).
        value = float(metrics.get(name, 0.0))
        reported[name] = {"value": value, "unit": unit}
        log("  %-34s %.6g %s" % (name, value, unit))
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"metrics": metrics, "load": load}, f, indent=1,
                  sort_keys=True)
    # Every check above raises, so reaching here means every output was
    # right and no operation failed.
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": 0, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
