#!/usr/bin/env python3
"""Runs the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload grid_svc|rx_replay|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt) under .bench_build/, or
under $CARGO_TARGET_DIR when set; later runs only check that it is up
to date. Build output and progress go to standard error. Standard
output ends with one JSON line: correct, attempted, failed and metrics
- the end_to_end metrics of BENCHMARK.json untraced, its per_layer
metrics with --trace 1. README.md in this directory defines every
workload and metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import pbmetrics  # noqa: E402

WORKLOADS = ("grid_svc", "rx_replay")
MAX_THREADS = 4
SETUP_RUNS = 3  # setup_s is the median of this many set-ups
RUN_TIMEOUT_S = 170
MIN_COVERAGE = 0.9  # share of each traced trial or pass its spans explain
# Frames per rx_replay p99 window: the fewest that emit a p99 (ten lie
# beyond it), so a run has as many windows as it can.
P99_WINDOW = 1000


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def check_root():
    for path in ("BENCHMARK.json", "CMakeLists.txt", "src/CMakeLists.txt",
                 "include/colorbars", "perfbench/CMakeLists.txt"):
        if not os.path.exists(path):
            raise BenchError(f"{path} not found: run from the repository root")


def build(build_dir):
    jobs = str(max(1, min(MAX_THREADS, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "cb_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.abspath(os.path.join(build_dir, "cb_perfbench"))


def child_env(tmp_dir):
    """The environment minus every COLORBARS_ knob (thread counts, svc
    worker mode, fault injection) except the SIMD backend pin."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COLORBARS_") or k == "COLORBARS_SIMD_BACKEND"}
    env["TMPDIR"] = os.path.abspath(tmp_dir)
    return env


def load_json(path, default=None):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return default


def write_json(path, value):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(value, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for directory, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(path.encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                check=False)
    except OSError:
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


class Runner:
    def __init__(self, binary, work_dir, threads):
        self.binary = binary
        self.work_dir = work_dir
        self.threads = threads
        self.env = child_env(work_dir)

    def run(self, workload, seed, seconds, trace, setup_only=False):
        report_path = os.path.join(self.work_dir, "report.json")
        spans_path = os.path.join(self.work_dir, "spans.tsv")
        for path in (report_path, spans_path):
            if os.path.exists(path):
                os.unlink(path)
        args = [self.binary, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--threads", str(self.threads), "--out", report_path,
                # Relative, so the path fits a Unix socket address.
                "--socket", os.path.join(os.path.relpath(self.work_dir), "svc.sock")]
        if trace:
            args += ["--trace", "--spans", spans_path]
        if setup_only:
            args.append("--setup-only")
        result = subprocess.run(args, env=self.env, stdout=sys.stderr, timeout=RUN_TIMEOUT_S,
                                check=False)
        if result.returncode != 0:
            raise BenchError(f"{workload}: benchmark binary exited with {result.returncode}")
        report = load_json(report_path)
        if report is None:
            raise BenchError(f"{workload}: benchmark binary wrote no report")
        if trace:
            report["spans"] = pbmetrics.read_spans(spans_path)
        return report


def fastest_pass(report, cost):
    """The fastest pass (pbmetrics.fastest) of cost(air_s, wall_s, cpu_s).
    Every run of a seed makes the same passes over the same inputs."""
    return pbmetrics.fastest([cost(air, wall, cpu) for air, wall, cpu in zip(
        report["pass_air_s"], report["pass_wall_s"], report["pass_cpu_s"])])


def frame_metrics(workload, report):
    """rx_frame_ms_p50 and the unbounded p99 (None on grids). rx_replay:
    the p50 of each pass's push_frame + poll times and the p99 of each
    window of P99_WINDOW consecutive frames, fastest pass or window.
    Grids have no per-frame samples: the p50 carries the CPU time per
    simulated frame period, fastest pass."""
    if workload == "rx_replay":
        samples = report["frame_ms"]
        frames = report["frames"]
        p50s = [pbmetrics.percentile(samples[i:i + frames], 50)
                for i in range(0, len(samples) - frames + 1, frames)]
        p99s = pbmetrics.window_percentiles(samples, 99, P99_WINDOW)
        if not p50s or None in p50s or not p99s:
            raise BenchError(f"rx_replay: {len(samples)} frames are too few for p99")
        return pbmetrics.fastest(p50s), pbmetrics.fastest(p99s)
    fps = report["frame_rate_hz"]
    return fastest_pass(report, lambda air, wall, cpu: cpu / air * 1000.0 / fps), None


def end_to_end(workload, report, setups):
    """The end_to_end metrics, and the rx_replay p99 to print beside them."""
    p50, p99 = frame_metrics(workload, report)
    return {
        "realtime_x": (1.0 / fastest_pass(report, lambda air, wall, cpu: wall / air), "x"),
        "cpu_s_per_air_s": (fastest_pass(report, lambda air, wall, cpu: cpu / air), "s"),
        "rx_frame_ms_p50": (p50, "ms"),
        "goodput_bps": (report["goodput_bps"], "bps"),
        "ser": (report["ser"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }, p99


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(workload, report):
    """The per-layer table of a traced run. A metric a workload cannot
    measure reads 0 (README.md lists which)."""
    spans = report["spans"]
    selves = pbmetrics.self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations_ms(name):
        return [span.duration / 1e6 for span in by_name.get(name, ())]

    def pct_ms(name, pct):
        value = pbmetrics.percentile(durations_ms(name), pct)
        return 0.0 if value is None else value

    def mean_ms(name):
        values = durations_ms(name)
        return statistics.fmean(values) if values else 0.0

    def total_ns(name):
        return sum(span.duration for span in by_name.get(name, ()))

    counters = report.get("counters", {})

    def c(key):
        return counters.get(key, 0)

    passes = report["passes"]
    roots = by_name.get("trial", []) + by_name.get("pass", [])
    coverage = min((1.0 - selves[span.id] / span.duration for span in roots if span.duration),
                   default=0.0)
    frames = [span for span in by_name.get("pipeline.next", ()) if span.count > 0]
    classify = by_name.get("eq.classify", [])
    wire = report.get("wire", {})
    svc_passes = report.get("svc_passes", [])
    svc_jobs = sum(p["jobs"] for p in svc_passes)
    timed_threads = 1 if workload == "rx_replay" else report["threads"]
    wall_s = sum(report["pass_wall_s"])
    return {
        "runtime.cpu_util": (ratio(sum(report["pass_cpu_s"]), wall_s * timed_threads), "ratio"),
        "tx.transmit_ms": (mean_ms("tx.transmit"), "ms"),
        "camera.render_ms_p50": (pct_ms("camera.render", 50), "ms"),
        "camera.render_ms_p99": (pct_ms("camera.render", 99), "ms"),
        "camera.render_share": (ratio(total_ns("camera.render"), total_ns("trial")), "ratio"),
        "pipeline.self_ms_per_frame": (
            ratio(sum(selves[span.id] for span in frames) / 1e6, len(frames)), "ms"),
        "pipeline.refills": (ratio(c("refills"), c("trials")), "count"),
        "pipeline.pool_misses": (ratio(c("pool_misses"), c("trials")), "count"),
        "pipeline.peak_resident_frames": (c("peak_resident_frames"), "count"),
        "rx.reduce_ms_p50": (pct_ms("rx.reduce", 50), "ms"),
        "rx.segment_ms_p50": (pct_ms("rx.segment", 50), "ms"),
        "rx.slotmap_ms_p50": (pct_ms("rx.slotmap", 50), "ms"),
        "rx.drain_ms_p50": (pct_ms("rx.drain", 50), "ms"),
        "rx.drain_ms_p99": (pct_ms("rx.drain", 99), "ms"),
        "rx.finish_ms": (mean_ms("rx.finish"), "ms"),
        "rx.parse_ms": (mean_ms("rx.parse"), "ms"),
        "rx.scan_ratio": (ratio(c("slots_scanned"), c("slots_ingested")), "ratio"),
        "rx.peak_window_slots": (c("peak_window_slots"), "count"),
        "rx.packets_ok": (ratio(c("packets_ok"), passes), "count"),
        "rx.header_lost": (ratio(c("header_lost"), passes), "count"),
        "rx.rs_failed": (ratio(c("rs_failed"), passes), "count"),
        "rx.truncated": (ratio(c("truncated"), passes), "count"),
        "rx.not_calibrated": (ratio(c("not_calibrated"), passes), "count"),
        "rx.calibration_packets": (ratio(c("calibration_packets"), passes), "count"),
        "eq.classify_us": (ratio(sum(s.duration for s in classify) / 1e3,
                                 sum(s.count for s in classify)), "us"),
        "eq.decisions": (ratio(c("decisions"), passes), "count"),
        "eq.fallback_ratio": (ratio(c("fallback_decisions"), c("decisions")), "ratio"),
        "eq.margin_mean": (ratio(c("margin_sum"), c("margin_count")), "dE"),
        "rs.errors_per_packet": (ratio(c("rs_errors"), c("packets_ok")), "count"),
        "rs.erasures_per_packet": (ratio(c("rs_erasures"), c("packets_ok")), "count"),
        "svc.encode_us_per_job": (wire.get("encode_us_per_job", 0.0), "us"),
        "svc.parse_us_per_job": (wire.get("parse_us_per_job", 0.0), "us"),
        "svc.result_us_per_job": (wire.get("result_us_per_job", 0.0), "us"),
        "svc.bytes_per_job": (ratio(sum(p["bytes"] for p in svc_passes), svc_jobs), "bytes"),
        "svc.worker_busy_share": (
            ratio(sum(p["busy_s"] for p in svc_passes),
                  sum(p["wall_s"] for p in svc_passes) * report["workers"]), "ratio"),
        "svc.max_queue_depth": (max((p["max_queue_depth"] for p in svc_passes), default=0),
                                "count"),
        "svc.retries": (sum(p["retries"] for p in svc_passes), "count"),
        "svc.respawns": (sum(p["respawns"] for p in svc_passes), "count"),
        "trace.coverage_min": (coverage, "ratio"),
        "trace.realtime_x": (1.0 / fastest_pass(report, lambda air, wall, cpu: wall / air),
                             "x"),
    }, coverage


def declared_metrics(trace):
    spec = load_json("BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, trace):
    declared = declared_metrics(trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        raise BenchError(f"metrics {sorted(emitted.items())} do not match BENCHMARK.json "
                         f"{sorted(declared.items())}")
    for name, unit in emitted.items():
        if not pbmetrics.valid_name(name) or not pbmetrics.valid_unit(unit):
            raise BenchError(f"invalid metric name or unit: {name} [{unit}]")


def check_fingerprint(cache_path, digest, workload, seed, fingerprint, store):
    """Every run of a workload and seed on the same sources, traced or
    not, must reproduce the first error-free run's fingerprint. Returns
    the earlier fingerprint, or None; then stores this one if `store`.
    Entries of other sources are dropped, so an intentional change of
    results starts afresh."""
    seeds = load_json(cache_path, {}).get(digest, {})
    entry = seeds.setdefault(str(seed), {})
    earlier = entry.get(workload)
    if earlier is None and store:
        entry[workload] = fingerprint
        write_json(cache_path, {digest: seeds})
    return earlier


def run_workload(runner, workload, seed, seconds, trace, cache_path):
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(runner.run(workload, seed, seconds, False, setup_only=True)["setup_s"])
    report = runner.run(workload, seed, seconds, trace)
    if not trace:
        setups.append(report["setup_s"])

    errors = list(report["errors"])
    if not report.get("wire", {}).get("wire_ok", True):
        errors.append("svc wire round trip failed")
    p99 = None
    if trace:
        metrics, coverage = per_layer(workload, report)
        if coverage < MIN_COVERAGE:
            errors.append(f"spans explain only {coverage:.3f} of a traced trial or pass")
    else:
        metrics, p99 = end_to_end(workload, report, setups)
    check_metrics(metrics, trace)
    digest = source_digest()
    earlier = check_fingerprint(cache_path, digest, workload, seed, report["fingerprint"],
                                store=not errors)
    if earlier is not None and earlier != report["fingerprint"]:
        errors.append(f"fingerprint {report['fingerprint']} differs from an earlier run's "
                      f"{earlier} for seed {seed}")

    record = load_json(os.path.join(HERE, "record.json"), {})
    recorded = record.get("fingerprints", {}).get(str(seed), {}).get(workload)
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": trace,
        "git_rev": git_rev(), "source_digest": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "simd": report["simd"], "threads": report["threads"], "workers": report["workers"],
        "build_type": report["build_type"], "passes": report["passes"],
        "fingerprint": report["fingerprint"],
        "record_match": None if recorded is None else recorded == report["fingerprint"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for error in errors:
        print(f"error {workload}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:30s} {value:14.6g} {unit}")
    if p99 is not None:
        print(f"{workload:12s} {'rx_frame_ms_p99':30s} {p99:14.6g} ms (host jitter: not bounded)")
    return {
        "correct": not errors,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    try:
        check_root()
        build_root = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                                  "perfbench")
        binary = build(build_root)
        work_dir = os.path.join(build_root, "run")
        os.makedirs(work_dir, exist_ok=True)
        threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
        runner = Runner(binary, work_dir, threads)
        cache_path = os.path.join(build_root, "fingerprints.json")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(runner, w, args.seed, args.seconds, bool(args.trace),
                                   cache_path) for w in workloads}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as error:
        log(f"perfbench: {error}")
        return 1
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
