#!/usr/bin/env python3
"""Measures how steady the benchmark is, and records it.

    python3 perfbench/steady.py --workloads grid_svc,rx_replay
                                --runs 10 --first-seed 100 [--aa] [--trace]
                                [--record]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...)
on each workload and prints, per end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread: the interquartile
distance as a share of the median, which must stay below a third of the
metric's bound in BENCHMARK.json. --aa repeats the same seeds and
reports how far the second median moved against the first, in the
metric's worse direction, and the median change between two runs of
one seed ("repeat"): the part of the spread that is the host's, not
the inputs'. --trace adds one traced run per workload and
reports the tracing overhead (1 - traced / untraced realtime_x).
--record writes all of it into perfbench/record.json, next to the
fingerprints of the development and held-out seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "record.json")


def run_once(workload, seed, trace=False, seconds=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py failed")
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")), {})
    return json.loads(lines[-1]), provenance


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def repeat_change(first, second):
    """Median over seeds of |second / first - 1|, same seed in both."""
    return statistics.median(abs(b / a - 1.0) if a else 0.0 for a, b in zip(first, second))


def record_fingerprints(seeds):
    """Stores the fingerprints of the development and held-out seeds in
    record.json (a minimal run still covers every pass the fingerprint
    does)."""
    record = load_record()
    record["dev_seed"], record["heldout_seed"] = seeds
    record["fingerprints"] = {}
    for seed in seeds:
        entry = record["fingerprints"].setdefault(str(seed), {})
        for workload in ("grid_svc", "rx_replay"):
            result, provenance = run_once(workload, seed, seconds=1)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            entry[workload] = provenance["fingerprint"]
            print(f"seed {seed} {workload} {entry[workload]}")
    save_record(record)
    return 0


def load_record():
    try:
        with open(RECORD, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def save_record(record):
    with open(RECORD, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="grid_svc,rx_replay")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--fingerprint-seeds", default="",
                        help="dev,held-out: record these seeds' fingerprints instead")
    args = parser.parse_args()
    if args.fingerprint_seeds:
        return record_fingerprints([int(s) for s in args.fingerprint_seeds.split(",")])

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    steadiness = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(2 if args.aa else 1):
            values = {name: [] for name in bounds}
            for seed in seeds:
                result, provenance = run_once(workload, seed)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}")
                    ok = False
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            sets.append({name: summarize(v) for name, v in values.items()})
        entry = {"seeds": seeds, "runs": sets[0], "host": {
            k: provenance.get(k) for k in ("nproc", "simd", "threads", "workers", "build_type",
                                           "git_rev", "source_digest")}}
        print(f"\n{workload}: {len(seeds)} seeds")
        for name, meta in bounds.items():
            s = sets[0][name]
            line = (f"  {name:18s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                    f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  bound {meta['bound']}  "
                    f"[{' '.join(f'{v:.5g}' for v in s['values'])}]")
            if name != "setup_s" and s["spread"] >= meta["bound"] / 3:
                line += "  SPREAD >= BOUND/3"
                ok = False
            if args.aa:
                moved = worsening(s["median"], sets[1][name]["median"], meta["better"])
                repeat = repeat_change(s["values"], sets[1][name]["values"])
                sets[1][name]["aa_worse_by"] = moved
                sets[1][name]["repeat"] = repeat
                line += (f"  A/A worse by {moved:+.4f}  repeat {repeat:.4f}  "
                         f"second spread {sets[1][name]['spread']:.4f}")
                ok = ok and moved <= meta["bound"]
                if name != "setup_s" and sets[1][name]["spread"] > meta["bound"]:
                    line += "  SECOND SPREAD > BOUND"
                    ok = False
            print(line)
        if args.aa:
            entry["aa_second_runs"] = sets[1]
        if args.trace:
            traced, _ = run_once(workload, seeds[0], trace=True)
            ok = ok and traced["correct"]
            traced_x = traced["metrics"]["trace.realtime_x"]["value"]
            untraced_x = sets[0]["realtime_x"]["median"]
            entry["tracing_overhead"] = {"traced_realtime_x": traced_x,
                                         "untraced_median_realtime_x": untraced_x,
                                         "overhead": 1.0 - traced_x / untraced_x}
            print(f"  tracing overhead {entry['tracing_overhead']['overhead']:+.4f} "
                  f"(traced realtime_x {traced_x:.4g}, coverage_min "
                  f"{traced['metrics']['trace.coverage_min']['value']:.4f})")
        steadiness[workload] = entry

    if args.record:
        record = load_record()
        record.setdefault("steadiness", {}).update(steadiness)
        save_record(record)
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
