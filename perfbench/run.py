#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1>

builds perfbench/ (and the repository's src/ libraries it links) into
.bench_build/, runs the workload in its own process, passes its metric
lines through, and prints as the last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Steadiness mode runs a workload k times, seeds n..n+k-1, and prints per
metric the median, quartiles, (q3-q1)/median and (max-min)/median:

  python3 perfbench/run.py --workload <name> --repeat <k> [--seed <n>] \\
      [--seconds <s>] [--trace 0|1|both]

With --trace both every seed runs untraced and traced, and the tracing
overhead is the traced step time against the untraced one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("mobilenet_serve", "resnet50_verify", "gnmt_stream")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT}/src is missing: run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {r.returncode}")


def run_once(workload, seed, seconds, trace, echo):
    """Run the binary once; returns its last line, parsed (every metric)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT_DIR]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if r.returncode != 0 or not lines:
        fail(f"{workload} exited {r.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_for(raw, group):
    """The result line: the metrics BENCHMARK.json lists for this run."""
    metrics = {}
    for m in group:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(raw["correct"]) and raw["failed"] == 0,
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": metrics}


def spread_table(runs, bounds):
    """Per metric over runs: median, quartiles and spreads."""
    names = list(runs[0]["metrics"])
    print(f"{'metric':34} {'unit':11} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs
                if name in r["metrics"]]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and iqr >= bound / 3:
            flag = "  <-- spread above bound/3"
        print(f"{name:34} {unit:11} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{iqr:8.4f} {rng:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")


def repeat(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    runs = {t: [] for t in traces}
    for i in range(args.repeat):
        seed = args.seed + i
        for t in traces:
            raw = run_once(args.workload, seed, args.seconds, t, echo=False)
            runs[t].append(raw)
            print(f"# seed={seed} trace={t} correct={raw['correct']} "
                  f"failed={raw['failed']}/{raw['attempted']}", flush=True)
    for t in traces:
        print(f"\n## {args.workload}: {args.repeat} runs, trace={t}, "
              f"{args.seconds} s each")
        spread_table(runs[t], bounds if t == 0 else {})
    if len(traces) == 2:
        for name in ("step_norm", "step_s_p50"):
            untraced, traced = (statistics.median(
                r["metrics"][name]["value"] for r in runs[t]) for t in traces)
            print(f"tracing overhead on {name} (medians, traced/untraced "
                  f"- 1): {traced / untraced - 1:+.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    if args.repeat:
        repeat(args, spec)
        return
    if args.trace == "both":
        fail("--trace both needs --repeat")
    trace = int(args.trace)
    raw = run_once(args.workload, args.seed, args.seconds, trace, echo=True)
    group = spec["per_layer" if trace else "end_to_end"]
    print(json.dumps(result_for(raw, group)))


if __name__ == "__main__":
    main()
