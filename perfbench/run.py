#!/usr/bin/env python3
"""ccascope end-to-end benchmark.

Builds perfbench/ (the library sources in src/ plus the benchmark's own
workload runner) and runs one workload in its own single-threaded process:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json; perfbench/README.md
says why each workload exists. The last line of standard output is the
result, {"correct", "attempted", "failed", "metrics"}; the line before it
carries the machine and build stamp, the output digest and the per-batch
facts. --trace 1 reports the per-layer metrics instead of the end-to-end
ones and writes the layer aggregates and coarse spans to
<build dir>/traces/<workload>-seed<N>.json.

The build directory is $CARGO_TARGET_DIR if set, else .bench_build, relative
to the repository root.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(bdir):
    """Configures and builds incrementally; compiler output goes to a log."""
    out = bdir / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", str(out), "--target", "perfbench_workload", "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    return out / "perfbench_workload"


def check_metrics(metrics, declared):
    """Every declared metric, and only those, each a finite number with its unit."""
    problems = []
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names {sorted(metrics)} do not match BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']} is not a finite number: {v!r}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    scratch = bdir / "scratch" / f"{args.workload}-{os.getpid()}"
    traces = bdir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        run = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"{args.workload} printed no result line: {e}")

    metrics = run["metrics"]
    problems = check_metrics(metrics, declared)
    if args.trace == 0:
        problems += [f"{n} is not positive" for n, m in metrics.items()
                     if isinstance(m.get("value"), (int, float)) and not m["value"] > 0]
    attempted, failed = run["attempted"], run["failed"]
    stamp = run["stamp"]
    if not stamp["byte_identity_pins"]:
        print(f"perfbench: WARNING: build_type={stamp['build_type']} "
              f"ccc_native={stamp['ccc_native']}; the byte-identity pins hold only for the "
              "default flags, so digests are not comparable", file=sys.stderr)
    for p in run["failures"] + problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)

    info = {k: run[k] for k in ("workload", "seed", "trace", "batches", "digest", "stamp",
                                "facts", "failures") if k in run}
    info["failed_frac"] = failed / attempted if attempted else 1.0
    for k in ("wall_s_samples", "layer_share"):
        if k in run:
            info[k] = run[k]
    if args.trace:
        info["trace_file"] = str(trace_out)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
