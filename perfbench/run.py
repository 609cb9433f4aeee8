"""Benchmark of xfo: one seeded workload per run, checked against references
that do not come from xfo.

    python3 perfbench/run.py --workload {compile,simulate,equiv} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout; it imports xfo from ``src/``. With
``--trace 0`` it measures for about S seconds with no instrumentation and
prints the end-to-end metrics. With ``--trace 1`` it wraps xfo's layer entry
points, runs fixed-size passes over a size sweep, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a detailed report. The load is a closed loop: one caller, no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import common
from compile_loop import Compile
from equiv import Equiv
from simulate import Simulate
from tracer import LAYER_METRICS, Tracer

WORKLOADS = {"compile": Compile, "simulate": Simulate, "equiv": Equiv}
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
}


def other_hash_seed_checkpoint(args) -> tuple[str, str]:
    """The checkpoint fingerprint computed by a child under another PYTHONHASHSEED."""
    current = os.environ.get("PYTHONHASHSEED")
    other = "1" if current == "0" else "0"
    argv = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--checkpoint"]
    if args.smoke:
        argv.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED=other)
    child = subprocess.run(argv, cwd=common.ROOT, env=env, capture_output=True, text=True,
                           timeout=150, check=False)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return other, f"child failed ({child.returncode}): {child.stderr.strip()[-300:]}"
    return other, lines[-1]


def measure(workload, args) -> tuple[dict, dict]:
    start = time.perf_counter()
    result = workload.measure(args.seconds)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    hash_seed, fingerprint = other_hash_seed_checkpoint(args)
    workload.tally.op(fingerprint == result["checkpoint"],
                      f"checkpoint {result['checkpoint']} differs under "
                      f"PYTHONHASHSEED={hash_seed}: {fingerprint}")
    values = {key: result[key] for key in END_TO_END_UNITS if key in result}
    values["peak_rss_mb"] = peak_rss_mb
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in END_TO_END_UNITS.items()}
    report = dict(result["detail"], wall_s=wall,
                  hash_seed_check={"PYTHONHASHSEED": hash_seed, "fingerprint": fingerprint})
    return metrics, report


def traced(workload) -> tuple[dict, dict]:
    tracer = Tracer()
    start = time.perf_counter()
    info = workload.traced(tracer)
    values = tracer.layer_metrics(info)
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = common.OUT_DIR / f"spans-{workload.name}"
    tracer.write(spans)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    report = {
        "runs": tracer.runs,
        "spans": len(tracer.name),
        "spans_file": str(spans.with_suffix(".bin").relative_to(common.ROOT)),
        "phase": info["phase"],
        "untraced_phase_s": info["untraced_wall_s"],
        "traced_phase_s": info["window"][1] - info["window"][0],
        "wall_s": time.perf_counter() - start,
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    parser.add_argument("--checkpoint", action="store_true",
                        help="print only the fixed-size checkpoint fingerprint")
    args = parser.parse_args(argv)
    try:
        xfo = common.load_xfo()
    except common.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](xfo, args.seed, args.smoke)
    if args.checkpoint:
        print(workload.checkpoint())
        return 0 if workload.tally.failed == 0 else 1

    metrics, report = traced(workload) if args.trace else measure(workload, args)
    tally = workload.tally
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, error_rate=tally.failed / max(tally.attempted, 1),
                  failures=tally.messages)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
