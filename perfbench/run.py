"""Outside-in benchmark of swirl: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; swirl is imported from its ``src``.
``--workload all`` runs every workload in turn.  Each workload runs in
fresh processes (see worker.py) with one BLAS/OpenMP thread.
A single caller drives a closed loop: the next item starts when the previous
one has finished and been checked.  Item latency covers the item's swirl
calls only; making inputs and checking outputs are not timed.

--trace 0 prints the end-to-end metrics.  setup_s is the median over
SETUP_SAMPLES fresh processes of the time from process start to the first
timed item (imports, cold tables, inputs and one warm-up item); the last of
those processes runs the timed loop for --seconds of item time.
--trace 1 runs one process: an untraced loop, then a traced loop of the same
length, and prints the per-layer metrics.  Spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (named ``<workload>.<metric>`` for
``all``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transform_batched", "transform_single", "molecule_model", "rotation_harness")
THREADS = "1"
THREAD_VARIABLES = ("SWIRL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
# item_tail_s is the highest of these percentiles with TAIL_BEYOND items
# beyond it.  The median is left out (item_p50_s reports it), so under 40
# items the tail is the slowest item.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
DEADLINE_S = 170.0


def spawn(args, mode, deadline) -> dict:
    env = dict(os.environ, **{var: THREADS for var in THREAD_VARIABLES})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("error: out of time before starting a worker")
    command += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {mode} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(label, value) of item_tail_s."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return f"p{p:g}", cuts[round(p * 10) - 1]
    return "p100, the slowest item", max(latencies)


def end_to_end(args, deadline):
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "run", deadline)
    setups.append(run)
    latencies = run["latencies"]
    tail_label, tail_value = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "items_per_s": ((len(latencies) - run["failed"]) / sum(latencies), "1/s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "item_tail_s": (tail_value, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {
        "item_p50_s": f"n={len(latencies)}",
        "item_tail_s": f"{tail_label}, n={len(latencies)}",
        "setup_s": "samples " + " ".join(f"{s['setup_s']:.3f}" for s in setups),
    }
    checks = sorted({k for d in run["details"] for k in d if k != "pair_s"})
    worst = {k: max(d[k] for d in run["details"] if k in d) for k in checks}
    return run, setups, metrics, notes, worst


def run_workload(args) -> dict:
    """Run one workload, print its report, and return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        run = spawn(args, "trace", deadline)
        setups = [run]
        attempted, failed = run["attempted"], run["failed"]
        metrics = {name: (value, _unit(name)) for name, value in run["per_layer"].items()}
        notes = {}
        print("# self-time split of traced items:")
        for label, share in run["self_split"].items():
            print(f"#   {share:7.2%}  {label}")
        print(f"# spans written to {run['spans_file']}")
    else:
        run, setups, metrics, notes, worst = end_to_end(args, deadline)
        attempted, failed = len(run["latencies"]), run["failed"]
        for name, value in worst.items():
            print(f"# worst {name} = {value:.3e}")
    print(f"# env {json.dumps(run['env'])}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_fraction = {failed / attempted:.6g}  ({failed}/{attempted} items)")
    errors = set(run["errors"]) | {s["warmup_error"] for s in setups if s.get("warmup_error")}
    for error in sorted(errors):
        print(f"# error: {error}")
    return {
        "correct": failed == 0 and all(s["warmup_ok"] for s in setups),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "swirl" / "__init__.py").is_file():
        print(f"error: no swirl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    results = {name: run_workload(argparse.Namespace(**{**vars(args), "workload": name})) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def _unit(name: str) -> str:
    suffix = name.rpartition(".")[2]
    return {
        "self_s": "s", "pair_s": "s", "calls": "count", "misses": "count", "bytes": "B",
        "flops_computed": "flop", "bytes_computed": "B", "max_rel": "ratio", "overhead_frac": "ratio",
    }[suffix]


if __name__ == "__main__":
    sys.exit(main())
