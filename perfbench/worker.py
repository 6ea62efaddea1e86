"""One benchmark process: set up one workload, warm it up, run its items.

run.py starts this script in a fresh interpreter with the BLAS and OpenMP
thread variables already pinned, so they take effect before NumPy loads and
no workload inherits another's cached tables.  It imports swirl from the
``src`` directory of the checkout it sits in, never from elsewhere.

Modes:
  setup  set up and warm up, then stop (a set-up time sample);
  run    set up, warm up, then a closed loop of timed items;
  trace  set up, warm up, an untraced closed loop, then a traced one.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_swirl():
    sys.path.insert(0, str(SRC))
    import swirl

    if Path(swirl.__file__).resolve().parent != SRC / "swirl":
        raise SystemExit(f"swirl was imported from {swirl.__file__}, not from {SRC}")


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "swirl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run_item(workload, index, recorder=None):
    """(latency, ok, detail) of one item; an exception, MemoryError included, fails the item.

    A recorder records spans of the timed part only.
    """
    inputs = workload.prepare(index)
    if recorder is not None:
        recorder.start(index)
    start = time.perf_counter()
    try:
        output, detail = workload.run(inputs)
    except Exception as exc:  # the item fails; the run goes on
        return time.perf_counter() - start, False, {"error": repr(exc)}
    finally:
        if recorder is not None:
            recorder.stop()
    latency = time.perf_counter() - start
    try:
        ok, checked = workload.check(inputs, output)
    except Exception as exc:
        return latency, False, {"error": repr(exc)}
    return latency, ok, {**detail, **checked}


def closed_loop(workload, seconds, first_index, recorder=None):
    """Items back to back, one caller, until `seconds` of item time have passed."""
    items = []
    busy = 0.0
    index = first_index
    while busy < seconds:
        items.append(run_item(workload, index, recorder))
        busy += items[-1][0]
        index += 1
    return items


def summary(items) -> dict:
    return {
        "latencies": [latency for latency, _, _ in items],
        "failed": sum(not ok for _, ok, _ in items),
        "errors": sorted({d["error"] for _, ok, d in items if "error" in d}),
        "details": [{k: v for k, v in d.items() if k != "error"} for _, _, d in items],
    }


def per_layer(recorder, traced, untraced) -> dict:
    from spans import CALL_LABELS, SELF_LABELS
    from workloads import CELLS

    count = len(traced["latencies"])
    self_times = recorder.self_times()
    calls = recorder.calls()
    metrics = {f"{label}.self_s": self_times.get(label, 0.0) / count for label in SELF_LABELS}
    metrics.update({f"{label}.calls": calls.get(label, 0) / count for label in CALL_LABELS})
    metrics["wigner.compute_delta.misses"] = recorder.misses / count
    metrics["wigner.tables.bytes"] = recorder.cached_table_bytes()
    metrics["transforms.forward.flops_computed"] = recorder.flops_forward / count
    metrics["transforms.bytes_computed"] = recorder.bytes_moved / count
    for cell in CELLS:
        pairs = [d["pair_s"][cell] for d in untraced["details"] if "pair_s" in d]
        metrics[f"transforms.{cell}.pair_s"] = statistics.median(pairs) if pairs else 0.0
    cross = [d["cross_check_max_rel"] for s in (untraced, traced) for d in s["details"] if "cross_check_max_rel" in d]
    metrics["transforms.cross_check.max_rel"] = max(cross) if cross else 0.0
    rate_untraced = len(untraced["latencies"]) / sum(untraced["latencies"])
    rate_traced = count / sum(traced["latencies"])
    metrics["trace.overhead_frac"] = 1.0 - rate_traced / rate_untraced
    return metrics


def self_split(recorder, traced) -> dict:
    """Share of traced item time spent in each label's own code."""
    total = sum(traced["latencies"])
    split = {label: t / total for label, t in recorder.self_times().items()}
    split["(outside swirl calls)"] = 1.0 - recorder.top_level_time() / total
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    args = parser.parse_args(argv)

    _import_swirl()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    warmup = run_item(workload, 0)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "warmup_ok": warmup[1], "warmup_error": warmup[2].get("error")}
    if args.mode == "run":
        result.update(summary(closed_loop(workload, args.seconds, 1)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment(args)
    elif args.mode == "trace":
        from spans import Recorder

        untraced = summary(closed_loop(workload, args.seconds, 1))
        recorder = Recorder()
        recorder.install()
        try:
            traced = summary(closed_loop(workload, args.seconds, 1 + len(untraced["latencies"]), recorder))
        finally:
            recorder.restore()
        result["per_layer"] = per_layer(recorder, traced, untraced)
        result["self_split"] = self_split(recorder, traced)
        result["failed"] = untraced["failed"] + traced["failed"]
        result["attempted"] = len(untraced["latencies"]) + len(traced["latencies"])
        result["errors"] = sorted(set(untraced["errors"]) | set(traced["errors"]))
        result["env"] = environment(args)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
