"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``strata`` from the source tree of this checkout,
each workload in its own worker process (BLAS and ``strata`` held to one
thread).  Untraced runs first time set-up in ``SETUP_REPEATS - 1`` fresh
processes that stop when ready, then run the workload for ``S`` seconds in
another, and print the end-to-end metrics.  Traced runs print the
per-layer metrics instead.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record (op times, CPU time, round walls) goes to
``perfbench/out/``, and traced runs write their spans there too.
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

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify_all", "cusp_moments", "special_coeffs",
             "adjoint_pointwise")
SETUP_REPEATS = 4
BUDGET_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("STRATA_THREADS", None)          # serial suites
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return its spawn time and its parsed result."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "strata" / "__init__.py").is_file():
        print(f"no strata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                t0, res = _run_worker(common + ["--setup-only"], deadline)
                setups.append(res["ready"] - t0)
        extra = ["--trace-out", str(OUT / f"{tag}.spans.npz")] if args.trace \
            else []
        t0, res = _run_worker(common + extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["ready"] - t0)

    ok_times = [dt for _kind, dt in res["op_times"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in res["trace"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["round_walls"]),
                       "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(ok_times),
                          "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for msg in res["failures"] + res["errors"]:
        print(msg, file=sys.stderr)
    record = dict(res, setups=setups, metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    return {n: u for n, u, _better in layer_metrics()}[name]


if __name__ == "__main__":
    sys.exit(main())
