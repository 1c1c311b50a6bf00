"""Paired benchmark runs of a base commit against this checkout.

    python3 bench/pair.py --base REV --out BENCH_<n>.json

Exports ``REV`` with ``git archive`` into one temporary directory and
copies the working tree of this checkout (its tracked files and its
untracked files that git does not ignore, as they are on disk) into
another, so both sides run from fresh trees that hold no earlier run's
output; both are removed afterwards.  It runs each tree's own, unchanged
``perfbench/run.py`` on every workload of ``BENCHMARK.json`` for ``PAIRS``
pairs: pair ``i`` uses seed ``FIRST_SEED + i`` on both sides, and the side
that runs first alternates from pair to pair, so a bias from run order
shows in the medians split by order.  The count and the seeds are fixed,
so every BENCH file compares the same runs.  ``head`` and ``dirty`` in the
output say what the copied working tree held.

The output holds the machine, the versions, both commits and every run.  For
each workload it holds each side's attempted and failed op counts and its
incorrect runs (a run that exits non-zero counts as incorrect).  For each
workload and side it holds the median time of each op kind, pooled over
the op times (``(kind, seconds)`` pairs) that each run's
``perfbench/out/<workload>-seed<N>-trace0.json`` records, so it shows which
op moved a median.  For each workload and end-to-end metric of
``BENCHMARK.json`` it holds each side's median and quartiles, the number of pairs the change won (ties count for
neither side) and lost, the medians split by which side ran first, the
relative change of the median (positive is worse) and a ``verdict``:

* ``gain``: the change won at least nine tenths of the pairs run and its
  median is better than the base median by more than the base's
  interquartile range;
* ``regression``: the median is worse by more than the metric's bound;
* ``unresolved``: the base's interquartile range is wider than the bound,
  relative to its median, and not every change run beats every base run;
* ``no_regression``: otherwise.

It is rewritten after every pair, so an interrupted session keeps its pairs.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
PAIRS = 10
FIRST_SEED = 1000


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """Unpack the committed tree of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    # the extraction filter exists from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **safe)


def _copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked files and its untracked files that
    git does not ignore into ``dest``, as they are on disk; a tracked file
    deleted from the working tree is left out."""
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard")
    for name in filter(None, names.split("\0")):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _versions() -> dict:
    """Interpreter and numerical-library versions the runs import."""
    probe = ("import json, numpy, scipy, mpmath; print(json.dumps("
             "{'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'mpmath': mpmath.__version__}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    return {"python": platform.python_version(), **json.loads(out)}


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``: its result line,
    or ``{"error": ...}`` when it exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def _op_times(tree: Path, workload: str, seed: int) -> list:
    """The ``(kind, seconds)`` op times that the run of ``workload`` at
    ``seed`` left in ``tree``; none if its record is missing or unreadable."""
    path = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    try:
        return json.loads(path.read_text())["op_times"]
    except (OSError, ValueError, KeyError):
        return []


def op_kind_medians(runs: list[list]) -> dict:
    """Median time in ms of each op kind, pooled over the ``(kind,
    seconds)`` op times of ``runs``."""
    by_kind: dict[str, list[float]] = {}
    for times in runs:
        for kind, seconds in times:
            by_kind.setdefault(kind, []).append(seconds)
    return {kind: 1e3 * statistics.median(v)
            for kind, v in sorted(by_kind.items())}


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict], metric: str, better: str,
              bound: float) -> dict:
    """Paired summary of one metric over ``pairs`` (each ``{"first", "base",
    "change"}`` with run results) with its verdict against ``bound``, the
    relative worsening the metric allows.  Pairs where a side failed are
    left out of the spreads, but count as run for a gain."""
    sign = 1.0 if better == "lower" else -1.0
    done = [p for p in pairs
            if all(metric in p[s].get("metrics", {}) for s in SIDES)]
    vals = {s: [p[s]["metrics"][metric] for p in done] for s in SIDES}
    diffs = [sign * (c - b) for b, c in zip(vals["base"], vals["change"])]
    out = {s: _spread(vals[s]) for s in SIDES}
    out["pairs"] = len(done)
    out["change_wins"] = sum(d < 0 for d in diffs)
    out["change_losses"] = sum(d > 0 for d in diffs)
    out["by_order"] = {
        f"{first}_first": {s: _spread([p[s]["metrics"][metric] for p in done
                                       if p["first"] == first])["median"]
                           for s in SIDES}
        for first in SIDES}
    b, c = out["base"]["median"], out["change"]["median"]
    out["median_worse_by"] = sign * (c - b) / b if done and b else None
    out["base_iqr"] = out["base"]["q3"] - out["base"]["q1"] if done else None
    out["verdict"] = "unresolved"
    if out["median_worse_by"] is not None:
        # every change run better than every base run
        apart = (max(sign * v for v in vals["change"])
                 < min(sign * v for v in vals["base"]))
        if (10 * out["change_wins"] >= 9 * len(pairs)
                and sign * (c - b) < -out["base_iqr"]):
            out["verdict"] = "gain"
        elif out["median_worse_by"] > bound:
            out["verdict"] = "regression"
        elif out["base_iqr"] <= bound * abs(b) or apart:
            out["verdict"] = "no_regression"
    return out


def _ops(runs: list[dict]) -> dict:
    """Attempted and failed op counts over ``runs``, and the runs that were
    not correct (an exited run included)."""
    return {"attempted": sum(r.get("attempted", 0) for r in runs),
            "failed": sum(r.get("failed", 0) for r in runs),
            "incorrect_runs": sum(not r.get("correct", False) for r in runs)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare")
    p.add_argument("--out", required=True, help="BENCH file to write")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "base": _git("rev-parse", args.base),
        "head": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(), "cpus": os.cpu_count()},
        "versions": _versions(),
        "run_seconds": seconds,
        "seeds": [FIRST_SEED + i for i in range(PAIRS)],
        "workloads": {},
    }
    out = Path(args.out)
    with (tempfile.TemporaryDirectory(prefix="bench-base-") as base,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change):
        _export(record["base"], Path(base))
        _copy_worktree(Path(change))
        trees = {"base": Path(base), "change": Path(change)}
        for w in (wl["name"] for wl in spec["workloads"]):
            pairs = []
            times = {s: [] for s in SIDES}
            entry = record["workloads"][w] = {"pairs": pairs, "ops": {},
                                              "op_kind_ms": {}, "metrics": {}}
            for i, seed in enumerate(record["seeds"]):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], w, seed, seconds)
                    if "error" not in pair[side]:
                        times[side].append(_op_times(trees[side], w, seed))
                pairs.append(pair)
                entry["ops"] = {s: _ops([p[s] for p in pairs]) for s in SIDES}
                entry["op_kind_ms"] = {s: op_kind_medians(times[s])
                                       for s in SIDES}
                for m in spec["end_to_end"]:
                    entry["metrics"][m["name"]] = {
                        "unit": m["unit"], "better": m["better"],
                        "bound": m["bound"],
                        **summarize(pairs, m["name"], m["better"],
                                    m["bound"])}
                out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{s} {pair[s].get('metrics', pair[s])}"
                    for s in SIDES), file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
