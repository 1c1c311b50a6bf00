"""Run a set of seeds per workload and report each metric's spread.

    python3 perfbench/agree.py --seconds 15 --seeds 1-10 [--label NAME] [WORKLOAD ...]

For each workload and end-to-end metric this prints the median and the
spread, the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median, plus the failed share of ops, the op tails, the CPU time and the
rounds, all from the records ``run.py`` leaves in ``perfbench/out/``.
With ``--trace`` it runs the traced mode and reports the tracing overhead
against the untraced records of the same seeds.  Results also go to
``perfbench/out/agree-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, WORKLOADS

E2E = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def _pct(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--label", default="run")
    args = p.parse_args(argv)
    trace = int(args.trace)
    summary = {}
    for w in args.workloads:
        rows = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            rec = json.loads((OUT / f"{w}-seed{seed}-trace{trace}.json")
                             .read_text())
            rows.append((last, rec))
            print(w, seed, json.dumps({k: round(v["value"], 4)
                                       for k, v in last["metrics"].items()
                                       if k in E2E or k == "trace.wall_s"}),
                  flush=True)
        out = {"correct": all(r[0]["correct"] for r in rows),
               "failed_share": sorted({r[0]["failed"] / r[0]["attempted"]
                                       for r in rows})}
        names = E2E if not trace else ("trace.wall_s",)
        for name in names:
            vals = [r[0]["metrics"][name]["value"] for r in rows]
            out[name] = dict(zip(("median", "spread"), _spread(vals)))
        ops = [dt * 1e3 for r in rows for _k, dt in r[1]["op_times"]]
        out["ops"] = len(ops)
        out["op_p90_ms"] = _pct(ops, 0.9)
        out["op_p99_ms"] = _pct(ops, 0.99)
        out["cpu_per_round_s"] = statistics.median(
            r[1]["cpu_s"] / len(r[1]["round_walls"]) for r in rows)
        out["rounds"] = sorted({len(r[1]["round_walls"]) for r in rows})
        if trace:
            untraced = []
            for seed in _seeds(args.seeds):
                path = OUT / f"{w}-seed{seed}-trace0.json"
                if path.exists():
                    untraced.append(json.loads(path.read_text())
                                    ["metrics"]["wall_s"]["value"])
            if untraced:
                out["overhead_s"] = (out["trace.wall_s"]["median"]
                                     - statistics.median(untraced))
        summary[w] = out
        print(w, json.dumps(out), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"agree-{args.label}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
