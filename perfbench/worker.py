"""One workload in one process: set-up, timed rounds, then checks.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--setup-only`` stops after set-up and reports when it was ready, so the
caller can time set-up several times from fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default="")
    return p.parse_args(argv)


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import strata
    if Path(strata.__file__).resolve().parent != ROOT / "src" / "strata":
        print(f"imported strata from {strata.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, warm_up

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    warm_up()
    ops = workload.ops()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    op_times: list[tuple[str, float]] = []
    outputs: list[tuple[int, object]] = []
    round_walls: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    if tracer:
        tracer.install()
        tracer.active = True
    cpu0 = _cpu()
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            attempted += 1
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:
                if op.expect is not None and isinstance(exc, op.expect):
                    continue
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.kind}: {traceback.format_exc()}")
                continue
            dt = time.perf_counter() - t
            if op.expect is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.kind}: returned {out!r}, expected "
                                  f"{op.expect.__name__}")
                continue
            op_times.append((op.kind, dt))
            outputs.append((i, out))
        round_walls.append(time.perf_counter() - t_round)
        if time.perf_counter() - start >= args.seconds:
            break
    cpu_s = _cpu() - cpu0
    if tracer:
        tracer.active = False
        tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: list[str] = []
    for i, out in outputs:
        failures += [f"{ops[i].kind}: {msg}" for msg in ops[i].check(out)]

    result = {
        "ready": ready,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "errors": errors,
        "round_walls": round_walls,
        "op_times": op_times,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["trace"] = tracer.metrics(round_walls)
        result["spans"] = len(tracer.start)
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
