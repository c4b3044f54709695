"""One cold-start workload run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE \
        --spawned T --workers W --workdir DIR --out FILE

MODE is `setup` (imports and input generation only), `run` (the measured
calls with tracing off, then the checks) or `trace` (the same with the
module-boundary wrappers of tracer.py installed).  T is the parent's
`time.monotonic()` just before it started this process; set-up time runs
from there to the first measured call.  W is the Monte Carlo worker
count.  The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import regsob  # noqa: F401  (import cost belongs to set-up)
    from workloads import WORKLOADS, Ops

    wl = WORKLOADS[args.workload]
    state = wl.prepare(args.seed, args.workdir, args.workers)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        _write(args.out, result)
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = Ops()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    out = wl.measure(state, ops)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
    # ru_maxrss is in KiB on Linux; taken before the checks allocate
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = wl.check(state, out, ops)
    result.update(
        wall_s=wall,
        peak_rss_mb=peak_mb,
        user_s=ru1.ru_utime - ru0.ru_utime,
        sys_s=ru1.ru_stime - ru0.ru_stime,
        attempted=ops.attempted,
        failed=len(ops.failed),
        messages=ops.messages,
        quality=quality,
    )
    if tracer is not None:
        result["spans"] = tracer.span_records()
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
    _write(args.out, result)
    return 0


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
