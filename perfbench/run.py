"""The regsob benchmark: cold-start workload runs with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --check-counts

Run from the root of a source checkout (the directory holding `src/regsob`).
Every measured run is a fresh child interpreter (perfbench/child.py), so it
pays what a CLI user pays: imports, kernel tables and operator assembly.
REGSOB_CACHE_DIR is unset and nothing is kept between runs.  One caller,
closed loop: the next call starts when the previous one returns.

Set-up runs SETUP_REPEATS extra children that stop after the inputs are
built; `setup_s` is the median over those and the measured children.
Measured children are started until their measured time reaches --seconds
(at least one).  With --trace 1 one more child runs with the module
wrappers of tracer.py, and the per-module metrics come from it; its wall
time over the untraced median, minus 1, is `trace.overhead_frac`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Failed checks are printed above it
with their values.  The full record (environment, every child, the spans
of a traced run) goes to .perfbench_out/.

--check-counts runs the traced child twice at the same seed and confirms
that the exact counts in EXACT_COUNTS repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1
MC_WORKERS = min(2, os.cpu_count() or 1)
COLD_START = (
    "fresh interpreter per measured run; REGSOB_CACHE_DIR unset; "
    "no warm cache between runs"
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_err": "ratio",
}

EXACT_COUNTS = (
    "minimize.iterations",
    "energy.assemble.builds",
    "kernel.kernel_values.points",
    "expansion.mc.samples",
    "io_container.write.bytes",
)


def _layer(L, name):
    return L.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer_metrics(L, q):
    """Per-module metrics from the traced child's span aggregates `L` and
    its result-quality numbers `q`.  Returns {name: (value, unit)}."""
    g = lambda name: _layer(L, name)  # noqa: E731
    kv, build, asm = g("kernel.kernel_values"), g("energy.build"), g("energy.assemble")
    ver = g("expansion.verify_upper_bound")
    ced, ct = g("expansion.cutoff_energy_deficit"), g("expansion.curvature_term")
    wr, rd = g("io_container.write"), g("io_container.read")
    m = {
        "kernel.kernel_values.points": (kv["count"], "count"),
        "kernel.kernel_values.self_s": (kv["self_s"], "s"),
        "kernel.kernel_values.us_per_point": (_per(kv["self_s"], kv["count"], 1e6), "us"),
        "kernel.build_kernel_table.calls": (g("kernel.build_kernel_table")["calls"], "count"),
        "kernel.build_kernel_table.self_s": (g("kernel.build_kernel_table")["self_s"], "s"),
    }
    for f in ("energy", "grad", "bilinear", "lp_norm"):
        s = g("energy." + f)
        m[f"energy.{f}.calls"] = (s["calls"], "count")
        m[f"energy.{f}.ms_per_call"] = (_per(s["total_s"], s["calls"], 1e3), "ms")
    m.update(
        {
            "energy.assemble.calls": (asm["calls"], "count"),
            "energy.assemble.builds": (build["calls"], "count"),
            "energy.assemble.hit_ratio": (
                1.0 - _per(build["calls"], asm["calls"]) if asm["calls"] else 0.0,
                "ratio",
            ),
            # constructor time minus its kernel_values children
            "energy.assemble.self_s": (build["self_s"], "s"),
            "energy.seminorm.self_s": (g("energy.seminorm")["self_s"], "s"),
            "energy.weighted_seminorm.self_s": (g("energy.weighted_seminorm")["self_s"], "s"),
            "energy.el_residual.total_s": (g("energy.el_residual")["total_s"], "s"),
            "rearrange.rearrange_sharp.calls": (g("rearrange.rearrange_sharp")["calls"], "count"),
            "rearrange.rearrange_sharp.self_s": (g("rearrange.rearrange_sharp")["self_s"], "s"),
            "minimize.iterations": (q.get("iterations", 0), "count"),
            "minimize.converged": (int(bool(q.get("converged", False))), "count"),
            "minimize.s_estimate": (q.get("s_estimate", 0.0), "1"),
            "minimize.solve_halfspace.self_s": (g("minimize.solve_halfspace")["self_s"], "s"),
            "gamma0.estimate_gamma0.self_s": (g("gamma0.estimate_gamma0")["self_s"], "s"),
            "gamma0.tail_bound.total_s": (g("gamma0.tail_bound")["total_s"], "s"),
            "gamma0.rel_budget": (q.get("rel_budget", 0.0), "ratio"),
            "expansion.mc.samples": (ver["count"], "count"),
            # the self time of verify_upper_bound
            "expansion.mc.self_s": (ver["self_s"], "s"),
            # samples over the sampler phase: verify_upper_bound minus its
            # cutoff-deficit and curvature-term children
            "expansion.mc.samples_per_s": (
                _per(ver["count"], ver["total_s"] - ced["total_s"] - ct["total_s"]),
                "1/s",
            ),
            "expansion.mc.rel_stderr": (q.get("rel_stderr", 0.0), "ratio"),
            "expansion.cutoff_energy_deficit.total_s": (ced["total_s"], "s"),
            "expansion.curvature_term.total_s": (ct["total_s"], "s"),
            "field.eval_u.calls": (g("field.eval_u")["calls"], "count"),
            "field.eval_u.self_s": (g("field.eval_u")["self_s"], "s"),
            "field.resample.self_s": (g("field.resample")["self_s"], "s"),
            "field.dilate_exact.calls": (g("field.dilate_exact")["calls"], "count"),
            "io_container.write.bytes": (wr["count"], "count"),
            "io_container.write.mb_per_s": (_per(wr["count"], wr["total_s"], 1e-6), "MB/s"),
            "io_container.read.bytes": (rd["count"], "count"),
            "io_container.read.mb_per_s": (_per(rd["count"], rd["total_s"], 1e-6), "MB/s"),
            "cli.main.total_s": (g("cli.main")["total_s"], "s"),
            # manifest writing and sha256 of the outputs
            "cli.main.self_s": (g("cli.main")["self_s"], "s"),
        }
    )
    return m


def child_env(root):
    env = dict(os.environ)
    env.pop("REGSOB_CACHE_DIR", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_steal_s():
    """Host steal time of this machine so far, from /proc/stat (None where
    it cannot be read)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_child(root, workdir, workload, seed, mode, tag):
    out = os.path.join(workdir, f"{tag}.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workers", str(MC_WORKERS),
        "--workdir", workdir,
        "--out", out,
    ]
    steal0 = cpu_steal_s()
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} child timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(
            f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    with open(out) as fh:
        res = json.load(fh)
    res["elapsed_s"] = time.monotonic() - spawned
    steal1 = cpu_steal_s()
    res["cpu_steal_s"] = None if steal0 is None else steal1 - steal0
    return res


def environment(root):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    commit = None  # a checkout without .git is identified by src_sha256
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "mc_workers": MC_WORKERS,
        "cold_start": COLD_START,
        "machine": platform.machine(),
    }


def check_counts(root, out_dir, workdir, workload, seed):
    runs = [
        run_child(root, workdir, workload, seed, "trace", f"count{k}")
        for k in range(2)
    ]
    vals = [per_layer_metrics(r["layers"], r["quality"]) for r in runs]
    counts = {name: [v[name][0] for v in vals] for name in EXACT_COUNTS}
    for name, (a, b) in counts.items():
        print(f"{name}: {a} / {b} {'repeats' if a == b else 'DIFFERS'}")
    ok = all(a == b for a, b in counts.values())
    with open(os.path.join(out_dir, f"counts-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "counts": counts, "repeat": ok}, fh)
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-counts", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "regsob", "__init__.py")):
        print(
            "perfbench: no regsob source under ./src; run from a source checkout",
            file=sys.stderr,
        )
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.check_counts:
            ok = check_counts(root, out_dir, workdir, args.workload, args.seed)
            return 0 if ok else 1
        return bench(root, out_dir, workdir, args)
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(root, out_dir, workdir, args):
    wl, seed = args.workload, args.seed
    load_before = os.getloadavg()
    setups = [
        run_child(root, workdir, wl, seed, "setup", f"setup{k}")["setup_s"]
        for k in range(SETUP_REPEATS)
    ]
    runs, measured, t_start = [], 0.0, time.monotonic()
    while not runs or measured < args.seconds:
        # keep the whole run well inside its time limit
        if runs and time.monotonic() - t_start + runs[-1]["elapsed_s"] > 120.0:
            break
        r = run_child(root, workdir, wl, seed, "run", f"run{len(runs)}")
        runs.append(r)
        measured += r["wall_s"]
    traced = run_child(root, workdir, wl, seed, "trace", "trace") if args.trace else None
    load_after = os.getloadavg()

    children = runs + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for msg in c["messages"]:
            print(msg)
    wall = statistics.median(r["wall_s"] for r in runs)
    # a run whose calls failed has no result error; it reads 0 and the
    # run is reported incorrect
    errs = [r["quality"]["result_err"] for r in runs if "result_err" in r["quality"]]
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "result_err": statistics.median(errs) if errs else 0.0,
    }
    if traced:
        layer = per_layer_metrics(traced["layers"], traced["quality"])
        layer["trace.overhead_frac"] = (traced["wall_s"] / wall - 1.0, "ratio")
        layer["failed_frac"] = (failed / attempted, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for name in traced["missing"]:
            print(f"missing: wrapped name {name} not found; its metrics read 0")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    record = {
        "workload": wl,
        "why": WORKLOADS[wl].why,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "load_before": load_before,
        "load_after": load_after,
        "samples": {"setup": len(setups) + len(runs), "measured": len(runs)},
        "end_to_end": e2e,
        "metrics": metrics,
        "children": [
            {k: v for k, v in c.items() if k not in ("spans", "layers")}
            for c in children
        ],
    }
    tag = f"{wl}-seed{seed}-trace{args.trace}"
    if traced:
        record["layers"] = traced["layers"]
        with open(os.path.join(out_dir, f"spans-{tag}.json"), "w") as fh:
            json.dump(traced["spans"], fh)
    with open(os.path.join(out_dir, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for k, u in END_TO_END.items():
        print(f"{wl} {k} = {e2e[k]:.6g} {u}")
    print(
        f"{wl} environment: "
        + json.dumps({**record["environment"], "load_before": load_before, "load_after": load_after})
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
