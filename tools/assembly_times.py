"""Print the seconds of each family of one operator build.

    python3 tools/assembly_times.py [--n 4] [--N 32] [--weight none]
                                    [--repeat 1] [--against OTHER] [CHECKOUT]

imports `regsob` from CHECKOUT/src (default: this script's checkout),
builds the kernel table for make_grid(n, 20, N, N, (2, 2)) and sigma 0.75
(the curvature table for --weight gamma0, else the energy table) and times
one `AssembledForm` family by family:

- box_moments, near_fine, mid_ring, exterior: the family's own function;
- far_kernel_M: the constructor with the box moments, the fine near forms
  and the mid ring taken from the runs above, so what is left is the far
  kernel M (with the node rule and the kernel-table gather);
- H_assembly: the first read of H with the exterior forms taken from the
  run above, so what is left is the assembly of H from the families;
- near_coarse: the first read of L_coarse;
- build: the constructor, H and L_coarse as a caller builds them;
- build_peak_mb: the peak RSS (ru_maxrss, Linux) of a fresh interpreter
  that builds only the kernel table, the form, H and L_coarse, on the pool;
- kernel_ns: nanoseconds per point of `kernel_values` at n = 3 and n = 4
  (the kernel order of --weight) on the inputs of the first kernel call of
  the mid ring and of the exterior forms on make_grid(n, 20, N, N, (2, 2)),
  un-broadcast as those families pass them.

Each figure is the least of --repeat runs, once with one worker and once on
the pool (one worker per CPU in the affinity mask); kernel_ns runs on the
calling thread, and its least is taken over one more call than --repeat,
as the first fills the Gauss rule caches.  --weight is none,
gamma0 or power:GAMMA.  BLAS runs on one thread unless the environment sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.  Prints one JSON
object.

With --against OTHER it times OTHER and CHECKOUT in --repeat rounds of one
run of each, each run in a fresh interpreter and the side that runs first
alternating, and prints each family's least seconds on both side by side
with the relative change, and each side's least build_peak_mb and
kernel_ns, so that before and after come from one command on a shared,
noisy machine.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from unittest import mock

import numpy as np

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


_SIGMA = 0.75


def _setup(args):
    """regsob's energy module from args.checkout, the grid of one build and
    a function that builds its kernel table."""
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    from regsob import energy
    from regsob.field import make_grid
    from regsob.kernel import build_kernel_table

    grid = make_grid(args.n, 20.0, args.N, args.N, (2.0, 2.0))
    return energy, grid, lambda: build_kernel_table(grid, _order(args)(args.n, _SIGMA))


def _order(args):
    from regsob.kernel import KernelParams

    return KernelParams.curvature if args.weight == "gamma0" else KernelParams.energy


def _peak(args):
    """Build the table, the form, H and L_coarse and print ru_maxrss in MB."""
    energy, grid, make_table = _setup(args)
    form = energy.AssembledForm(grid, make_table(), _SIGMA, _weight(args.weight))
    _ = form.H, form.L_coarse
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def _build_peak_mb(args):
    """_peak run in a fresh interpreter, so that no other build sets the peak."""
    tools = os.path.dirname(os.path.abspath(__file__))
    code = (f"import sys; sys.path.insert(0, {tools!r}); "
            "import assembly_times as a; a._peak(a.parse(sys.argv[1:]))")
    cmd = [sys.executable, "-c", code, args.checkout,
           "--n", str(args.n), "--N", str(args.N), "--weight", args.weight]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return round(float(out), 1)


def _weight(text):
    if text.startswith("power:"):
        return ("power", float(text.split(":", 1)[1]))
    return text


def _best(fn, repeat):
    """(least wall seconds of repeat calls of fn, the last result)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _families(energy, grid, table, sigma, weight, repeat):
    """Seconds of each family of one build on the current worker count."""
    params = table.params
    wfn = energy._weight(weight)[1]
    sec = {}
    sec["box_moments"], moments = _best(
        lambda: energy._box_moments(grid, sigma), repeat
    )

    def near(orders):
        _, ga, _, blocks = energy._near_local_forms(grid, params, sigma, wfn, orders)
        return energy._sum_blocks(ga.size, blocks, energy._run([f for _, f in blocks]))

    sec["near_fine"], L = _best(lambda: near(energy._FINE_ORDERS), repeat)
    sec["mid_ring"], mid = _best(
        lambda: energy._mid_pair_forms(grid, params, sigma, wfn), repeat
    )

    sec["exterior"], ext = _best(
        lambda: energy._exterior_forms(grid, params, sigma, wfn), repeat
    )

    def run(fns):
        # the constructor's one _run: the mid ring, and no near-form parts,
        # since _sum_blocks gives the fine near forms from above
        return [mid] + [None] * (len(fns) - 1)

    with mock.patch.object(energy, "_box_moments", lambda *a: moments), \
            mock.patch.object(energy, "_run", run), \
            mock.patch.object(energy, "_sum_blocks", lambda *a: L):
        sec["far_kernel_M"], form = _best(
            lambda: energy.AssembledForm(grid, table, sigma, weight), repeat
        )

    def read(name):
        vars(form).pop(name, None)
        return getattr(form, name)

    with mock.patch.object(energy, "_exterior_forms", lambda *a: ext):
        sec["H_assembly"], _ = _best(lambda: read("H"), repeat)
    sec["near_coarse"], _ = _best(lambda: read("L_coarse"), repeat)

    def build():
        f = energy.AssembledForm(grid, table, sigma, weight)
        return f.H, f.L_coarse

    sec["build"], _ = _best(build, repeat)
    return {k: round(v, 4) for k, v in sec.items()}


class _Captured(Exception):
    """Raised by _first_call's stand-in kernel once it holds a call's inputs."""


def _first_call(energy, family, grid, params):
    """The inputs (r, s, t) of the first kernel_values call of family, which
    stops there; one worker, so the first call is the first task's."""
    seen = []

    def record(r, s, t, params):
        seen.append((r, s, t))
        raise _Captured

    with mock.patch.object(energy, "kernel_values", record), \
            mock.patch.object(energy, "_cpu_count", lambda: 1):
        try:
            family(grid, params, _SIGMA, None)
        except _Captured:
            pass
    return seen[0]


def _kernel_ns(energy, args):
    """kernel_values nanoseconds per point at n = 3 and 4 on the first call
    inputs of the mid ring and of the exterior forms."""
    from regsob.field import make_grid

    out = {}
    for n in (3, 4):
        grid = make_grid(n, 20.0, args.N, args.N, (2.0, 2.0))
        params = _order(args)(n, _SIGMA)
        for name, family in (("mid_ring", energy._mid_pair_forms),
                             ("exterior", energy._exterior_forms)):
            r, s, t = _first_call(energy, family, grid, params)
            sec, _ = _best(lambda: energy.kernel_values(r, s, t, params),
                           args.repeat + 1)
            out[f"n{n}_{name}"] = round(1e9 * sec / np.broadcast(r, s, t).size, 1)
    return out


def _against(args):
    """One run of each checkout per round, the first side alternating; print
    the least seconds of each family on both, side by side."""
    sides = [("against", args.against), ("this", args.checkout)]
    best, peak = {}, {}
    for k in range(args.repeat):
        for side, checkout in sides[:: 1 if k % 2 == 0 else -1]:
            cmd = [sys.executable, os.path.abspath(__file__), checkout,
                   "--n", str(args.n), "--N", str(args.N), "--weight", args.weight]
            out = json.loads(subprocess.run(
                cmd, check=True, capture_output=True, text=True).stdout)
            for label in ("one_worker", "pool", "kernel_ns"):
                for family, sec in out[label].items():
                    key = (label, family, side)
                    best[key] = min(best.get(key, float("inf")), sec)
            peak[side] = min(peak.get(side, float("inf")), out["build_peak_mb"])
    print(f"n={args.n} N={args.N} weight={args.weight}, least of {args.repeat} "
          "alternating rounds (s; kernel_ns in ns per point)")
    print(f"{'':11} {'family':13} {'against':>9} {'this':>9} {'change':>8}")
    for label, family, side in best:
        if side == "this":
            a, b = best[label, family, "against"], best[label, family, "this"]
            change = f"{100 * (b - a) / a:+.0f}%" if a > 0 else ""
            print(f"{label:11} {family:13} {a:9.4f} {b:9.4f} {change:>8}")
    a, b = peak["against"], peak["this"]
    print(f"{'':11} {'build_peak_mb':13} {a:9.1f} {b:9.1f} {100 * (b - a) / a:+7.0f}%")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--N", type=int, default=32)
    ap.add_argument("--weight", default="none")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--against", metavar="OTHER")
    return ap.parse_args(argv)


def main(argv):
    args = parse(argv)
    if args.against:
        return _against(args)
    # first: a child's ru_maxrss starts at the RSS its parent has at the spawn
    peak = _build_peak_mb(args)
    energy, grid, make_table = _setup(args)
    weight = _weight(args.weight)
    t0 = time.perf_counter()
    table = make_table()
    out = dict(
        n=args.n,
        N=args.N,
        weight=args.weight,
        cpus=energy._cpu_count(),
        kernel_table=round(time.perf_counter() - t0, 4),
    )
    pool_workers = energy._cpu_count()
    for label, workers in (("one_worker", 1), ("pool", pool_workers)):
        with mock.patch.object(energy, "_cpu_count", lambda w=workers: w):
            out[label] = _families(energy, grid, table, _SIGMA, weight, args.repeat)
    out["build_peak_mb"] = peak
    out["kernel_ns"] = _kernel_ns(energy, args)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
