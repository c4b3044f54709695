"""Print the seconds of each family of one operator build.

    python3 tools/assembly_times.py [--n 4] [--N 32] [--weight none]
                                    [--repeat 1] [CHECKOUT]

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
- build: the constructor, H and L_coarse as a caller builds them.

Each figure is the least of --repeat runs, once with one worker and once on
the pool (one worker per CPU in the affinity mask).  --weight is none,
gamma0 or power:GAMMA.  BLAS runs on one thread unless the environment sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.  Prints one JSON
object.
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


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
        return energy._sum_blocks(ga.size, blocks)[0]

    sec["near_fine"], L = _best(lambda: near(energy._FINE_ORDERS), repeat)
    sec["mid_ring"], mid = _best(
        lambda: energy._mid_pair_forms(grid, params, sigma, wfn), repeat
    )

    def exterior():
        workers = energy._cpu_count()
        if workers == 1:
            return energy._exterior_forms(grid, params, sigma, wfn)
        with ThreadPoolExecutor(workers) as pool:
            return energy._exterior_forms(grid, params, sigma, wfn, pool)

    sec["exterior"], ext = _best(exterior, repeat)

    with mock.patch.object(energy, "_box_moments", lambda *a: moments), \
            mock.patch.object(energy, "_sum_blocks", lambda *a, **k: [L]), \
            mock.patch.object(energy, "_mid_pair_forms", lambda *a: mid):
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


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", nargs="?", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--N", type=int, default=32)
    ap.add_argument("--weight", default="none")
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    from regsob import energy
    from regsob.field import make_grid
    from regsob.kernel import KernelParams, build_kernel_table

    sigma = 0.75
    weight = _weight(args.weight)
    grid = make_grid(args.n, 20.0, args.N, args.N, (2.0, 2.0))
    order = KernelParams.curvature if weight == "gamma0" else KernelParams.energy
    t0 = time.perf_counter()
    table = build_kernel_table(grid, order(args.n, sigma))
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
            out[label] = _families(energy, grid, table, sigma, weight, args.repeat)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
