"""The four benchmark workloads: seeded inputs, measured calls, checks.

Each workload has three steps.  `prepare(seed, workdir)` builds the inputs
from the seed and is part of set-up.  `measure(state, ops)` makes the timed
top-level library calls, each through `ops.call`.  `check(state, out, ops)`
runs after the clock stops; it marks operations failed and returns the
result-quality numbers the user would see.

An operation is one top-level public call (one verdict per lambda per graph
for `verify_upper_bound`).  It fails if it raises or if a check on its
output fails.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

SIGMA = 0.75
R_MAX = 20.0
NOISE = 0.05
S_FULL_SPACE = 126.877  # full-space Sobolev constant at n=4, sigma=0.75
VERIFY_LAMS = {"flat": (2.5, 5.0, 10.0), "cap": (2.5, 5.0)}
# Lambda 10 is left off the cap: there the sampler's relative stderr is
# heavy tailed across seeds (above MCConfig.max_rel_stderr = 0.05 on 3 of
# 60 seeds at 16 x 150000 samples, one of them 0.61), so
# `verify_upper_bound` raises MonteCarloVarianceTooHigh on some seeds.  At
# lambda 5 the worst of 140 seeds (those 60, and 80 more at 16 x 200000
# samples) was 0.0072.

# what `regsob verify --gamma0` reads: fixed, so the verdicts depend on the
# seed only through theta and the sampler
GAMMA0_JSON = {
    "value": 4.729,
    "grid_extrapolation_error": 0.02,
    "truncation_tail_bound": 0.05,
    "lambda_schedule": [6.0, 9.0, 13.0, 19.0],
    "sign_verdict": "positive",
    "theta_provenance": "fixed benchmark input",
}


class Ops:
    """Counts attempted top-level operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.messages = []

    def call(self, labels, fn, *args, **kw):
        """Run one call standing for the operations named in `labels`;
        returns None if it raised."""
        labels = (labels,) if isinstance(labels, str) else tuple(labels)
        self.attempted += len(labels)
        try:
            return fn(*args, **kw)
        except Exception as e:  # a raising call is a failed operation
            for label in labels:
                self.fail(label, f"raised {type(e).__name__}: {e}")
            return None

    def check(self, label, ok, detail):
        if not ok:
            self.fail(label, detail)

    def fail(self, label, detail):
        self.failed.add(label)
        self.messages.append(f"FAILED {label}: {detail}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: object
    measure: object
    check: object


def seeded_theta(n, N, seed, tail=True):
    """Interior-bubble field with multiplicative noise from the seed; with
    `tail`, a fitted tail model and unit critical norm."""
    from regsob import attach_tail_model, critical_p, lp_norm, make_grid
    from regsob import synthesize_profile, TailModel

    grid = make_grid(n, R_MAX, N, N)
    fld = synthesize_profile("interior-bubble", grid, SIGMA)
    rng = np.random.default_rng(seed)
    bump = rng.uniform(-NOISE, NOISE, grid.shape)
    fld = fld.with_values(fld.regular_values * (1.0 + bump))
    if not tail:
        return fld
    fld = attach_tail_model(fld)
    m = lp_norm(fld, critical_p(n, SIGMA))
    t = TailModel(amplitude=fld.tail.amplitude / m, exponent=fld.tail.exponent)
    return fld.with_values(fld.regular_values / m, tail=t)


# -- solve --------------------------------------------------------------


def _solve_prepare(seed, workdir, workers):
    from regsob import SolverConfig

    cfg = SolverConfig(
        n=4,
        sigma=SIGMA,
        schedule=(16, 24),
        R_max=R_MAX,
        max_iters=100,
        init="interior-bubble",
        init_noise=NOISE,
        seed=seed,
    )
    return {"cfg": cfg}


def _solve_measure(state, ops):
    from regsob import solve_halfspace

    return {"res": ops.call("solve_halfspace", solve_halfspace, state["cfg"])}


def _solve_check(state, out, ops):
    res = out["res"]
    if res is None:
        return {}
    s, resid = res.s_estimate, res.el_residual
    label = "solve_halfspace"
    ops.check(
        label,
        math.isfinite(s) and s < S_FULL_SPACE,
        f"s_estimate {s!r} not finite or not below {S_FULL_SPACE}",
    )
    tol = state["cfg"].tol_residual
    ops.check(label, resid <= tol, f"el_residual {resid!r} > tol_residual {tol}")
    edges = list(res.trace_breaks) + [len(res.trace)]
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        rise = float(np.max(np.diff(res.trace[a:b]), initial=0.0))
        ops.check(label, rise <= 0.0, f"trace rises by {rise!r} in stage {k}")
    return {
        "result_err": resid,
        "s_estimate": s,
        "iterations": len(res.trace),
        "converged": res.converged,
    }


# -- gamma0 -------------------------------------------------------------


def _gamma0_prepare(seed, workdir, workers):
    return {"theta": seeded_theta(4, 20, seed)}


def _gamma0_measure(state, ops):
    from regsob import dilate_exact, estimate_gamma0

    theta = state["theta"]
    g = ops.call("estimate_gamma0", estimate_gamma0, theta)
    g2 = ops.call(
        "estimate_gamma0.dilated",
        lambda: estimate_gamma0(dilate_exact(theta, 2.0)),
    )
    return {"g": g, "g2": g2}


def _gamma0_check(state, out, ops):
    g, g2 = out["g"], out["g2"]
    if g is None or g2 is None:
        return {}
    ratio = g.value / g2.value
    for label in ("estimate_gamma0", "estimate_gamma0.dilated"):
        ops.check(
            label,
            abs(ratio - 2.0) <= 1e-9,
            f"Gamma0 dilation ratio {ratio!r}, expected 2",
        )
    rel = (g.grid_extrapolation_error + g.truncation_tail_bound) / abs(g.value)
    return {"result_err": rel, "rel_budget": rel}


# -- verify -------------------------------------------------------------


def _verify_prepare(seed, workdir, workers):
    from regsob import BoundaryGraph, Gamma0Report, MCConfig

    g = dict(GAMMA0_JSON)
    g["lambda_schedule"] = tuple(g["lambda_schedule"])
    return {
        "theta": seeded_theta(4, 16, seed),
        "gamma0": Gamma0Report(**g),
        "flat": BoundaryGraph(alpha=(0.0, 0.0, 0.0)),
        "cap": BoundaryGraph(alpha=(0.05, 0.05, 0.05)),
        "mc_flat": MCConfig(
            batches=2,
            samples_per_batch=2000,
            seed=seed,
            max_rel_stderr=1.0,
            workers=workers,
        ),
        "mc_cap": MCConfig(
            batches=16, samples_per_batch=200_000, seed=seed, workers=workers
        ),
    }


def _verify_measure(state, ops):
    from regsob import verify_upper_bound

    out = {}
    for graph in ("flat", "cap"):
        lams = VERIFY_LAMS[graph]
        labels = [f"verify.{graph}.lam={lam:g}" for lam in lams]
        out[graph] = ops.call(
            labels,
            verify_upper_bound,
            state["theta"],
            state["gamma0"],
            state[graph],
            lams,
            state["mc_" + graph],
        )
    return out


def _verify_check(state, out, ops):
    for v in out["flat"] or ():
        fe = v.term_breakdown["flat_energy"]
        ops.check(
            f"verify.flat.lam={v.lam:g}",
            v.measured_stderr == 0.0
            and abs(v.measured_quotient - fe) <= 1e-12 * abs(fe),
            f"flat verdict stderr {v.measured_stderr!r}, quotient "
            f"{v.measured_quotient!r} vs flat energy {fe!r}",
        )
    rel, err = [], []
    for v in out["cap"] or ():
        ops.check(
            f"verify.cap.lam={v.lam:g}",
            v.passed,
            f"cap verdict failed: measured {v.measured_quotient!r} bound "
            f"{v.predicted_bound!r}",
        )
        tb = v.term_breakdown
        rel.append(tb["remainder_stderr"] / tb["flat_energy"])
        err.append(v.measured_stderr / v.measured_quotient)
    return {"result_err": max(err), "rel_stderr": max(rel)} if rel else {}


# -- tables_n3 ----------------------------------------------------------


def _tables_prepare(seed, workdir, workers):
    from regsob import make_grid, synthesize_profile

    cfg_path = os.path.join(workdir, "kernel_table_n3.json")
    with open(cfg_path, "w") as fh:
        json.dump({"kernel_table": {"n": 3, "sigma": SIGMA, "N": 24}}, fh)
    return {
        "argv": [
            "kernel-table",
            "--config",
            cfg_path,
            "--out",
            os.path.join(workdir, "ktab_n3.rsob"),
        ],
        "field": seeded_theta(3, 16, seed, tail=False),
    }


def _tables_measure(state, ops):
    from regsob import KernelParams, build_kernel_table, load_table
    from regsob import rearrange_sharp, seminorm
    from regsob import cli

    fld = state["field"]
    out = {"rc": ops.call("cli.kernel-table", cli.main, state["argv"])}
    out["table"] = ops.call("load_table", load_table, state["argv"][-1])
    tab = ops.call(
        "build_kernel_table",
        build_kernel_table,
        fld.grid,
        KernelParams.energy(3, SIGMA),
    )
    out["e0"] = ops.call("seminorm", seminorm, fld, tab)
    fr = ops.call("rearrange_sharp", rearrange_sharp, fld)
    out["e1"] = ops.call("seminorm.rearranged", seminorm, fr, tab)
    return out


def _tables_check(state, out, ops):
    from regsob import KernelParams, build_kernel_table, make_grid

    ops.check("cli.kernel-table", out["rc"] == 0, f"exit code {out['rc']!r}")
    tab = out["table"]
    if tab is not None:
        ref = build_kernel_table(
            make_grid(3, R_MAX, 24, 24), KernelParams.energy(3, SIGMA)
        )
        same = (
            tab.params == ref.params
            and tab.grid_hash == ref.grid_hash
            and all(
                np.array_equal(getattr(tab, k), getattr(ref, k))
                for k in ("r_nodes", "t_nodes", "values", "near_diag_mask")
            )
        )
        ops.check("load_table", same, "loaded table differs from a rebuild")
    e0, e1 = out["e0"], out["e1"]
    if e0 is None or e1 is None:
        return {}
    ops.check(
        "seminorm.rearranged",
        e1.total <= e0.total,
        f"energy rises under rearrangement: {e0.total!r} -> {e1.total!r}",
    )
    return {"result_err": e0.quad_error_estimate / e0.total}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve",
            "bound by energy and grad evaluation in the solver; no Monte Carlo "
            "and no file IO; the workload where one assembled operator and "
            "L-BFGS-B show their gain",
            _solve_prepare,
            _solve_measure,
            _solve_check,
        ),
        Workload(
            "gamma0",
            "bound by assembly: six builds with no reuse and few evaluations; "
            "counter-workload where a faster grad should not move the time",
            _gamma0_prepare,
            _gamma0_measure,
            _gamma0_check,
        ),
        Workload(
            "verify",
            "the only workload with the Monte Carlo sampler and with reuse of "
            "assembled forms (flat and cap share lambdas); target of the "
            "exact-dilation lambda scans",
            _verify_prepare,
            _verify_measure,
            _verify_check,
        ),
        Workload(
            "tables_n3",
            "the only workload on the general-n quadrature kernel and on "
            "container writes and reads, through the CLI",
            _tables_prepare,
            _tables_measure,
            _tables_check,
        ),
    )
}
