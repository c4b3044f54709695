"""Command line front end: configuration, run manifests, result emission.

A run is set by one JSON config file and its input files alone;
`regsob print-config` emits the full default config.  Every command writes
a manifest before its results and rewrites it with output checksums
afterwards.  Exit codes: 0 success, 2 verdict failure, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .energy import _seminorm_total, critical_p
from .errors import ConfigError, InvalidParams, RegsobError
from .expansion import (
    BoundaryGraph,
    MCConfig,
    _checked_lams,
    bounds_check,
    cw_cutoff_check,
    verify_upper_bound,
)
from .field import attach_tail_model, load_field, make_grid, synthesize_profile
from .gamma0 import (
    Gamma0Report,
    _checked_inputs,
    estimate_gamma0,
    interior_weighted_growth,
    tail_bound,
)
from .io_container import write_atomic
from .kernel import KernelParams, build_kernel_table, kernel_values, save_table
from .minimize import SolverConfig, solve_halfspace, save_result
from .rearrange import SliceProfile, rearrange_sharp, slice_lp_norm

DEFAULT_CONFIG = {
    "threads": 4,
    "seed": 0,
    "solver": {
        "n": 4,
        "sigma": 0.75,
        "schedule": [16, 24, 32],
        "R_max": 20.0,
        "grading": [2.0, 2.0],
        "max_iters": 250,
        "init": "interior-bubble",
        "tol_quotient": 1e-6,
        "tol_residual": 0.05,
    },
    "gamma0": {
        "schedule": None,
        "grids": None,
    },
    "boundary": {
        "alpha": [0.05, 0.05, 0.05],
        "g_kind": "zero",
        "g_coeffs": [],
        "R0": 4.0,
        "delta0": 4.0,
        "epsilon0": 0.05,
        "mu": 1.0,
    },
    "verify": {
        "lambda_schedule": [3.0, 4.0, 6.0],
        "batches": 16,
        "samples_per_batch": 50000,
        "max_rel_stderr": 0.05,
    },
    "kernel_table": {
        "n": 4,
        "sigma": 0.75,
        "order": "energy",
        "R_max": 20.0,
        "N": 16,
        "grading": [2.0, 2.0],
    },
}


# the kinds of the null defaults: null or a list of grid sizes, of radii
_NULL_KINDS = {"gamma0.grids": [0], "gamma0.schedule": [0.0]}
_KINDS = {
    str: ("a string", "strings"),
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
}


def _scalar(default, v):
    """v as a value of the kind of the scalar default (string, integer or
    real), or None when it is not one: an integer key takes integers only,
    and a real key takes integers as floats."""
    if isinstance(default, str):
        return v if isinstance(v, str) else None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    if isinstance(default, int):
        return v if isinstance(v, int) else None
    return float(v)


def _typed(default, v, key):
    """v checked against the kind of its default and returned as that kind:
    an object merges key by key, a list takes a list of the kind of its
    first entry (numbers if it is empty), a null default takes null or the
    list in _NULL_KINDS.  ConfigError naming the dotted key otherwise."""
    if default is None and v is None:
        return None
    base = _NULL_KINDS[key] if default is None else default
    if isinstance(base, dict):
        if isinstance(v, dict):
            return _merge(base, v, key + ".")
        want = "an object"
    elif isinstance(base, list):
        elem = base[0] if base else 0.0
        out = [_scalar(elem, x) for x in v] if isinstance(v, list) else [None]
        if None not in out:
            return out
        want = "a list of " + _KINDS[type(elem)][1]
    else:
        out = _scalar(base, v)
        if out is not None:
            return out
        want = _KINDS[type(base)][0]
    if default is None:
        want = "null or " + want
    raise ConfigError(f"config key {key!r} must be {want}, got {v!r}")


def _merge(base, override, path=""):
    out = dict(base)
    for k, v in override.items():
        if k not in base:
            raise ConfigError(f"unknown config key {path + k!r}")
        out[k] = _typed(base[k], v, path + k)
    return out


def _read_json(path, what):
    """The JSON value in the file at path; ConfigError naming `what` and the
    path when the file cannot be read or is not valid JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{what} {path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        )


def load_config(path):
    """DEFAULT_CONFIG, with the values of the JSON file at path merged in
    after a check of each against the kind of its default (see _typed)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return cfg
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return _merge(cfg, raw)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _threads(cfg):
    """Worker threads of the verify sampler: the config's `threads`."""
    n = cfg["threads"]
    if n < 1:
        raise ConfigError(f"config key 'threads' must be an integer >= 1, got {n!r}")
    return n


class Manifest:
    """Written before results, rewritten with checksums afterwards."""

    def __init__(self, command, config, inputs, path):
        self.path = path
        self.t0 = time.time()
        self.data = {
            "command": command,
            "config": config,
            "code_version": __version__,
            "seeds": [config.get("seed", 0)] if isinstance(config, dict) else [],
            "input_hashes": {p: _sha256(p) for p in inputs},
            "wall_time_s": None,
            "outputs": [],
        }
        self.write()

    def write(self):
        write_atomic(self.path, json.dumps(self.data, indent=2).encode())

    def finish(self, outputs):
        self.data["wall_time_s"] = time.time() - self.t0
        self.data["outputs"] = [
            {"path": p, "sha256": _sha256(p)} for p in outputs
        ]
        self.write()


def cmd_solve(args):
    cfg = load_config(args.config)
    s = cfg["solver"]
    sc = SolverConfig(
        **dict(s, schedule=tuple(s["schedule"]), grading=tuple(s["grading"])),
        seed=cfg["seed"],
    )
    man = Manifest("solve", cfg, [], args.out + ".manifest.json")
    res = solve_halfspace(sc)
    save_result(res, args.out)
    man.finish([args.out, args.out + ".json"])
    print(
        f"s_estimate {res.s_estimate:.6f} residual {res.el_residual:.4f} "
        f"converged {res.converged}"
    )
    return 0


def cmd_gamma0(args):
    cfg = load_config(args.config)
    theta = load_field(args.theta)
    g = cfg["gamma0"]
    _checked_inputs(theta, g["schedule"], g["grids"])
    man = Manifest("gamma0", cfg, [args.theta], args.out + ".manifest.json")
    rep = estimate_gamma0(
        theta,
        schedule=g["schedule"],
        grids=g["grids"],
        provenance=args.theta,
    )
    write_atomic(args.out, json.dumps(rep.to_json(), indent=2).encode())
    man.finish([args.out])
    print(f"gamma0 {rep.value:.6f} verdict {rep.sign_verdict}")
    return 0


def _load_gamma0(path):
    """The Gamma0Report that `regsob gamma0` wrote to path; ConfigError
    naming the path and any missing or unknown key or invalid value."""
    try:
        return Gamma0Report(**_read_json(path, "gamma0 report"))
    except (TypeError, InvalidParams) as e:
        raise ConfigError(f"gamma0 report {path}: {e}")


def cmd_verify(args):
    cfg = load_config(args.config)
    theta = load_field(args.theta)
    rep = _load_gamma0(args.gamma0)
    bg = BoundaryGraph(**cfg["boundary"])
    v = cfg["verify"]
    mc = MCConfig(
        batches=v["batches"],
        samples_per_batch=v["samples_per_batch"],
        seed=cfg["seed"],
        max_rel_stderr=v["max_rel_stderr"],
        workers=_threads(cfg),
    )
    _checked_lams(theta, rep, bg, v["lambda_schedule"])
    man = Manifest(
        "verify", cfg, [args.theta, args.gamma0], args.out + ".manifest.json"
    )
    verdicts = verify_upper_bound(theta, rep, bg, v["lambda_schedule"], mc)
    write_atomic(
        args.out + ".json",
        json.dumps([x.to_json() for x in verdicts], indent=2).encode(),
    )
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(
        [
            "lambda",
            "measured_quotient",
            "stderr",
            "predicted_bound",
            "curvature_term",
            "F_term",
            "pass",
        ]
    )
    for x in verdicts:
        w.writerow(
            [
                x.lam,
                x.measured_quotient,
                x.measured_stderr,
                x.predicted_bound,
                x.term_breakdown["curvature_term"],
                x.term_breakdown["F_term"],
                int(x.passed),
            ]
        )
    write_atomic(args.out + ".csv", buf.getvalue().encode())
    man.finish([args.out + ".json", args.out + ".csv"])
    ok = all(x.passed for x in verdicts)
    for x in verdicts:
        print(
            f"lambda {x.lam:g}: measured {x.measured_quotient:.5f} "
            f"bound {x.predicted_bound:.5f} pass {x.passed}"
        )
    return 0 if ok else 2


def _suite_rearrangement(seed):
    rng = np.random.default_rng(seed)
    bad = 0
    for n in (2, 3, 4):
        g = make_grid(n, 1.0, 10, 10, (1.0, 1.0))
        tab = build_kernel_table(g, KernelParams.energy(n, 0.75))
        p = critical_p(n, 0.75)
        for _ in range(10):
            f = synthesize_profile("compact-bump", g, 0.75).with_values(
                rng.random(g.shape)
            )
            fr = rearrange_sharp(f)
            e0, e1 = _seminorm_total(f, tab), _seminorm_total(fr, tab)
            if e1 > e0 + 1e-8 * abs(e0):
                bad += 1
            for j in range(g.z_nodes.size):
                a = SliceProfile(g.r_nodes, f.regular_values[:, j], n - 2)
                b = SliceProfile(g.r_nodes, fr.regular_values[:, j], n - 2)
                if abs(slice_lp_norm(a, p) - slice_lp_norm(b, p)) > 1e-10 * (
                    slice_lp_norm(a, p) + 1e-300
                ):
                    bad += 1
                    break
    return bad


def _suite_kernel(seed):
    rng = np.random.default_rng(seed)
    bad = 0
    for n in (2, 3, 4, 5):
        params = KernelParams.energy(n, 0.75)
        r = rng.uniform(0.2, 3.0, 50)
        s = rng.uniform(0.2, 3.0, 50)
        t = rng.uniform(0.1, 3.0, 50)
        k1 = kernel_values(r, s, t, params)
        k2 = kernel_values(s, r, t, params)
        if not np.all(np.isfinite(k1)) or np.any(k1 <= 0):
            bad += 1
        if np.max(np.abs(k1 - k2) / k1) > 1e-10:
            bad += 1
        # monotone decay in the vertical separation
        k3 = kernel_values(r, s, t + 0.5, params)
        if np.any(k3 >= k1):
            bad += 1
    return bad


def _suite_appendix_scaling(seed):
    g = make_grid(4, 40.0, 16, 16, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    bad = 0
    grow = [interior_weighted_growth(f, l, 2.0, table=tab) for l in (5.0, 10.0, 20.0)]
    if not all(b > a for a, b in zip(grow[:-1], grow[1:])):
        bad += 1
    dec = [tail_bound(f, l, 1.0, table=tab) for l in (5.0, 10.0, 20.0)]
    if not all(b < a for a, b in zip(dec[:-1], dec[1:])):
        bad += 1
    return bad


def _suite_taylor_bounds(seed):
    bg = BoundaryGraph(
        alpha=(0.05, 0.05, 0.05), g_kind="quadratic-taper", g_coeffs=(0.05,)
    )
    rep = bounds_check(bg, sample_count=100000, seed=seed)
    g = make_grid(4, 12.0, 12, 12, (2.0, 2.0))
    th = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    return rep.total_violations + cw_cutoff_check(th, 2.0, 20000, seed)


_SUITES = {
    "rearrangement": _suite_rearrangement,
    "kernel": _suite_kernel,
    "appendix-scaling": _suite_appendix_scaling,
    "taylor-bounds": _suite_taylor_bounds,
}


def cmd_check(args):
    if args.suite not in _SUITES:
        raise ConfigError(
            f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}"
        )
    bad = _SUITES[args.suite](args.seed)
    print(f"suite {args.suite}: {bad} violations")
    return 0 if bad == 0 else 2


def cmd_kernel_table(args):
    cfg = load_config(args.config)
    k = cfg["kernel_table"]
    if k["order"] not in ("energy", "curvature"):
        raise ConfigError(
            f"kernel_table.order must be 'energy' or 'curvature', got {k['order']!r}"
        )
    g = make_grid(k["n"], k["R_max"], k["N"], k["N"], k["grading"])
    man = Manifest("kernel-table", cfg, [], args.out + ".manifest.json")
    maker = KernelParams.energy if k["order"] == "energy" else KernelParams.curvature
    tab = build_kernel_table(g, maker(k["n"], k["sigma"]))
    save_table(tab, args.out)
    man.finish([args.out])
    print(f"kernel table {tab.values.shape} -> {args.out}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="regsob",
        description=(
            "Regional fractional Sobolev energies: half-space extremizer, "
            "curvature coefficient, boundary-expansion verdicts.  The verify "
            "CSV columns are: lambda, measured_quotient, stderr, "
            "predicted_bound, curvature_term, F_term, pass."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the half-space extremizer")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gamma0", help="estimate the curvature coefficient")
    p.add_argument("--theta", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gamma0)

    p = sub.add_parser("verify", help="curved-boundary upper-bound verdicts")
    p.add_argument("--theta", required=True)
    p.add_argument("--gamma0", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check", help="run a named property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("kernel-table", help="build and save a kernel table")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_kernel_table)

    p = sub.add_parser("print-config", help="print the full default config")
    p.set_defaults(fn=lambda a: print(json.dumps(DEFAULT_CONFIG, indent=2)) or 0)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except RegsobError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
