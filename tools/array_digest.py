"""Print SHA-256 digests of the operator build's arrays and outputs.

    python3 tools/array_digest.py [CHECKOUT]

imports `regsob` from CHECKOUT/src (default: this script's checkout) and
prints one sorted JSON object: the SHA-256 of every array an
`AssembledForm` holds for five configurations, of the t nodes, values
and near-diagonal mask of four kernel tables (among them the n=3 N=24
table the `tables_n3` benchmark workload builds), and of a set of scalar
outputs (norms, seminorms, ball sums, the slice interaction, the
Euler-Lagrange residual, the kernel at n = 2..6 and two cap Monte Carlo
batches: their means and Taylor counts), of one small solve through the
public solver API (its trace, theta, s_estimate, el_residual and stop reasons),
of the file that `regsob kernel-table` writes for the `tables_n3`
workload's config (n=3, sigma 0.75, N=24), run in a temporary directory,
and of the configs a run records: the `regsob print-config` output and
the `SolverConfig.digest()` of the default config and of the solve's.
Two checkouts whose printouts are equal produce the same bits for these
inputs; diff the two printouts to compare a change with its parent.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np


def _digest(a):
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _forms(out):
    from regsob import energy
    from regsob.kernel import KernelParams, build_kernel_table
    from regsob.field import make_grid

    configs = {
        "n4_N13_gamma0_graded": (4, 13, (1.0, 1.5), "curvature", "gamma0"),
        "n4_N16_none": (4, 16, (2.0, 2.0), "energy", "none"),
        "n4_N16_power1": (4, 16, (2.0, 2.0), "energy", ("power", 1.0)),
        "n3_N12_none": (3, 12, (2.0, 2.0), "energy", "none"),
        "n5_N10_none": (5, 10, (2.0, 2.0), "energy", "none"),
    }
    for name, (n, N, grading, order, weight) in configs.items():
        grid = make_grid(n, 20.0, N, N, grading)
        params = getattr(KernelParams, order)(n, 0.75)
        form = energy.assemble(grid, build_kernel_table(grid, params), 0.75, weight)
        # built on their first read, and private build inputs are not outputs
        _ = form.H, form.L_coarse
        for k, v in vars(form).items():
            if k.startswith("_"):
                continue
            if hasattr(v, "shape"):
                out[f"form.{name}.{k}"] = _digest(v)
            else:
                out[f"form.{name}.{k}"] = float(v).hex()


def _tables(out):
    from regsob.field import make_grid
    from regsob.kernel import KernelParams, build_kernel_table

    configs = {
        "n3_N24": (3, 24, (2.0, 2.0), "energy"),
        "n4_N13_curvature_graded": (4, 13, (1.0, 1.5), "curvature"),
        "n4_N8_uniform": (4, 8, (1.0, 1.0), "energy"),
        "n5_N10": (5, 10, (2.0, 2.0), "energy"),
    }
    for name, (n, N, grading, order) in configs.items():
        grid = make_grid(n, 20.0, N, N, grading)
        tab = build_kernel_table(grid, getattr(KernelParams, order)(n, 0.75))
        for k in ("t_nodes", "values", "near_diag_mask"):
            out[f"table.{name}.{k}"] = _digest(getattr(tab, k))


def _outputs(out):
    from regsob import energy
    from regsob.expansion import BoundaryGraph, _mc_batch, _radial_cdf
    from regsob.field import attach_tail_model, eval_vt, make_grid, synthesize_profile
    from regsob.kernel import KernelParams, build_kernel_table, kernel_values
    from regsob.rearrange import SliceProfile, slice_interaction

    sigma = 0.75
    grid = make_grid(4, 20.0, 16, 16)
    fld = attach_tail_model(synthesize_profile("interior-bubble", grid, sigma))
    tab = build_kernel_table(grid, KernelParams.energy(4, sigma))
    p = energy.critical_p(4, sigma)
    out["lp_norm"] = energy.lp_norm(fld, p).hex()
    if hasattr(energy, "_interior_mass_grad"):
        # older checkouts, whose _mass_rule(field, p) returns bare weights
        mass = energy._interior_mass(fld, p)
        grad = energy._interior_mass_grad(fld, p)[1]
    else:
        rule = energy._mass_rule(grid, sigma, p)
        mass, grad = rule[0](fld.regular_values), rule[1](fld.regular_values)[1]
    out["mass"] = mass.hex()
    out["mass_grad"] = _digest(grad)
    pts = np.linspace(0.0, 30.0, 41)
    out["eval_vt"] = _digest(eval_vt(fld, pts, pts[::-1]))
    bd = energy.seminorm(fld, tab)
    out["seminorm.tail"] = [float(x).hex() for x in vars(bd).values()]
    for ext in (False, True):
        ball = energy.weighted_seminorm(fld, tab, "none", lam=6.0, exterior=ext)
        # a float, or in older checkouts a breakdown with its total
        out[f"ball.exterior={ext}"] = float(getattr(ball, "total", ball)).hex()
    out["el_residual"] = float(energy.el_residual(fld, tab)).hex()
    # m is below one chunk, so the batch sums in the order of no chunking
    cap = BoundaryGraph(alpha=(0.05, 0.05, 0.05))
    # (means, taylor count), or in older checkouts (means, squares, count)
    batch = _mc_batch(fld, 5.0, cap, 16, 5000, *_radial_cdf(4, sigma, 15.0))
    out["mc_batch.cap_lam5"] = _digest(np.concatenate([batch[0], [batch[-1]]]))
    # the quadratic taper breaks the one-sided Taylor inequality on some
    # samples, and m = 2^15 + 5777 ends in a ragged chunk
    taper = BoundaryGraph(
        alpha=(0.05, 0.05, 0.05), g_kind="quadratic-taper", g_coeffs=(0.3,)
    )
    batch = _mc_batch(fld, 2.0, taper, 16, 38545, *_radial_cdf(4, sigma, 6.0))
    out["mc_batch.taper_lam2"] = _digest(np.concatenate([batch[0], [batch[-1]]]))

    grid3 = make_grid(3, 20.0, 16, 16)
    fld3 = synthesize_profile("interior-bubble", grid3, sigma)
    tab3 = build_kernel_table(grid3, KernelParams.energy(3, sigma))
    bd = energy.seminorm(fld3, tab3)
    out["seminorm.n3"] = [float(x).hex() for x in vars(bd).values()]

    radii = np.linspace(0.0, 2.0, 9)
    for n in (3, 4):
        f = SliceProfile(radii, np.exp(-radii ** 2) - np.exp(-4.0), n - 2)
        g = SliceProfile(radii, (1.0 - radii / 2.0) ** 2, n - 2)
        out[f"slice_interaction.n{n}"] = float(
            slice_interaction(f, g, 0.3, n, sigma)
        ).hex()

    rng = np.random.default_rng(7)
    r, s, t = rng.uniform(0.0, 3.0, (3, 400))
    for n in range(2, 7):
        for order in ("energy", "curvature"):
            params = getattr(KernelParams, order)(n, sigma)
            out[f"kernel_values.n{n}.{order}"] = _digest(kernel_values(r, s, t, params))


def _solve_config():
    from regsob.minimize import SolverConfig

    return SolverConfig(
        schedule=(10, 12), max_iters=40, init="interior-bubble", init_noise=0.05, seed=3
    )


def _solve(out):
    from regsob.minimize import solve_halfspace

    res = solve_halfspace(_solve_config())
    out["solve.trace"] = _digest(res.trace)
    out["solve.theta"] = _digest(res.theta.regular_values)
    out["solve.s_estimate"] = res.s_estimate.hex()
    out["solve.el_residual"] = res.el_residual.hex()
    out["solve.stop_reasons"] = list(res.stop_reasons)


def _cli(out):
    from regsob import cli

    with tempfile.TemporaryDirectory() as d:
        cfg, tab = os.path.join(d, "n3.json"), os.path.join(d, "n3.rsob")
        with open(cfg, "w") as fh:
            json.dump({"kernel_table": {"n": 3, "sigma": 0.75, "N": 24}}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["kernel-table", "--config", cfg, "--out", tab])
        if rc != 0:
            raise SystemExit(f"kernel-table exited with {rc}")
        with open(tab, "rb") as fh:
            out["cli.kernel_table.n3_N24"] = hashlib.sha256(fh.read()).hexdigest()


def _config(out):
    from regsob import cli
    from regsob.minimize import SolverConfig

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["print-config"])
    if rc != 0:
        raise SystemExit(f"print-config exited with {rc}")
    out["config.print_config"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    out["config.solver_digest"] = [SolverConfig().digest(), _solve_config().digest()]


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(os.path.dirname(__file__))
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    out = {}
    _forms(out)
    _tables(out)
    _outputs(out)
    _solve(out)
    _cli(out)
    _config(out)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
