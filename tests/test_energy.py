import dataclasses
import re
import threading
import time
from collections import Counter, OrderedDict

import numpy as np
import pytest

from regsob import energy, expansion, gamma0, minimize
from regsob.energy import (
    AssembledForm,
    _hat,
    _interp_slots,
    assemble,
    brute_force_seminorm,
    critical_p,
    el_residual,
    lp_norm,
    rayleigh_quotient,
    seminorm,
    weighted_seminorm,
)
from regsob.errors import (
    DiagonalSingularity,
    GridMismatch,
    InvalidGamma,
    InvalidGrading,
    InvalidParams,
    NonCompactSupport,
    SingularAtZeroSeparation,
    TableExponentMismatch,
    ZeroField,
)
from regsob.expansion import (
    BoundaryGraph,
    MCConfig,
    a1_constant,
    bounds_check,
    correction_terms,
    curvature_term,
    cutoff_profile,
    cw_cutoff_check,
    dilate_graph,
    verify_upper_bound,
)
from regsob.field import (
    RadialField,
    attach_tail_model,
    dilate_exact,
    eval_u,
    eval_vt,
    make_grid,
    synthesize_profile,
)
from regsob.gamma0 import (
    Gamma0Report,
    estimate_gamma0,
    interior_weighted_growth,
    tail_bound,
)
from regsob.kernel import (
    KernelParams,
    build_kernel_table,
    gauss_nodes,
    gauss_rule,
    kernel_values,
    load_table,
    save_table,
    sphere_surface,
    t_index_map,
)
from regsob.minimize import SolverConfig, scale_field
from regsob.rearrange import SliceProfile, slice_interaction, slice_lp_norm


def bump_u(pts, sigma=0.75):
    """Analytic compactly supported profile on the half-space."""
    rho2 = np.sum(pts ** 2, axis=1)
    z = pts[:, -1]
    out = np.zeros(len(pts))
    inside = rho2 < 1.0
    out[inside] = z[inside] ** (2 * sigma - 1) * np.exp(
        1.0 - 1.0 / (1.0 - rho2[inside])
    )
    return out


@pytest.fixture(scope="module")
def setup4():
    g = make_grid(4, 1.05, 16, 16, (1.0, 1.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    f = synthesize_profile("compact-bump", g, 0.75)
    return g, tab, f


@pytest.fixture(scope="module")
def setup_gamma0():
    g = make_grid(4, 1.05, 16, 16, (1.0, 1.0))
    tab = build_kernel_table(g, KernelParams.curvature(4, 0.75))
    f = synthesize_profile("compact-bump", g, 0.75)
    return g, tab, f


@pytest.fixture(scope="module")
def setup_graded():
    # the graded grid and power weight of the operator gamma0.tail_bound builds
    g = make_grid(4, 1.05, 16, 16, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    f = synthesize_profile("compact-bump", g, 0.75)
    return g, tab, f


def test_zero_field_all_parts_zero(setup4):
    g, tab, f = setup4
    bd = seminorm(f.with_values(np.zeros(g.shape)), tab)
    assert bd.total == 0.0
    assert bd.far_part == 0.0
    assert bd.near_part == 0.0
    assert bd.tail_estimate == 0.0


def test_parts_nonnegative_and_sum(setup4):
    g, tab, f = setup4
    bd = seminorm(f, tab)
    assert bd.far_part >= 0 and bd.near_part >= 0
    assert bd.total == pytest.approx(
        bd.far_part + bd.near_part + bd.tail_estimate, rel=1e-15
    )
    assert bd.quad_error_estimate < 0.01 * bd.total


def test_bump_matches_oracle(setup4):
    g, tab, f = setup4

    def u(pts):
        r = np.linalg.norm(pts[:, :-1], axis=1)
        return eval_u(f, r, pts[:, -1])

    bd = seminorm(f, tab)
    est, err = brute_force_seminorm(u, 4, 0.75, 1.05, samples=1_500_000, seed=2)
    assert abs(bd.total - est) <= max(0.01 * est, 3 * err)


def test_scaling_invariance(setup4):
    g, tab, f = setup4
    n, sigma, lam = 4, 0.75, 2.0
    g2 = make_grid(n, g.R_max / lam, 16, 16, (1.0, 1.0))
    tab2 = build_kernel_table(g2, KernelParams.energy(n, sigma))
    scale = lam ** ((n - 2 * sigma) / 2.0 + 2 * sigma - 1.0)
    f2 = synthesize_profile("compact-bump", g2, sigma).with_values(
        scale * f.regular_values
    )
    e1 = seminorm(f, tab).total
    e2 = seminorm(f2, tab2).total
    assert e2 == pytest.approx(e1, rel=5e-3)


def test_oracle_seed_consistency():
    e1, s1 = brute_force_seminorm(bump_u, 3, 0.75, 1.0, samples=400_000, seed=1)
    e2, s2 = brute_force_seminorm(bump_u, 3, 0.75, 1.0, samples=400_000, seed=9)
    assert abs(e1 - e2) < 3 * np.hypot(s1, s2)


def test_oracle_variance_halving():
    _, s1 = brute_force_seminorm(bump_u, 3, 0.75, 1.0, samples=300_000, seed=4)
    _, s2 = brute_force_seminorm(bump_u, 3, 0.75, 1.0, samples=1_200_000, seed=4)
    assert s1 / s2 == pytest.approx(2.0, rel=0.35)


def test_oracle_zero_function_exact_zero():
    est, err = brute_force_seminorm(
        lambda p: np.zeros(len(p)), 3, 0.75, 1.0, samples=10_000, seed=0
    )
    assert est == 0.0 and err == 0.0


def test_oracle_refuses_noncompact():
    def envelope(pts):
        rho2 = np.sum(pts ** 2, axis=1)
        return pts[:, -1] ** 0.5 * (1 + rho2) ** -1.75

    with pytest.raises(NonCompactSupport):
        brute_force_seminorm(envelope, 3, 0.75, 1.0, samples=10_000)


def _near(form, v, L=None):
    """The near energy: the per-pair near forms L (the fine ones by default)
    summed over every pair, with the angular prefactor."""
    L = form.L if L is None else L
    return energy._pair_sum(v.ravel(), form.maps, form.ga, form.gb, L) * form.sphere


def test_power_weight_zero_matches_seminorm(setup4):
    g, tab, f = setup4
    plain = seminorm(f, tab)
    form = assemble(g, tab, 0.75, ("power", 0.0))
    near = _near(form, f.regular_values)
    far = form.energy(f.regular_values) - near
    assert far == pytest.approx(plain.far_part, rel=1e-12)
    assert near == pytest.approx(plain.near_part, rel=1e-12)
    total = weighted_seminorm(f, tab, ("power", 0.0))
    assert total == pytest.approx(plain.total, rel=1e-12)


def test_gamma0_weight_swap_symmetry(setup_gamma0):
    g, tab, f = setup_gamma0
    form = assemble(g, tab, 0.75, "gamma0")
    # the pair weight is invariant under swapping the two points, so the
    # assembled far matrix is symmetric and the form order-independent
    scale = np.max(np.abs(form.M))
    assert np.max(np.abs(form.M - form.M.T)) < 1e-12 * scale
    rng = np.random.default_rng(3)
    v = rng.uniform(-1, 1, g.shape)
    w = rng.uniform(-1, 1, g.shape)
    b1 = form.bilinear(v, w)
    b2 = form.bilinear(w, v)
    assert b1 == pytest.approx(b2, rel=1e-12)
    total = weighted_seminorm(f, tab, "gamma0")
    assert type(total) is float and np.isfinite(total)


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_exterior_power_weight_decay_exponent(gamma):
    # the scaling law needs lambda well inside the asymptotic regime and a
    # domain large enough that the truncation does not steepen the decay
    sigma = 0.75
    g = make_grid(4, 150.0, 32, 32, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(4, sigma))
    f = synthesize_profile("envelope", g, sigma)
    lams = np.geomspace(40.0, 140.0, 5)
    vals = [
        weighted_seminorm(f, tab, ("power", gamma), lam=l, exterior=True)
        for l in lams
    ]
    slope = np.polyfit(np.log(lams), np.log(vals), 1)[0]
    want = gamma - 2 * sigma
    assert abs(slope - want) <= 0.15 * abs(want)


def test_lp_norm_homogeneity(setup4):
    g, tab, f = setup4
    p = critical_p(4, 0.75)
    assert p == pytest.approx(3.2)
    base = lp_norm(f, p)
    scaled = lp_norm(f.with_values(2.5 * f.regular_values), p)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_lp_norm_envelope_stable_under_domain_doubling():
    # N chosen so interpolation error (cell size ~ R/N^2) stays below the band
    vals = []
    for R in (12.0, 24.0):
        g = make_grid(4, R, 64, 64, (2.0, 2.0))
        f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
        vals.append(lp_norm(f, critical_p(4, 0.75)))
    assert vals[1] == pytest.approx(vals[0], rel=0.01)


def test_rayleigh_homogeneity_exact(setup4):
    g, tab, f = setup4
    q1 = rayleigh_quotient(f, tab)
    q2 = rayleigh_quotient(f.with_values(3.7 * f.regular_values), tab)
    assert q2 == pytest.approx(q1, rel=1e-12)
    assert q1 > 0
    with pytest.raises(ZeroField):
        rayleigh_quotient(f.with_values(np.zeros(g.shape)), tab)


def test_rayleigh_dilation_invariance(setup4):
    g, tab, f = setup4
    n, sigma, lam = 4, 0.75, 2.0
    g2 = make_grid(n, g.R_max / lam, 16, 16, (1.0, 1.0))
    tab2 = build_kernel_table(g2, KernelParams.energy(n, sigma))
    scale = lam ** ((n - 2 * sigma) / 2.0 + 2 * sigma - 1.0)
    f2 = synthesize_profile("compact-bump", g2, sigma).with_values(
        scale * f.regular_values
    )
    assert rayleigh_quotient(f2, tab2) == pytest.approx(
        rayleigh_quotient(f, tab), rel=5e-3
    )


def test_el_residual_zero_field(setup4):
    g, tab, f = setup4
    assert el_residual(f.with_values(np.zeros(g.shape)), tab) == 0.0
    assert el_residual(f, tab) > 0


def test_bilinear_symmetry_and_polarization():
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    form = assemble(g, tab, 0.75)
    rng = np.random.default_rng(0)
    v = rng.uniform(0.2, 1.0, g.shape)
    w = rng.uniform(-1, 1, g.shape)
    bil = form.bilinear(v, w)
    assert form.bilinear(w, v) == pytest.approx(bil, rel=1e-12)
    pol = 0.25 * (form.energy(v + w) - form.energy(v - w))
    assert pol == pytest.approx(bil, rel=1e-10)


def test_gradient_matches_finite_difference():
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    form = assemble(g, tab, 0.75)
    rng = np.random.default_rng(1)
    v = rng.uniform(0.2, 1.0, g.shape)
    w = rng.uniform(-1, 1, g.shape)
    h = 1e-6
    fd = (form.energy(v + h * w) - form.energy(v - h * w)) / (2 * h)
    assert float(form.grad(v) @ w.ravel()) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("width", [3, 4])
def test_hat_rows_reproduce_field_interpolant(width):
    # the patch rows of the box moments and mid ring (3 nodes per axis) and
    # of the near forms (4 nodes per axis) against the field's own bilinear
    # interpolant, on random points and on each patch's far corner
    g = make_grid(4, 2.0, 12, 10, (2.0, 1.5))
    rng = np.random.default_rng(width)
    f = RadialField(g, rng.uniform(-1.0, 1.0, g.shape), 0.75)
    m = 400
    br = rng.integers(0, g.r_nodes.size - width + 1, m)
    bz = rng.integers(0, g.z_nodes.size - width + 1, m)
    r = rng.uniform(g.r_nodes[br], g.r_nodes[br + width - 1])
    z = rng.uniform(g.z_nodes[bz], g.z_nodes[bz + width - 1])
    r[:20] = g.r_nodes[br[:20] + width - 1]
    z[:20] = g.z_nodes[bz[:20] + width - 1]
    hr = _hat(*_interp_slots(g.r_nodes, br, r), width)
    hz = _hat(*_interp_slots(g.z_nodes, bz, z), width)
    assert hr.shape == hz.shape == (m, width)
    assert np.all(np.abs(hr.sum(axis=1) - 1.0) <= 1e-15)
    assert np.all(np.abs(hz.sum(axis=1) - 1.0) <= 1e-15)
    slots = np.arange(width)
    patch = f.regular_values[
        br[:, None, None] + slots[:, None], bz[:, None, None] + slots[None, :]
    ]
    rows = (hr[:, :, None] * hz[:, None, :]).reshape(m, -1)
    got = np.einsum("pk,pk->p", rows, patch.reshape(m, -1))
    assert np.max(np.abs(got - eval_vt(f, r, z))) <= 1e-14


# The coarse near energy is checked, not seminorm's quadrature error
# estimate qerr = |near - near_coarse|: that difference of near-equal
# energies (condition number near / qerr ~ 165 on setup4) pins the rounding
# of the near forms, not their accuracy, so it is derived from the checked
# values here.  near_coarse was recorded from the near forms as they were
# before their radial and vertical factors were separated.
#
# Values of the form as evaluated family by family (far moments, mid ring,
# exterior, fine and coarse near forms) before the energy was assembled into
# one matrix (setup_graded: before the mid ring was stored as per-box Gauss
# bases and per-pair kernel blocks, in place of 18 x 18 pair forms);
# w = default_rng(0).uniform(-1, 1) on the 17 x 17 grid.
_FAMILY_SUMS = {
    "setup4": dict(
        weight="none",
        energy=13.182901137626892,
        far=6.36188988509791,
        near=6.821011252528982,
        near_coarse=6.862461991794746,
        grad_w=-1.876585327772911,
        bilinear=-0.9382926638864553,
        ball=2.269066596710537,
    ),
    "setup_gamma0": dict(
        weight="gamma0",
        energy=1.2747374652908403,
        far=0.9535188004505418,
        near=0.32121866484029854,
        near_coarse=0.30340191543206607,
        grad_w=-0.4531779772667935,
        bilinear=-0.2265889886333897,
        ball=-0.10856339662506702,
    ),
    "setup_graded": dict(
        weight=("power", 1.0),
        energy=11.719866004154298,
        far=6.502573526675256,
        near=5.21729247747904,
        near_coarse=5.213509894438899,
        grad_w=-0.3649098923722973,
        bilinear=-0.18245494618614844,
        ball=1.3548836813622227,
    ),
}


@pytest.mark.parametrize("name", sorted(_FAMILY_SUMS))
def test_assembled_matrix_matches_family_sums(name, request):
    g, tab, f = request.getfixturevalue(name)
    want = _FAMILY_SUMS[name]
    weight = want["weight"]
    form = assemble(g, tab, 0.75, weight)
    v = f.regular_values
    w = np.random.default_rng(0).uniform(-1, 1, g.shape)
    near = _near(form, v)
    got = dict(
        energy=form.energy(v),
        far=form.energy(v) - near,
        near=near,
        # the coarse near energy that seminorm's quadrature error estimate
        # reads, taken here for every weight
        near_coarse=_near(form, v, form.L_coarse),
        grad_w=float(form.grad(v) @ w.ravel()),
        bilinear=form.bilinear(v, w),
        ball=weighted_seminorm(f, tab, weight, lam=0.6),
    )
    if weight == "none":
        qerr = abs(near - got["near_coarse"])
        assert seminorm(f, tab).quad_error_estimate == qerr
    for key, val in got.items():
        assert val == pytest.approx(want[key], rel=1e-12), key
    assert form.bilinear(v, w) == form.bilinear(w, v)


@pytest.mark.parametrize("name", sorted(_FAMILY_SUMS))
def test_full_parts_are_ball_parts_over_every_node(name, request):
    # the near sums come from the per-pair forms with or without a ball, so
    # the ball that holds every node gives the same bits; that ball is the
    # assembled energy less the exterior forms, which only H holds
    g, tab, f = request.getfixturevalue(name)
    form = assemble(g, tab, 0.75, _FAMILY_SUMS[name]["weight"])
    v = f.regular_values.ravel()
    every = np.ones(v.size)
    pairs = (form.maps, form.ga, form.gb, form.L)
    assert energy._pair_sum(v, *pairs) == energy._pair_sum(v, *pairs, every)
    ext_maps, X = energy._exterior_forms(*form._inputs)
    ext = np.einsum("pa,pab,pb->", v[ext_maps], X, v[ext_maps]) * form.sphere
    assert form.ball(v, every) + ext == pytest.approx(form.energy(v), rel=1e-13)


def test_assembled_form_keeps_two_dense_matrices(setup4):
    g, tab, _ = setup4
    N = g.shape[0] * g.shape[1]
    form = assemble(g, tab, 0.75)
    # every family, the ones built on their first read too
    _ = form.H, form.L_coarse
    dense = sorted(
        k for k, a in vars(form).items()
        if isinstance(a, np.ndarray) and a.shape == (N, N)
    )
    assert dense == ["H", "M"]


def _dense_reference_H(form):
    """H as the form assembled it before C was sparse: C as a dense N x N
    matrix, the far part -2 C^T M C as a dense triple product, and the far
    and near matrices each symmetrised on its own before their sum."""
    grid, params, sigma, wfn = form._inputs
    ext_maps, X = energy._exterior_forms(grid, params, sigma, wfn)
    M = form.M
    N = M.shape[0]
    Wp = np.maximum(form.node_weight, 1e-300)
    C = np.bincount(
        (np.arange(N)[:, None] * N + form.map9).ravel(),
        (form.c1 / Wp[:, None]).ravel(),
        minlength=N * N,
    ).reshape(N, N)
    H_far = -2.0 * (C.T @ M @ C)
    row = M.sum(axis=1)
    energy._scatter(H_far, form.map9, 2.0 * (row / Wp)[:, None, None] * form.Q2)
    B, ma, mb = form.basis, form.mga, form.mgb
    D = np.zeros(B.shape[:2])
    np.add.at(D, ma, form.KW.sum(axis=2))
    np.add.at(D, mb, form.KW.sum(axis=1))
    energy._scatter(H_far, form.patch, 2.0 * np.einsum("nga,ng,ngb->nab", B, D, B))
    step = 1 << 14
    for s in range(0, ma.size, step):
        a, b = ma[s : s + step], mb[s : s + step]
        cross = -4.0 * (B[a].transpose(0, 2, 1) @ form.KW[s : s + step] @ B[b])
        energy._scatter(H_far, form.patch[a], cross, form.patch[b])
    energy._scatter(H_far, ext_maps, X)
    H_near = np.zeros((N, N))
    energy._scatter(H_near, form.maps, form.L)
    for A in (H_far, H_near):
        A += A.T
        A *= 0.5 * form.sphere
    return H_far + H_near


def _indices_reference_M(form, table):
    """M as the form gathered it before the (i, j, k, l) view: flat node
    index grids, an N x N index of the t table and an N x N mask of the mid
    ring's window."""
    grid, _, _, wfn = form._inputs
    W, r, z = form.node_weight, form.r_flat, form.z_flat
    idx_t = t_index_map(table, grid)
    ri, zi = np.indices(grid.shape).reshape(2, -1)
    K = table.values[ri[:, None], ri[None, :], idx_t[zi[:, None], zi[None, :]]]
    M = W[:, None] * W[None, :] * K
    if wfn is not None:
        M *= wfn(r[:, None], r[None, :], z[:, None] - z[None, :])
    ring = energy._MID_RING
    handled = (np.abs(ri[:, None] - ri[None, :]) <= ring) & (
        np.abs(zi[:, None] - zi[None, :]) <= ring
    )
    M[handled] = 0.0
    return M


def _n3_non_square():
    g = make_grid(3, 1.05, 12, 17, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(3, 0.75))
    return g, tab, synthesize_profile("compact-bump", g, 0.75)


@pytest.mark.parametrize("name", sorted(_FAMILY_SUMS) + ["n3_non_square"])
def test_H_matches_the_dense_reference(name, request):
    # C is sparse and every family goes into one matrix, symmetrised once:
    # H moves from the dense assembly by rounding only (1.8e-16 of the
    # largest entry seen), and stays exactly symmetric
    if name == "n3_non_square":
        (g, tab, f), weight = _n3_non_square(), "none"
    else:
        g, tab, f = request.getfixturevalue(name)
        weight = _FAMILY_SUMS[name]["weight"]
    form = AssembledForm(g, tab, 0.75, weight)
    H, ref = form.H, _dense_reference_H(form)
    assert np.abs(H - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.array_equal(H, H.T)
    v = f.regular_values.ravel()
    w = np.random.default_rng(0).uniform(-1, 1, v.size)
    assert form.energy(v) == pytest.approx(v @ ref @ v, rel=1e-13)
    want = 0.5 * (v @ ref @ w + w @ ref @ v)
    assert form.bilinear(v, w) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", ["setup_gamma0", "setup_graded", "n3_non_square"])
def test_M_is_the_flat_index_gather_bit_for_bit(name, request):
    # two weighted forms (gamma0 has entries of both signs, so a -0.0 would
    # show) and a grid with N_r != N_z
    if name == "n3_non_square":
        (g, tab, _), weight = _n3_non_square(), "none"
    else:
        g, tab, _ = request.getfixturevalue(name)
        weight = _FAMILY_SUMS[name]["weight"]
    form = AssembledForm(g, tab, 0.75, weight)
    ref = _indices_reference_M(form, tab)
    assert form.M.shape == ref.shape and form.M.tobytes() == ref.tobytes()


def test_table_order_checked(setup4, setup_gamma0):
    _, tab_e, f = setup4
    _, tab_c, _ = setup_gamma0
    with pytest.raises(TableExponentMismatch):
        seminorm(f, tab_c)
    with pytest.raises(TableExponentMismatch):
        weighted_seminorm(f, tab_e, "gamma0")


@pytest.mark.parametrize("name", ["setup4", "setup_graded", "n3"])
def test_near_forms_independent_of_worker_count(name, request, monkeypatch):
    # the mid ring, the exterior rows and the near-form blocks run on a
    # thread pool and are combined in one fixed order, so one worker and
    # several give the same bits in every array; for n = 3 this also needs
    # kernel values that do not depend on the batch they come in
    if name == "n3":
        g = make_grid(3, 1.0, 10, 10, (1.0, 1.5))
        tab = build_kernel_table(g, KernelParams.energy(3, 0.75))
        weight = ("power", 1.0)
    else:
        g, tab, _ = request.getfixturevalue(name)
        weight = _FAMILY_SUMS[name]["weight"]
    forms = []
    for workers in (1, max(2, energy._cpu_count())):
        monkeypatch.setattr(energy, "_cpu_count", lambda w=workers: w)
        form = AssembledForm(g, tab, 0.75, weight)
        # H (with the exterior forms) and L_coarse are built on their first
        # read, on a pool of their own
        _ = form.H, form.L_coarse
        forms.append(vars(form))
    one, many = forms
    arrays = [k for k, v in one.items() if isinstance(v, np.ndarray)]
    assert {"H", "M", "L", "L_coarse", "KW", "basis"} <= set(arrays)
    for k in arrays:
        assert np.array_equal(one[k], many[k]), k


def test_near_block_sums_follow_block_order(monkeypatch):
    # blocks made to finish last to first on a worker each must still be
    # added in block order: the plain loop over the blocks is the reference
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    maps, _, _, blocks = energy._near_local_forms(
        g, KernelParams.energy(4, 0.75), 0.75, None, energy._FINE_ORDERS
    )
    want = np.zeros((maps.shape[0], 16, 16))
    for sel, fn in blocks:
        want[sel] += fn()

    def late(fn, delay):
        return lambda: (time.sleep(delay), fn())[1]

    n = len(blocks)
    slow = [(sel, late(fn, 0.05 * (n - k))) for k, (sel, fn) in enumerate(blocks)]
    monkeypatch.setattr(energy, "_cpu_count", lambda: n)
    got = energy._sum_blocks(maps.shape[0], blocks, energy._run([fn for _, fn in slow]))
    assert np.array_equal(got, want)


def test_run_cancels_the_rest_on_an_error(monkeypatch):
    # on one worker the fns start in list order: the failing fn's error is
    # raised while the worker runs the slow fn after it, so the last fn is
    # cancelled before it starts, and the worker has exited on return
    ran = []

    def failing():
        raise DiagonalSingularity("raised in a task")

    monkeypatch.setattr(energy, "_cpu_count", lambda: 1)
    before = threading.active_count()
    with pytest.raises(DiagonalSingularity, match="in a task"):
        energy._run([failing, lambda: time.sleep(0.5), lambda: ran.append(2)])
    assert threading.active_count() == before
    assert ran == []
    assert energy._run([lambda k=k: k for k in range(5)]) == list(range(5))


def test_near_block_error_surfaces(monkeypatch):
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    # the mid ring also runs on the pool: take it from a clean run, so the
    # only tasks that fail are the near-form blocks (the exterior forms are
    # built with H, on its first read)
    mid = energy._mid_pair_forms(g, tab.params, 0.75, None)
    monkeypatch.setattr(energy, "_mid_pair_forms", lambda *args: mid)

    def failing(*args):
        raise DiagonalSingularity("raised in a near-form block")

    monkeypatch.setattr(energy, "kernel_values", failing)
    before = threading.active_count()
    with pytest.raises(DiagonalSingularity, match="near-form block"):
        AssembledForm(g, tab, 0.75)
    assert threading.active_count() == before


def test_exterior_error_surfaces(monkeypatch):
    # the exterior forms are built with H on its first read, after the rest
    # of the form, and their tasks run on a pool of their own; a failed
    # read leaves H unset, so the next read builds it again
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    form = AssembledForm(g, tab, 0.75)
    threads = []

    def failing(*args):
        threads.append(threading.current_thread())
        raise DiagonalSingularity("raised in an exterior task")

    monkeypatch.setattr(energy, "kernel_values", failing)
    before = threading.active_count()
    with pytest.raises(DiagonalSingularity, match="exterior"):
        form.H
    assert threading.active_count() == before
    assert threads and threading.main_thread() not in threads
    assert "H" not in vars(form)
    monkeypatch.undo()
    assert np.array_equal(form.H, AssembledForm(g, tab, 0.75).H)


@pytest.mark.parametrize("n", [3, 4])
def test_exterior_row_tasks_match_one_task(n, monkeypatch):
    # tasks of _EXT_ROWS Gauss-point rows on two workers give the bits of
    # one task over every row: kv @ mb keeps its bits per row, and for n = 3
    # each kernel value depends on its own point only
    g = make_grid(n, 1.0, 12, 12, (1.0, 1.5))
    params = KernelParams.energy(n, 0.75)
    wfn = energy._weight(("power", 1.0))[1]
    rows = (g.shape[0] - 1) * energy._EXT_ORDER
    assert rows > 2 * energy._EXT_ROWS  # three tasks or more
    monkeypatch.setattr(energy, "_cpu_count", lambda: 2)
    maps, X = energy._exterior_forms(g, params, 0.75, wfn)
    monkeypatch.setattr(energy, "_EXT_ROWS", 10 ** 6)
    maps1, X1 = energy._exterior_forms(g, params, 0.75, wfn)
    assert np.array_equal(maps, maps1) and np.array_equal(X, X1)


def test_mid_ring_error_surfaces(monkeypatch):
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    threads = []

    def failing(*args):
        threads.append(threading.current_thread())
        raise DiagonalSingularity("raised in the mid ring")

    monkeypatch.setattr(energy, "_mid_pair_forms", failing)
    before = threading.active_count()
    with pytest.raises(DiagonalSingularity, match="mid ring"):
        AssembledForm(g, tab, 0.75)
    assert threading.active_count() == before
    assert threads and threads[0] is not threading.main_thread()


def _near_forms(g, params, weight):
    wfn = energy._weight(weight)[1]
    fine, coarse = (
        energy._near_local_forms(g, params, 0.75, wfn, orders)
        for orders in (energy._FINE_ORDERS, energy._COARSE_ORDERS)
    )
    return [
        energy._sum_blocks(fine[1].size, blocks, energy._run([fn for _, fn in blocks]))
        for blocks in (fine[3], coarse[3])
    ]


@pytest.mark.parametrize("name", ["setup4", "setup_graded", "n3"])
def test_near_forms_independent_of_batch_budget(name, request, monkeypatch):
    # a budget of 1 takes one pair per chunk, and so one kernel_values call
    # per pair over all its (tri, k, m) samples; the default budget takes one
    # call per chunk of pairs.  Each pair's form is one product over its own
    # samples, terms and nodes, so it has the same bits in any chunk
    if name == "n3":
        g = make_grid(3, 1.0, 8, 8, (1.0, 1.5))
        params, weight = KernelParams.energy(3, 0.75), "none"
    else:
        g, tab, _ = request.getfixturevalue(name)
        params, weight = tab.params, _FAMILY_SUMS[name]["weight"]
    calls = []

    def counted(fn):
        def call(*args, **kw):
            calls.append(fn.__name__)
            return fn(*args, **kw)

        return call

    for fn in (energy._z_rule, energy.kernel_values):
        monkeypatch.setattr(energy, fn.__name__, counted(fn))
    got = []
    for budget in (energy._NEAR_CHUNK, 1):
        monkeypatch.setattr(energy, "_NEAR_CHUNK", budget)
        calls.clear()
        forms = _near_forms(g, params, weight)
        got.append((forms, (calls.count("_z_rule"), calls.count("kernel_values"))))
    (chunked, n_chunked), (single, n_single) = got
    # some blocks took several samples per chunk
    assert all(a < b for a, b in zip(n_chunked, n_single))
    for a, b in zip(chunked, single):
        assert np.array_equal(a, b)


def test_interior_terms_share_z_nodes(setup_graded, monkeypatch):
    # interior near-form blocks take one plain z rule per chunk for the
    # three terms of (z_x^a p_x - z_y^a p_y)^2, build their rows from its
    # nodes and derive their weights with _z_weights, which holds bit for
    # bit only while each term's own _z_rule has those nodes and weights
    g, tab, _ = setup_graded
    z_rule = energy._z_rule
    seen = []

    def spy(lo, hi, dz, e_x, e_y, q, panels=0):
        if panels == 0:
            seen.append((lo, hi, dz, q))
        return z_rule(lo, hi, dz, e_x, e_y, q, panels)

    monkeypatch.setattr(energy, "_z_rule", spy)
    _, _, _, blocks = energy._near_local_forms(
        g, tab.params, 0.75, None, energy._FINE_ORDERS
    )
    for _, fn in blocks:
        fn()
    a = 2 * 0.75 - 1
    assert seen
    for lo, hi, dz, q in seen:
        zz, w = z_rule(lo, hi, dz, 0.0, 0.0, q)
        for e_x, e_y in ((2 * a, 0.0), (a, a), (0.0, 2 * a)):
            want_z, want_w = z_rule(lo, hi, dz, e_x, e_y, q, panels=0)
            assert np.array_equal(zz, want_z)
            assert np.array_equal(energy._z_weights(zz, w, dz, e_x, e_y), want_w)



def _dense_near_blocks(g, params, sigma, wfn, orders):
    """Reference for _near_local_forms' blocks: the dense construction, with
    16-slot rows hat_r (x) h_z per inner node and one einsum per (tri, k, m)
    sample and term, each term with its own z rule.  Returns [(sel, L)] in
    the block order of _near_local_forms."""
    n_rho, n_v, n_x = orders
    rn, zn = g.r_nodes, g.z_nodes
    nr, nz = rn.size, zn.size
    er, ez = energy._dual_edges(rn), energy._dual_edges(zn)
    pairs = [
        (I, J, I + di, J + dj, np.full(I.size, 1.0 if di == dj == 0 else 2.0))
        for di, dj, I, J in energy._box_pairs(nr, nz, 0, 1)
    ]
    ai, aj, bi, bj, mult = map(np.concatenate, zip(*pairs))
    base_i = np.clip(np.minimum(ai, bi) - 1, 0, nr - 4)
    base_j = np.clip(np.minimum(aj, bj) - 1, 0, nz - 4)
    is_bnd = np.minimum(aj, bj) == 0
    beta = 1.0 - 2.0 * sigma
    xr_j, wr_j = gauss_rule(n_rho, 0.0, beta)
    rho = (xr_j + 1.0) / 2.0
    w_rho = wr_j * 2.0 ** (-beta - 1.0) * rho ** (2.0 * sigma)
    vv, w_v = gauss_nodes(0.0, 1.0, n_v)
    gg, w_g = gauss_nodes(0.0, 1.0, n_x)
    a = 2.0 * sigma - 1.0
    terms = ((2 * a, 0.0, 1.0, "xx"), (a, a, -2.0, "xy"), (0.0, 2 * a, 1.0, "yy"))
    npow = g.n - 2
    out = []
    for sr, sz in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        e_r = np.maximum(er[bi + 1] - er[ai] if sr > 0 else er[ai + 1] - er[bi], 0.0)
        e_z = np.maximum(ez[bj + 1] - ez[aj] if sz > 0 else ez[aj + 1] - ez[bj], 0.0)
        for npan in (0, energy._Z_PANELS):
            sel = np.flatnonzero((e_r > 0) & (e_z > 0) & (is_bnd == (npan > 0)))
            if not sel.size:
                continue
            A0r, A1r = er[ai[sel]], er[ai[sel] + 1]
            B0r, B1r = er[bi[sel]], er[bi[sel] + 1]
            A0z, A1z = ez[aj[sel]], ez[aj[sel] + 1]
            B0z, B1z = ez[bj[sel]], ez[bj[sel] + 1]
            L = np.zeros((sel.size, 16, 16))
            for tri, k, m in np.ndindex(2, n_rho, n_v):
                a_s, b_s = rho[k], rho[k] * vv[m]
                if tri:
                    a_s, b_s = b_s, a_s
                dr, dz = sr * e_r[sel] * a_s, sz * e_z[sel] * b_s
                lo_r = np.maximum(A0r, B0r - dr)
                wid_r = np.maximum(np.minimum(A1r, B1r - dr) - lo_r, 0.0)
                lo_z = np.maximum(A0z, B0z - dz)
                hi_z = np.maximum(np.minimum(A1z, B1z - dz), lo_z)
                xr = lo_r[:, None] + wid_r[:, None] * gg
                yr = xr + dr[:, None]
                kv = kernel_values(xr, yr, dz[:, None], params)
                w = mult[sel] * e_r[sel] * e_z[sel] * w_rho[k] * w_v[m]
                wc = w[:, None] * wid_r[:, None] * w_g * kv * xr ** npow * yr ** npow
                for e_x, e_y, coef, sides in terms:
                    zz, zw = energy._z_rule(lo_z, hi_z, dz, e_x, e_y, n_x, npan)
                    zy = zz + dz[:, None]
                    wq = wc[:, :, None] * zw[:, None, :]
                    if wfn is not None:
                        # at every inner (r, z) node, t = z_x - z_y
                        t = zz[:, None, :] - zy[:, None, :]
                        wq = wq * wfn(xr[:, :, None], yr[:, :, None], t)
                    rows = []
                    for side in sides:
                        pr, pz = (xr, zz) if side == "x" else (yr, zy)
                        h_r = _hat(*_interp_slots(rn, base_i[sel, None], pr), 4)
                        h_z = _hat(*_interp_slots(zn, base_j[sel, None], pz), 4)
                        row = h_r[:, :, None, :, None] * h_z[:, None, :, None, :]
                        rows.append(row.reshape(sel.size, -1, 16))
                    wq = coef * wq.reshape(sel.size, -1)
                    f = np.einsum("pq,pqa,pqb->pab", wq, *rows)
                    L += f if sides[0] == sides[1] else 0.5 * (f + f.transpose(0, 2, 1))
            out.append((sel, L))
    return out


@pytest.mark.parametrize("orders", ["fine", "coarse"])
@pytest.mark.parametrize("weight", ["none", "gamma0", ("power", 1.0)], ids=str)
@pytest.mark.parametrize("n", [3, 4])
def test_factorised_near_forms_match_dense_rows(n, weight, orders):
    # the near forms are a radial and a vertical factor per sample, joined
    # by one product per pair; the dense rows hat_r (x) h_z and their einsum
    # give the same forms up to rounding, block by block (interior and
    # boundary pairs), within 2e-12 of the block's largest entry (up to
    # 1.14e-12 seen on these grids)
    g = make_grid(n, 2.0, 7, 6, (1.5, 2.0))
    order = "curvature" if weight == "gamma0" else "energy"
    params = getattr(KernelParams, order)(n, 0.75)
    wfn = energy._weight(weight)[1]
    orders = energy._FINE_ORDERS if orders == "fine" else energy._COARSE_ORDERS
    blocks = energy._near_local_forms(g, params, 0.75, wfn, orders)[3]
    want = _dense_near_blocks(g, params, 0.75, wfn, orders)
    assert len(blocks) == len(want) == 8
    for (sel, fn), (sel_d, L_d) in zip(blocks, want):
        assert np.array_equal(sel, sel_d)
        L = fn()
        assert np.max(np.abs(L - L_d)) <= 2e-12 * np.max(np.abs(L_d))


_BAD_WEIGHTS = [
    ("power",),
    ("power", "x"),
    ("power", float("nan")),
    ("power", float("inf")),
    ("power", -0.5),
    ("power", True),
    ["power", 1.0],
    "bogus",
]


@pytest.mark.parametrize("weight", _BAD_WEIGHTS, ids=repr)
def test_bad_weight_spec_fails_before_any_build(weight, setup4, monkeypatch):
    g, tab, f = setup4
    built = []
    monkeypatch.setattr(energy, "AssembledForm", lambda *a: built.append(a))
    cached = list(energy._cache)
    with pytest.raises(InvalidParams, match=re.escape(repr(weight))):
        weighted_seminorm(f, tab, weight)
    with pytest.raises(InvalidParams, match=re.escape(repr(weight))):
        assemble(g, tab, 0.75, weight)
    assert built == [] and list(energy._cache) == cached


def test_int_and_float_power_share_one_build(monkeypatch):
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    monkeypatch.setattr(energy, "_cache", OrderedDict())
    built = []
    form_cls = energy.AssembledForm
    monkeypatch.setattr(
        energy, "AssembledForm", lambda *a: built.append(a) or form_cls(*a)
    )
    form = assemble(g, tab, 0.75, ("power", 1))
    assert assemble(g, tab, 0.75, ("power", 1.0)) is form
    assert len(built) == 1


def test_cache_keeps_the_two_latest_forms(monkeypatch):
    # two keys used in turn build each form once; a third key evicts the
    # least recently used form and leaves two cached
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    monkeypatch.setattr(energy, "_cache", OrderedDict())
    built = []
    form_cls = energy.AssembledForm
    monkeypatch.setattr(
        energy, "AssembledForm", lambda *a: built.append(a[3]) or form_cls(*a)
    )
    for _ in range(3):
        for weight in ("none", ("power", 1.0)):
            assemble(g, tab, 0.75, weight)
    assert built == ["none", ("power", 1.0)]
    assemble(g, tab, 0.75, ("power", 2.0))
    assert len(energy._cache) == 2
    assemble(g, tab, 0.75, ("power", 1.0))
    assert built == ["none", ("power", 1.0), ("power", 2.0)]


def test_signed_layout_table_gives_the_same_operators(tmp_path, monkeypatch):
    # tables written before they held t >= 0 only kept each value twice, at
    # +t and copied at -t; such a file still loads and gives the same bits
    g = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))

    def mirror(a):
        return np.concatenate([a[..., :0:-1], a], axis=-1)

    signed = dataclasses.replace(
        tab,
        t_nodes=np.concatenate([-tab.t_nodes[:0:-1], tab.t_nodes]),
        values=mirror(tab.values),
        near_diag_mask=mirror(tab.near_diag_mask),
    )
    path = str(tmp_path / "signed.rsob")
    save_table(signed, path)
    old = load_table(path)
    assert old.t_nodes.size == 2 * tab.t_nodes.size - 1 and old.t_nodes[0] < 0
    monkeypatch.setattr(energy, "_cache", OrderedDict())
    new_form = assemble(g, tab, 0.75)
    # both tables have the same cache key
    energy._cache.clear()
    old_form = assemble(g, old, 0.75)
    assert old_form is not new_form
    assert np.array_equal(old_form.M, new_form.M)
    assert np.array_equal(old_form.H, new_form.H)


def test_exterior_needs_lam(setup4):
    _, tab, f = setup4
    with pytest.raises(InvalidParams, match="lam"):
        weighted_seminorm(f, tab, ("power", 1.0), exterior=True)


def _tail_energy_one_pass(field, params):
    """The tail energy as one pass over all pairs of the tail grid: every
    index-difference matrix and one kernel call at once (the reference for
    energy._tail_energy, which walks the same pairs in blocks of rows)."""
    grid = field.grid
    R = grid.R_max
    sub = max(1, (grid.r_nodes.size - 1) // 16)
    r_in = grid.r_nodes[::sub]
    z_in = grid.z_nodes[::sub]
    if r_in[-1] != grid.r_nodes[-1]:
        r_in = np.append(r_in, grid.r_nodes[-1])
    if z_in[-1] != grid.z_nodes[-1]:
        z_in = np.append(z_in, grid.z_nodes[-1])
    ext = R * np.geomspace(1.0, 24.0, 15)[1:]
    r_ax = np.concatenate([r_in, ext])
    z_ax = np.concatenate([z_in, ext])
    wr = energy._box_masses(r_ax, grid.n - 2)
    wz = energy._box_masses(z_ax, 0)
    RR, ZZ = np.meshgrid(r_ax, z_ax, indexing="ij")
    inner = ((RR <= R) & (ZZ <= R)).ravel()
    uf = eval_u(field, RR.ravel(), ZZ.ravel())
    ub = np.where(inner, uf, 0.0)
    wf = (wr[:, None] * wz[None, :]).ravel()
    nr, nz = r_ax.size, z_ax.size
    ri = np.repeat(np.arange(nr), nz)
    zi = np.tile(np.arange(nz), nr)
    rr = np.repeat(r_ax, nz)
    zz = np.tile(z_ax, nr)
    drr = np.abs(ri[:, None] - ri[None, :])
    dzz = np.abs(zi[:, None] - zi[None, :])
    ok = (drr > 1) | (dzz > 1)
    ok &= ~(inner[:, None] & inner[None, :])
    ii, jj = np.where(ok)
    KV_flat = energy.kernel_values(rr[ii], rr[jj], zz[ii] - zz[jj], params)
    diffs = (uf[ii] - uf[jj]) ** 2 - (ub[ii] - ub[jj]) ** 2
    energy_tail = float(np.sum(wf[ii] * wf[jj] * KV_flat * diffs))
    return energy_tail * energy.sphere_surface(grid.n - 2)


@pytest.mark.parametrize("n", [3, 4])
def test_tail_energy_blocks_match_one_pass(n, monkeypatch):
    # bit for bit, also for odd n, where the kernel is summed on panels
    g = make_grid(n, 12.0, 12, 12, (2.0, 2.0))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    params = KernelParams.energy(n, 0.75)
    want = _tail_energy_one_pass(f, params)
    plain = energy.kernel_values
    calls = []

    def counted(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(energy, "kernel_values", counted)
    got = energy._tail_energy(f, params)
    assert len(calls) > 1  # the pairs went in several blocks
    assert got == want and got != 0.0


def _near_pairs_reference(nr, nz):
    """The near pairs as enumerated before _box_pairs: (ga, gb, mult)."""
    offsets = [(0, 0, 1.0), (0, 1, 2.0), (1, -1, 2.0), (1, 0, 2.0), (1, 1, 2.0)]
    ga, gb, mult = [], [], []
    for di, dj, m in offsets:
        ii, jj = np.meshgrid(np.arange(nr), np.arange(nz), indexing="ij")
        ok = (ii + di < nr) & (jj + dj >= 0) & (jj + dj < nz)
        ga.append(ii[ok] * nz + jj[ok])
        gb.append((ii[ok] + di) * nz + jj[ok] + dj)
        mult.append(np.full(ok.sum(), m))
    return tuple(np.concatenate(a) for a in (ga, gb, mult))


def _mid_pairs_reference(nr, nz, ring):
    """The mid-ring pairs as enumerated before _box_pairs: (ga, gb)."""
    ga, gb = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for di in range(0, ring + 1):
        for dj in range(-ring, ring + 1):
            if max(di, abs(dj)) < 2 or (di == 0 and dj < 0):
                continue
            ii = np.arange(0, nr - di)
            jj = np.arange(max(0, -dj), min(nz, nz - dj))
            if ii.size and jj.size:
                I, J = np.repeat(ii, jj.size), np.tile(jj, ii.size)
                ga.append(I * nz + J)
                gb.append((I + di) * nz + J + dj)
    return np.concatenate(ga), np.concatenate(gb)


def _pairs(nr, nz, ring_lo, ring_hi):
    """(ga, gb, mult) from _box_pairs, mult 1 on the self pair, else 2."""
    ga, gb = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    mult = [np.zeros(0)]
    for di, dj, I, J in energy._box_pairs(nr, nz, ring_lo, ring_hi):
        ga.append(I * nz + J)
        gb.append((I + di) * nz + J + dj)
        mult.append(np.full(I.size, 1.0 if di == dj == 0 else 2.0))
    return tuple(np.concatenate(a) for a in (ga, gb, mult))


# square, non-square and tiny box grids; on the tiny ones some offsets (or
# all of the mid ring) are empty
_BOX_GRIDS = [(17, 17), (9, 23), (23, 6), (5, 5), (2, 3), (3, 1), (1, 4)]


@pytest.mark.parametrize("nr,nz", _BOX_GRIDS)
def test_box_pairs_match_the_former_enumerations(nr, nz):
    ga, gb, mult = _pairs(nr, nz, 0, 1)
    for got, want in zip((ga, gb, mult), _near_pairs_reference(nr, nz)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    ga, gb, _ = _pairs(nr, nz, 2, energy._MID_RING)
    for got, want in zip((ga, gb), _mid_pairs_reference(nr, nz, energy._MID_RING)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_near_and_mid_forms_take_their_pairs_from_box_pairs():
    g = make_grid(3, 1.0, 4, 11, (1.0, 1.5))
    nr, nz = g.shape
    sigma = 0.75
    params = KernelParams.energy(3, sigma)
    ga, gb, _ = _near_pairs_reference(nr, nz)
    _, near_ga, near_gb, _ = energy._near_local_forms(g, params, sigma, None, (2, 1, 1))
    assert np.array_equal(near_ga, ga) and np.array_equal(near_gb, gb)
    ga, gb = _mid_pairs_reference(nr, nz, energy._MID_RING)
    _, _, mid_ga, mid_gb, _ = energy._mid_pair_forms(g, params, sigma, None)
    assert np.array_equal(mid_ga, ga) and np.array_equal(mid_gb, gb)


def test_assemble_checks_its_inputs_before_the_cache(monkeypatch):
    g8 = make_grid(4, 1.0, 8, 8, (1.0, 1.5))
    g6 = make_grid(4, 1.0, 6, 6, (1.0, 1.5))
    tab_e = build_kernel_table(g8, KernelParams.energy(4, 0.75))
    tab_c = build_kernel_table(g8, KernelParams.curvature(4, 0.75))
    monkeypatch.setattr(energy, "_cache", OrderedDict())
    form = assemble(g8, tab_e, 0.75)  # a cached form a bad call could hit
    cached = dict(energy._cache)
    built = []
    monkeypatch.setattr(energy, "AssembledForm", lambda *a: built.append(a))
    with pytest.raises(GridMismatch):
        assemble(g6, tab_e, 0.75)
    with pytest.raises(InvalidParams, match="sigma"):
        assemble(g8, tab_e, 0.6)
    with pytest.raises(TableExponentMismatch):
        assemble(g8, tab_e, 0.75, "gamma0")
    with pytest.raises(TableExponentMismatch):
        assemble(g8, tab_c, 0.75)
    assert built == [] and dict(energy._cache) == cached
    assert assemble(g8, tab_e, 0.75) is form


@pytest.fixture
def builds(monkeypatch):
    """An empty operator cache, and a Counter of the families the builds
    that follow make: fine and coarse near forms, and exterior forms."""
    monkeypatch.setattr(energy, "_cache", OrderedDict())
    built = Counter()
    near, exterior = energy._near_local_forms, energy._exterior_forms

    def counted_near(grid, params, sigma, wfn, orders):
        built["coarse" if orders == energy._COARSE_ORDERS else "fine"] += 1
        return near(grid, params, sigma, wfn, orders)

    def counted_exterior(*args):
        built["exterior"] += 1
        return exterior(*args)

    monkeypatch.setattr(energy, "_near_local_forms", counted_near)
    monkeypatch.setattr(energy, "_exterior_forms", counted_exterior)
    return built


def test_gamma0_builds_neither_coarse_nor_exterior_forms(builds):
    # two curvature operators read only their ball sums, and the one power
    # operator of tail_bound reads H, so the exterior forms, for its
    # exterior pairs; no call reads quad_error_estimate
    g = make_grid(4, 12.0, 10, 10, (2.0, 2.0))
    theta = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    estimate_gamma0(theta, grids=(8, 10))
    assert builds == {"fine": 3, "exterior": 1}


def test_tail_bound_and_quotient_build_no_coarse_forms(setup_graded, builds):
    g, tab, f = setup_graded
    tail_bound(f, 0.6, 1.0, table=tab)
    assert builds == {"fine": 1, "exterior": 1}
    builds.clear()
    rayleigh_quotient(f, tab)
    assert builds == {"fine": 1, "exterior": 1}


def test_seminorm_builds_every_family(setup4, builds):
    _, tab, f = setup4
    seminorm(f, tab)
    assert builds == {"fine": 1, "coarse": 1, "exterior": 1}


_BAD_RADII = [-0.6, 0.0, float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("lam", _BAD_RADII)
def test_bad_ball_radius_fails_before_any_build(lam, setup_graded, builds, monkeypatch):
    # a negative radius used to give the sums of |lam|, and NaN an empty ball
    g, tab, f = setup_graded
    tables = []
    monkeypatch.setattr(gamma0, "build_kernel_table", lambda *a: tables.append(a))
    for ext in (False, True):
        with pytest.raises(InvalidParams, match=f"lam .* got {lam}"):
            weighted_seminorm(f, tab, ("power", 1.0), lam=lam, exterior=ext)
    with pytest.raises(InvalidParams, match=f"lam .* got {lam}"):
        tail_bound(f, lam, 1.0)
    with pytest.raises(InvalidParams, match=f"lam .* got {lam}"):
        gamma0.interior_weighted_growth(f, lam, 1.0)
    assert builds == {} and not energy._cache and tables == []


@pytest.mark.parametrize("bad", _BAD_RADII)
def test_bad_truncation_radius_fails_before_any_build(bad, builds, monkeypatch):
    # a negative radius used to reach the fit, where LAPACK failed untyped
    g = make_grid(4, 12.0, 10, 10, (2.0, 2.0))
    theta = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    tables = []
    monkeypatch.setattr(gamma0, "build_kernel_table", lambda *a: tables.append(a))
    schedule = (bad, 4.0, 5.0, 7.0)
    with pytest.raises(InvalidGamma, match=re.escape(f"got {schedule}")):
        estimate_gamma0(theta, schedule=schedule, grids=(8, 10))
    assert builds == {} and not energy._cache and tables == []


@pytest.mark.parametrize("p", [0.0, -2.0, float("nan"), float("inf")])
def test_lp_norm_needs_finite_positive_p(p, setup4):
    _, _, f = setup4
    with pytest.raises(InvalidParams, match=f"got {p}"):
        lp_norm(f, p)


def _report(**kw):
    base = dict(
        value=1.0,
        grid_extrapolation_error=0.1,
        truncation_tail_bound=0.2,
        lambda_schedule=(2.0, 3.0),
        sign_verdict="positive",
    )
    return Gamma0Report(**dict(base, **kw))


_FLAT = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
_SLICE = SliceProfile(np.linspace(0.0, 1.0, 6), np.ones(6), 2)
_CHART_PAIR = (np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.3, 0.1, 0.2, 0.5]))
# every caller-supplied real, and the sample counts and seeds of the sampled
# checks: its typed error, its name, and a call that hands it the bad value
# x on the field f with its energy table t
_REAL_INPUTS = {
    "weight-gamma": (
        InvalidParams, "gamma", lambda x, f, t: weighted_seminorm(f, t, ("power", x))
    ),
    "ball-lam": (
        InvalidParams, "lam", lambda x, f, t: weighted_seminorm(f, t, "none", lam=x)
    ),
    "lp_norm-p": (InvalidParams, "p", lambda x, f, t: lp_norm(f, x)),
    "kernel-sigma": (InvalidParams, "sigma", lambda x, f, t: KernelParams.energy(4, x)),
    "curvature-sigma": (
        InvalidParams, "sigma", lambda x, f, t: KernelParams.curvature(4, x)
    ),
    "grid-R_max": (InvalidParams, "R_max", lambda x, f, t: make_grid(4, x, 8, 8)),
    "grid-grading": (
        InvalidGrading, "grading", lambda x, f, t: make_grid(4, 1.0, 8, 8, (2.0, x))
    ),
    "dilate_exact-lam": (InvalidParams, "lam", lambda x, f, t: dilate_exact(f, x)),
    "scale_field-lam": (InvalidParams, "lam", lambda x, f, t: scale_field(f, x)),
    "solver-tol_quotient": (
        InvalidParams, "tol_quotient", lambda x, f, t: SolverConfig(tol_quotient=x)
    ),
    "solver-tol_residual": (
        InvalidParams, "tol_residual", lambda x, f, t: SolverConfig(tol_residual=x)
    ),
    "solver-init_noise": (
        InvalidParams, "init_noise", lambda x, f, t: SolverConfig(init_noise=x)
    ),
    "tail_bound-gamma": (InvalidGamma, "gamma", lambda x, f, t: tail_bound(f, 0.6, x)),
    "tail_bound-lam": (InvalidParams, "lam", lambda x, f, t: tail_bound(f, x, 0.5)),
    "growth-gamma": (
        InvalidGamma, "gamma", lambda x, f, t: interior_weighted_growth(f, 0.6, x)
    ),
    "growth-lam": (
        InvalidParams, "lam", lambda x, f, t: interior_weighted_growth(f, x, 0.5)
    ),
    "gamma0-schedule": (
        InvalidGamma,
        "schedule",
        lambda x, f, t: estimate_gamma0(f, schedule=(x, 0.6), grids=(8, 10)),
    ),
    "report-value": (InvalidParams, "value", lambda x, f, t: _report(value=x)),
    "report-grid_extrapolation_error": (
        InvalidParams,
        "grid_extrapolation_error",
        lambda x, f, t: _report(grid_extrapolation_error=x),
    ),
    "report-truncation_tail_bound": (
        InvalidParams,
        "truncation_tail_bound",
        lambda x, f, t: _report(truncation_tail_bound=x),
    ),
    "report-lambda_schedule": (
        InvalidParams,
        "lambda_schedule",
        lambda x, f, t: _report(lambda_schedule=(2.0, x)),
    ),
    "graph-alpha": (
        InvalidParams, "alpha", lambda x, f, t: BoundaryGraph(alpha=(0.0, x, 0.0))
    ),
    "graph-g_coeffs": (
        InvalidParams,
        "g_coeffs",
        lambda x, f, t: BoundaryGraph(
            alpha=(0.0, 0.0, 0.0), g_kind="polynomial", g_coeffs=(x,)
        ),
    ),
    **{
        f"graph-{name}": (
            InvalidParams,
            name,
            lambda x, f, t, name=name: BoundaryGraph(alpha=(0.0,) * 3, **{name: x}),
        )
        for name in ("R0", "delta0", "epsilon0", "mu")
    },
    "dilate_graph-mu": (InvalidParams, "mu", lambda x, f, t: dilate_graph(_FLAT, x)),
    "cutoff_profile-lam": (InvalidParams, "lam", lambda x, f, t: cutoff_profile(f, x)),
    "curvature_term-lam": (
        InvalidParams, "lam", lambda x, f, t: curvature_term(f, x, _FLAT, _report())
    ),
    "verify-lam": (
        InvalidParams,
        "lam",
        lambda x, f, t: verify_upper_bound(f, _report(), _FLAT, [2.5, x]),
    ),
    "cw_cutoff_check-lam": (
        InvalidParams, "lam", lambda x, f, t: cw_cutoff_check(f, x, sample_count=100)
    ),
    "slice_lp_norm-p": (InvalidParams, "p", lambda x, f, t: slice_lp_norm(_SLICE, x)),
    "slice_interaction-t": (
        SingularAtZeroSeparation,
        "t",
        lambda x, f, t: slice_interaction(_SLICE, _SLICE, x, 4, 0.75),
    ),
    "mc-max_rel_stderr": (
        InvalidParams, "max_rel_stderr", lambda x, f, t: MCConfig(max_rel_stderr=x)
    ),
    "field-sigma": (
        InvalidParams, "sigma", lambda x, f, t: RadialField(f.grid, f.regular_values, x)
    ),
    "synthesize_profile-sigma": (
        InvalidParams,
        "sigma",
        lambda x, f, t: synthesize_profile("envelope", f.grid, x),
    ),
    "bounds_check-sigma": (
        InvalidParams, "sigma", lambda x, f, t: bounds_check(_FLAT, 100, sigma=x)
    ),
    "correction_terms-sigma": (
        InvalidParams, "sigma", lambda x, f, t: correction_terms(_FLAT, *_CHART_PAIR, x)
    ),
    "a1_constant-sigma": (InvalidParams, "sigma", lambda x, f, t: a1_constant(4, x)),
    "bounds_check-sample_count": (
        InvalidParams, "sample_count", lambda x, f, t: bounds_check(_FLAT, x)
    ),
    "bounds_check-seed": (
        InvalidParams, "seed", lambda x, f, t: bounds_check(_FLAT, 100, seed=x)
    ),
    "cw_cutoff_check-sample_count": (
        InvalidParams, "sample_count", lambda x, f, t: cw_cutoff_check(f, 2.0, x)
    ),
    "cw_cutoff_check-seed": (
        InvalidParams, "seed", lambda x, f, t: cw_cutoff_check(f, 2.0, 100, seed=x)
    ),
}
# the values that are valid there: inf for a Gamma0Report's error terms (a
# one-grid estimate has no grid error) and None for a ball radius (no ball)
_VALID = {
    ("report-grid_extrapolation_error", "inf"),
    ("report-truncation_tail_bound", "inf"),
    ("ball-lam", "None"),
    ("growth-lam", "None"),
}


@pytest.mark.parametrize(
    "site, bad",
    [
        (site, bad)
        for site in _REAL_INPUTS
        for bad in ("x", None, True, float("nan"), float("inf"))
        if (site, repr(bad)) not in _VALID
    ],
)
def test_each_real_input_is_checked_by_name(
    site, bad, setup_graded, builds, monkeypatch
):
    # no bad value may reach the arithmetic (an untyped error) or pass as a
    # number (True as 1)
    _, tab, f = setup_graded
    tables = []
    for mod in (gamma0, expansion, minimize):
        monkeypatch.setattr(mod, "build_kernel_table", lambda *a: tables.append(a))
    error, name, call = _REAL_INPUTS[site]
    with pytest.raises(error, match=rf"\b{name} .*{re.escape(repr(bad))}"):
        call(bad, f, tab)
    assert builds == {} and not energy._cache and tables == []


_OUT_OF_RANGE = {
    "field-0.3": ("sigma", lambda f: RadialField(f.grid, f.regular_values, 0.3)),
    "synthesize_profile-0.3": (
        "sigma", lambda f: synthesize_profile("envelope", f.grid, 0.3)
    ),
    "bounds_check-0.3": ("sigma", lambda f: bounds_check(_FLAT, 100, sigma=0.3)),
    "correction_terms-2.0": (
        "sigma", lambda f: correction_terms(_FLAT, *_CHART_PAIR, sigma=2.0)
    ),
    "a1_constant-1.5": ("sigma", lambda f: a1_constant(4, 1.5)),
    "bounds_check-count-0": ("sample_count", lambda f: bounds_check(_FLAT, 0)),
    "bounds_check-count-2.5": ("sample_count", lambda f: bounds_check(_FLAT, 2.5)),
    "bounds_check-seed--1": ("seed", lambda f: bounds_check(_FLAT, 100, seed=-1)),
    "cw_cutoff_check-count-0": ("sample_count", lambda f: cw_cutoff_check(f, 2.0, 0)),
    "cw_cutoff_check-seed--1": (
        "seed", lambda f: cw_cutoff_check(f, 2.0, 100, seed=-1)
    ),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_sigma_count_and_seed_are_typed_errors(case, setup_graded):
    # numbers of the right type outside their range: a sigma outside (1/2, 1)
    # gave 0 violations or a value, and a sample count of 0 a check of no
    # pairs that passed
    _, _, f = setup_graded
    name, call = _OUT_OF_RANGE[case]
    with pytest.raises(InvalidParams, match=rf"\b{name} "):
        call(f)


@pytest.mark.parametrize("name", sorted(_FAMILY_SUMS))
def test_read_order_keeps_the_bits(name, request):
    # ball sums read the per-pair forms, the full energy reads H and its
    # exterior forms: each family has the same bits whichever is read first
    g, tab, f = request.getfixturevalue(name)
    weight = _FAMILY_SUMS[name]["weight"]
    v = f.regular_values
    sel = energy._ball_sel(assemble(g, tab, 0.75, weight), 0.6)
    ball_first = AssembledForm(g, tab, 0.75, weight)
    got_b = (ball_first.ball(v, sel), ball_first.energy(v))
    energy_first = AssembledForm(g, tab, 0.75, weight)
    e = energy_first.energy(v)
    got_e = (energy_first.ball(v, sel), e)
    assert got_b == got_e
    one, other = vars(ball_first), vars(energy_first)
    assert set(one) == set(other)
    for k, a in one.items():
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, other[k]), k


@pytest.mark.parametrize("name", sorted(_FAMILY_SUMS))
def test_totals_are_the_parts_totals(name, request):
    # weighted_seminorm is energy(), ball() and energy() - ball() in its
    # three modes, and _seminorm_total is seminorm's total without the
    # coarse near forms
    g, tab, f = request.getfixturevalue(name)
    weight = _FAMILY_SUMS[name]["weight"]
    form = assemble(g, tab, 0.75, weight)
    v = f.regular_values
    e, b = form.energy(v), form.ball(v, energy._ball_sel(form, 0.6))
    want = {(None, False): e, (0.6, False): b, (0.6, True): e - b}
    for (lam, ext), total in want.items():
        got = weighted_seminorm(f, tab, weight, lam=lam, exterior=ext)
        assert type(got) is float and got == total
    if weight == "none":
        for fld in (f, attach_tail_model(f)):
            assert energy._seminorm_total(fld, tab) == seminorm(fld, tab).total


def _four_corner_mass(field, p):
    """Reference for the mass rule's mass_grad: the cell-wise rule with the
    interpolant written out one cell corner at a time, and the gradient
    added into the four corners of each cell."""
    grid = field.grid
    vt = field.regular_values
    q = energy._MASS_ORDER
    ra, rb = grid.r_nodes[:-1], grid.r_nodes[1:]
    RQ, WR = gauss_nodes(ra, rb - ra, q, power=grid.n - 2)
    fr = ((RQ - ra[:, None]) / (rb - ra)[:, None])[:, :, None, None]
    za, zb = grid.z_nodes[:-1], grid.z_nodes[1:]
    ap = (2 * field.sigma - 1) * p
    ZQ, WZ = energy._z_rule(za, zb, np.zeros(za.size), ap, 0.0, q)
    fz = ((ZQ - za[:, None]) / (zb - za)[:, None])[None, None]
    lo, hi = slice(None, -1), slice(1, None)
    corners = (
        (lo, lo, (1 - fr) * (1 - fz)),
        (hi, lo, fr * (1 - fz)),
        (lo, hi, (1 - fr) * fz),
        (hi, hi, fr * fz),
    )
    vals = sum(vt[i, None, j, None] * w for i, j, w in corners)
    W = WR[:, :, None, None] * WZ[None, None]
    G = p * W * np.abs(vals) ** (p - 1) * np.sign(vals)
    grad = np.zeros(grid.shape)
    for i, j, w in corners:
        grad[i, j] += np.sum(G * w, axis=(1, 3))
    return float(np.sum(W * np.abs(vals) ** p)), grad


@pytest.mark.parametrize("grading", [(1.0, 1.0), (2.0, 1.5)], ids=["uniform", "graded"])
@pytest.mark.parametrize("n", [3, 4])
def test_mass_rule_matches_four_corners(n, grading):
    # the mass and its gradient through the _hat rows of the quadrature
    # points agree with the corner-by-corner rule up to rounding
    g = make_grid(n, 6.0, 14, 12, grading)
    f = synthesize_profile("interior-bubble", g, 0.75)
    # a sign change, so that the gradient's sign factor takes both signs
    f = f.with_values(f.regular_values - 0.2 * np.max(f.regular_values))
    p = critical_p(n, 0.75)
    mass_of, mass_grad = energy._mass_rule(g, 0.75, p)
    mass, grad = mass_grad(f.regular_values)
    want_mass, want_grad = _four_corner_mass(f, p)
    assert mass == mass_of(f.regular_values)
    assert abs(mass - want_mass) <= 1e-14 * want_mass
    assert np.max(np.abs(grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))


@pytest.mark.parametrize("n", [3, 4])
def test_mass_rule_is_the_norm_of_a_field_without_tail(n):
    # the descent's norm, (sph * mass(vt)) ** (1/p) from one rule per grid,
    # is lp_norm bit for bit for a field with no tail, and mass_grad's mass
    # is mass's; a rule built once serves any values on its grid
    g = make_grid(n, 8.0, 12, 12)
    f = synthesize_profile("interior-bubble", g, 0.75)
    p = critical_p(n, 0.75)
    mass, mass_grad = energy._mass_rule(g, 0.75, p)
    sph = sphere_surface(n - 2)
    rng = np.random.default_rng(n)
    for vt in (f.regular_values, rng.uniform(0.0, 1.0, g.shape)):
        assert (sph * mass(vt)) ** (1.0 / p) == lp_norm(f.with_values(vt), p)
        assert mass_grad(vt)[0] == mass(vt)
