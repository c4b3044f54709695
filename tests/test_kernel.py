import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from regsob import kernel
from regsob.errors import DiagonalSingularity, InvalidParams, OutOfMemoryEstimate
from regsob.field import make_grid
from regsob.kernel import (
    KernelParams,
    build_kernel_table,
    gauss_nodes,
    gauss_rule,
    grouped_t_nodes,
    kernel_values,
    sphere_surface,
    t_index_map,
)


def direct_sphere_quad(n, p, r, s, t):
    """Independent oracle: adaptive quadrature over the polar angle."""
    d = n - 2
    c = r * r + s * s + t * t

    def f(phi):
        return np.sin(phi) ** (d - 1) * (c - 2 * r * s * np.cos(phi)) ** (-p / 2)

    val, _ = quad(f, 0.0, np.pi, limit=200)
    return sphere_surface(d - 1) * val


def test_params_validation():
    with pytest.raises(InvalidParams):
        KernelParams(1, 0.75, 3.5)
    with pytest.raises(InvalidParams):
        KernelParams(4, 0.4, 4.8)
    with pytest.raises(InvalidParams):
        KernelParams(4, 0.75, 5.0)
    # a dimension that is not an integer >= 2 is named, whatever its type
    for n in (float("nan"), float("inf"), "4", 4.0, True, 1):
        with pytest.raises(InvalidParams, match="n must be an integer >= 2"):
            KernelParams.energy(n, 0.75)
    assert KernelParams.energy(np.int64(4), 0.75).n == 4
    assert KernelParams.energy(4, 0.75).p == pytest.approx(5.5)
    assert KernelParams.curvature(4, 0.75).p == pytest.approx(7.5)


def test_axis_value_closed_form():
    # r s = 0 makes the angular integrand constant
    par = KernelParams.energy(4, 0.75)
    got = float(kernel_values(0.0, 1.0, 1.0, par))
    assert got == pytest.approx(4 * np.pi * 2 ** (-par.p / 2), rel=1e-14)


def test_symmetries():
    par = KernelParams.energy(5, 0.8)
    a = float(kernel_values(0.7, 1.9, 0.4, par))
    assert float(kernel_values(1.9, 0.7, 0.4, par)) == pytest.approx(a, rel=1e-14)
    assert float(kernel_values(0.7, 1.9, -0.4, par)) == pytest.approx(a, rel=1e-14)


def test_n2_two_point_sum():
    par = KernelParams.energy(2, 0.75)
    r, s, t = 0.8, 1.3, 0.2
    expect = ((r - s) ** 2 + t * t) ** (-par.p / 2) + ((r + s) ** 2 + t * t) ** (
        -par.p / 2
    )
    assert float(kernel_values(r, s, t, par)) == pytest.approx(expect, rel=1e-14)


def test_n4_closed_form_vs_quadrature_oracle():
    par = KernelParams.energy(4, 0.75)
    got = float(kernel_values(1.0, 1.0, 1.0, par))
    assert got == pytest.approx(direct_sphere_quad(4, par.p, 1.0, 1.0, 1.0), rel=1e-10)


@pytest.mark.parametrize("n,r,s,t", [(3, 0.3, 2.1, 0.05), (5, 1.2, 0.7, 0.3), (6, 0.5, 0.55, 0.01)])
def test_general_n_vs_quadrature_oracle(n, r, s, t):
    par = KernelParams.energy(n, 0.75)
    got = float(kernel_values(r, s, t, par))
    assert got == pytest.approx(direct_sphere_quad(n, par.p, r, s, t), rel=1e-9)


def test_scaling_law():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        par = KernelParams.energy(n, 0.65)
        for _ in range(5):
            r, s, t = rng.uniform(0.05, 3.0, 3)
            base = float(kernel_values(r, s, t, par))
            for lam in (0.5, 2.0):
                got = float(kernel_values(lam * r, lam * s, lam * t, par))
                assert got == pytest.approx(lam ** (-par.p) * base, rel=1e-9)


def test_diagonal_singularity_raises():
    par = KernelParams.energy(4, 0.75)
    with pytest.raises(DiagonalSingularity):
        float(kernel_values(1.0, 1.0, 0.0, par))


def test_monotone_decreasing_in_abs_t():
    par = KernelParams.energy(4, 0.75)
    ts = np.linspace(0.05, 3.0, 40)
    vals = kernel_values(1.0, 1.4, ts, par)
    assert np.all(np.diff(vals) < 0)


def test_reduction_matches_full_dimension_monte_carlo():
    # average |xi - zeta|^(-p) over a uniform relative angle vs the reduced kernel
    n, sigma = 4, 0.75
    par = KernelParams.energy(n, sigma)
    rng = np.random.default_rng(11)
    r, s, t = 1.1, 0.6, 0.8
    m = 200_000
    # uniform directions on S^(n-2)
    w = rng.normal(size=(m, n - 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    dist2 = r * r + s * s - 2 * r * s * w[:, 0] + t * t
    samples = dist2 ** (-par.p / 2)
    est = samples.mean() * sphere_surface(n - 2)
    err = samples.std(ddof=1) / np.sqrt(m) * sphere_surface(n - 2)
    assert abs(est - float(kernel_values(r, s, t, par))) < 3 * err


def test_table_shape_and_mask_contract():
    par = KernelParams.energy(4, 0.75)
    grid = make_grid(4, 1.0, 31, 31, (1.0, 1.0))
    tab = build_kernel_table(grid, par)
    assert tab.values.shape == (32, 32, 32)
    # mask true exactly where |i - j| <= 1 and |t| <= min cell size
    h = 1.0 / 31
    ii, jj, kk = np.indices(tab.values.shape)
    expect = (np.abs(ii - jj) <= 1) & (np.abs(tab.t_nodes[kk]) <= h * 1.000001)
    assert np.array_equal(tab.near_diag_mask, expect)


def test_table_values_match_pointwise_kernel():
    par = KernelParams.energy(3, 0.6)
    grid = make_grid(3, 2.0, 6, 6, (2.0, 2.0))
    tab = build_kernel_table(grid, par)
    idx = t_index_map(tab, grid)
    for (i, j, jz, lz) in [(0, 4, 1, 5), (3, 3, 0, 6), (5, 2, 4, 4)]:
        t = tab.t_nodes[idx[jz, lz]]
        if (grid.r_nodes[i] - grid.r_nodes[j]) ** 2 + t * t == 0:
            continue
        want = float(kernel_values(grid.r_nodes[i], grid.r_nodes[j], t, par))
        assert tab.values[i, j, idx[jz, lz]] == pytest.approx(want, rel=1e-13)


def test_table_symmetries_and_positivity():
    par = KernelParams.energy(4, 0.75)
    grid = make_grid(4, 4.0, 8, 8, (2.0, 2.0))
    tab = build_kernel_table(grid, par)
    assert np.array_equal(tab.values, tab.values.transpose(1, 0, 2))
    # one entry per |t|: the kernel is even in t
    assert tab.t_nodes[0] == 0.0 and np.all(np.diff(tab.t_nodes) > 0)
    assert np.all(tab.values[~tab.near_diag_mask] > 0)
    assert np.all(np.isfinite(tab.values))


def test_table_memory_guard():
    par = KernelParams.energy(4, 0.75)
    grid = make_grid(4, 4.0, 32, 32, (2.0, 2.0))
    with pytest.raises(OutOfMemoryEstimate):
        build_kernel_table(grid, par, max_bytes=1000)


@pytest.mark.parametrize("n,N", [(4, 32), (3, 24), (5, 16)])
def test_table_build_peaks_within_its_memory_estimate(n, N, monkeypatch):
    # max_bytes bounds the estimate nr * nr * nt * 9 bytes of the stored
    # table; the kernel is evaluated in slices of t columns, so the build
    # peaks at most at twice that plus a fixed floor for one slice (it
    # peaked at 10.7x, 32x and 31x the estimate in one call)
    grid = make_grid(n, 20.0, N, N, (2.0, 2.0))
    par = KernelParams.energy(n, 0.75)
    nr, nt = grid.r_nodes.size, grouped_t_nodes(grid.z_nodes)[0].size
    est = nr * nr * nt * 9
    tracemalloc.start()
    try:
        tab = build_kernel_table(grid, par)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * est + (8 << 20)
    # one column per slice gives the same bits
    monkeypatch.setattr(kernel, "_TABLE_SLICE", 1)
    assert np.array_equal(build_kernel_table(grid, par).values, tab.values)


# every (q,) and (q, a, b) the energy, kernel and rearrangement code asks for
# at n = 3..6, sigma = 0.75
_GAUSS_RULES = [(q,) for q in (2, 3, 4, 6, 12)] + [
    (2, 0.0, 0.5), (2, 0.0, 1.0), (3, 0.0, 0.5), (3, 0.0, 1.0),
    (4, 0.0, -0.5), (4, 0.0, 1.6), (4, 0.0, 2.0),
    (6, 0.0, -0.5), (6, 0.0, 0.5), (6, 0.0, 1.0),
    (12, -0.5, -0.5), (12, -0.5, 0.0), (12, 0.0, -0.5),
    (12, 0.0, 0.0), (12, 0.5, 0.5), (12, 0.5, 0.0), (12, 0.0, 0.5),
]


@pytest.mark.parametrize("args", _GAUSS_RULES, ids=str)
def test_gauss_rule_is_scipy_rule_read_only(args):
    x, w = gauss_rule(*args)
    want = roots_legendre(*args) if len(args) == 1 else roots_jacobi(*args)
    assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])
    assert gauss_rule(*args)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# every (q, power) the energy and rearrangement code asks gauss_nodes for at
# n = 2..6, sigma = 0.75: r^(n-2), z^a and z^(2a) with a = 2*sigma - 1, and
# z^(a p) with p the critical exponent at n = 3, 4
_NODE_ORDERS = (2, 3, 4, 6)
_NODE_POWERS = (0, 1, 2, 3, 4, 0.5, 1.0, 1.6, 2.0)


@pytest.mark.parametrize("q", _NODE_ORDERS)
def test_gauss_nodes_match_the_inline_rules_bit_for_bit(q):
    rng = np.random.default_rng(q)
    lo = rng.uniform(0.0, 5.0, 40)
    width = rng.uniform(0.0, 2.0, 40)
    width[0] = 0.0  # an empty panel, as _z_rule makes past the interval
    xg, wg = gauss_rule(q)
    for power in _NODE_POWERS:
        x, w = gauss_nodes(lo, width, q, power=power)
        # the two forms the callers wrote by hand: a scaled node fraction
        # with halved weights, or the scaled node and the width halved after
        xa = lo[:, None] + width[:, None] * ((xg[None, :] + 1.0) / 2.0)
        wa = width[:, None] * (wg[None, :] / 2.0) * xa ** power
        xb = lo[:, None] + width[:, None] * (xg[None, :] + 1) / 2
        wb = width[:, None] / 2 * wg[None, :] * xb ** power
        for want_x, want_w in ((xa, wa), (xb, wb)):
            assert np.array_equal(x, want_x) and np.array_equal(w, want_w)


@pytest.mark.parametrize("q", _NODE_ORDERS)
def test_gauss_nodes_integrate_polynomials_below_degree_2q(q):
    lo = np.array([0.0, 0.3, 1.7])
    width = np.array([1.0, 0.45, 2.2])
    x, w = gauss_nodes(lo, width, q)
    assert x.shape == w.shape == (3, q)
    hi = lo + width
    for k in range(2 * q):
        want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert np.allclose((w * x ** k).sum(axis=1), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("order", ["energy", "curvature"])
@pytest.mark.parametrize("n", [3, 5, 6])
def test_kernel_values_depend_only_on_their_point(n, order):
    # a batch, shuffled subsets of it and single 0-d points give the same
    # bits: the panel sums run node by node for each point, and a lone
    # point is taken as a 1-element array
    par = getattr(KernelParams, order)(n, 0.75)
    rng = np.random.default_rng(n)
    r, s, t = rng.uniform(0.0, 3.0, (3, 600))
    # near-diagonal points take many dyadic panels, axis points none
    r[:40] = s[:40] * (1.0 + rng.uniform(-1e-6, 1e-6, 40))
    t[:40] = rng.uniform(0.0, 1e-5, 40)
    r[40:50] = 0.0
    # two points whose (r - s)^2 and (r + s)^2 numpy's scalar pow rounds
    # unlike its array pow
    r[50:52], s[50:52], t[50:52] = (
        (2.83618985112866, 0.9871307965206845),
        (0.5857068374129966, 1.2286107326517166),
        (1.2006425604984778, 0.8884297025314182),
    )
    full = kernel_values(r, s, t, par)
    sub = np.empty_like(full)
    for part in np.array_split(rng.permutation(r.size), 7):
        sub[part] = kernel_values(r[part], s[part], t[part], par)
    single = [kernel_values(r[i], s[i], t[i], par) for i in range(r.size)]
    assert all(v.shape == () for v in single)
    assert np.array_equal(sub, full)
    assert np.array_equal(np.array(single), full)
    grid = kernel_values(r.reshape(20, 30), s.reshape(20, 30), t.reshape(20, 30), par)
    assert np.array_equal(grid.ravel(), full)


def test_n3_table_entries_are_the_pointwise_kernel_bit_for_bit():
    par = KernelParams.energy(3, 0.75)
    grid = make_grid(3, 2.0, 6, 6, (2.0, 2.0))
    tab = build_kernel_table(grid, par)
    r = grid.r_nodes
    seen = 0
    for k in np.flatnonzero(tab.t_nodes >= 0.0):
        t = tab.t_nodes[k]
        for i in range(r.size):
            for j in range(r.size):
                if r[i] == r[j] and t == 0.0:
                    continue
                assert tab.values[i, j, k] == float(kernel_values(r[i], r[j], t, par))
                seen += 1
    assert seen > 900
