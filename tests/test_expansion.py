import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from regsob import energy, expansion
from regsob.energy import critical_p, lp_norm, seminorm
from regsob.errors import (
    CoincidentPoints,
    InvalidParams,
    MissingGamma0,
    MonteCarloVarianceTooHigh,
    OutsideChart,
    UnknownKind,
)
from regsob.expansion import (
    BoundaryGraph,
    ExpansionVerdict,
    MCConfig,
    a1_constant,
    bounds_check,
    correction_terms,
    curvature_term,
    cutoff,
    cutoff_energy_deficit,
    cutoff_profile,
    cw_cutoff_check,
    dilate_graph,
    flatten_map,
    graph_height,
    unflatten_map,
    verify_upper_bound,
)
from regsob.field import (
    attach_tail_model,
    dilate_exact,
    make_grid,
    synthesize_profile,
)
from regsob.gamma0 import Gamma0Report
from regsob.kernel import KernelParams, build_kernel_table


@pytest.fixture(scope="module")
def envelope16():
    g = make_grid(4, 16.0, 16, 16, (2.0, 2.0))
    return attach_tail_model(synthesize_profile("envelope", g, 0.75))


def make_report(value):
    return Gamma0Report(
        value=value,
        grid_extrapolation_error=0.1,
        truncation_tail_bound=0.2,
        lambda_schedule=(4.0, 8.0),
        sign_verdict="positive",
        theta_provenance="test",
    )


def test_graph_height_arithmetic():
    bg = BoundaryGraph(alpha=(0.1, 0.1, 0.1))
    assert graph_height(bg, np.array([1.0, 1.0, 1.0])) == pytest.approx(0.15)


def test_graph_validation():
    with pytest.raises(InvalidParams):
        BoundaryGraph(alpha=())
    with pytest.raises(UnknownKind):
        BoundaryGraph(alpha=(0.1,), g_kind="wiggle")
    with pytest.raises(InvalidParams):
        BoundaryGraph(alpha=(0.1,), R0=-1.0)
    # a JSON boundary section may carry NaN or Infinity
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("R0", "delta0", "epsilon0", "mu"):
            with pytest.raises(InvalidParams, match=name):
                BoundaryGraph(alpha=(0.05,) * 3, **{name: bad})
        with pytest.raises(InvalidParams, match="alpha"):
            BoundaryGraph(alpha=(0.05, bad, 0.05))
        with pytest.raises(InvalidParams, match="g_coeffs"):
            BoundaryGraph(alpha=(0.05,) * 3, g_kind="polynomial", g_coeffs=(0.01, bad))
        with pytest.raises(InvalidParams, match="dilation factor mu"):
            dilate_graph(BoundaryGraph(alpha=(0.05,) * 3), bad)


def test_flatten_identity_and_roundtrip():
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    x = np.array([0.5, -0.3, 0.2, 1.0])
    assert np.allclose(flatten_map(flat, x), x)
    bg = BoundaryGraph(alpha=(0.1, -0.05, 0.02), g_kind="quadratic-taper", g_coeffs=(0.03,))
    xi = flatten_map(bg, x)
    assert np.max(np.abs(unflatten_map(bg, xi) - x)) < 1e-15


def test_chart_errors():
    bg = BoundaryGraph(alpha=(0.1, 0.1, 0.1), R0=2.0)
    with pytest.raises(OutsideChart):
        graph_height(bg, np.array([2.0, 1.0, 0.0]))
    with pytest.raises(OutsideChart):
        flatten_map(bg, np.array([1.0, 0.0, 0.0, 0.01]))


def test_corrections_flat_and_equal_heights():
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    ct = correction_terms(flat, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.3, 0.1, 0.2, 0.5]))
    assert ct["B"] == ct["C"] == ct["D"] == 0.0
    assert ct["A_times_kernel"] == 1.0
    bg = BoundaryGraph(alpha=(0.1, 0.1, 0.1))
    ct = correction_terms(bg, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.3, 0.1, 0.2, 0.4]))
    assert ct["B"] == 0.0
    assert ct["C"] == 0.0
    with pytest.raises(CoincidentPoints):
        correction_terms(bg, np.ones(4), np.ones(4))


def test_a1_minimal_over_interval():
    q = (4 + 1.5) / 2.0
    a = np.linspace(-0.5, 0.5, 200001)
    a = a[a != 0]
    ratio = ((1.0 + a) ** -q - 1.0 + q * a) / a ** 2
    assert a1_constant(4, 0.75) == pytest.approx(ratio.max(), rel=1e-8)


def test_taylor_inequality_random_pairs():
    bg = BoundaryGraph(
        alpha=(0.05, 0.05, 0.05), g_kind="quadratic-taper", g_coeffs=(0.05,)
    )
    rng = np.random.default_rng(7)
    q = (4 + 1.5) / 2.0
    for _ in range(500):
        xi = rng.uniform(-2, 2, 4)
        zeta = rng.uniform(-2, 2, 4)
        xi[-1], zeta[-1] = abs(xi[-1]), abs(zeta[-1])
        ct = correction_terms(bg, xi, zeta)
        rhs = 1.0 - q * ct["B"] + ct["F"]
        assert ct["A_times_kernel"] <= rhs + 1e-12 * abs(rhs)


def test_bounds_check_zero_violations():
    bg = BoundaryGraph(
        alpha=(0.05, 0.05, 0.05), g_kind="quadratic-taper", g_coeffs=(0.05,)
    )
    assert bg.satisfies_smallness()
    rep = bounds_check(bg, sample_count=20000, seed=3)
    assert rep.total_violations == 0
    assert rep.worst_margin_B > 0
    assert rep.worst_margin_C > 0
    assert rep.worst_margin_D > 0


def test_bounds_check_flat_margins_are_full_bounds():
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0), epsilon0=0.05, R0=2.0)
    rep = bounds_check(flat, sample_count=500, seed=0)
    assert rep.total_violations == 0
    assert rep.max_abs_E == 0.0


def test_cutoff_shape():
    rho = np.linspace(0, 4, 4001)
    eta = cutoff(rho)
    assert np.all((eta >= 0) & (eta <= 1))
    assert np.all(eta[rho <= 2.0] == 1.0)
    assert np.all(eta[rho >= 3.0] == 0.0)
    # C1 joins: finite-difference slope vanishes at both ends of the ramp
    h = 1e-6
    assert abs(cutoff(2.0 + h) - cutoff(2.0 - h)) / (2 * h) < 1e-5
    assert abs(cutoff(3.0 + h) - cutoff(3.0 - h)) / (2 * h) < 1e-5


def test_dilate_graph_scaling():
    bg = BoundaryGraph(alpha=(0.1, 0.1, 0.1), g_kind="quadratic-taper", g_coeffs=(0.04,))
    d = dilate_graph(bg, 2.0)
    assert d.curvatures == tuple(a / 2.0 for a in bg.alpha)
    assert d.R0 == 2.0 * bg.R0
    xp = np.array([0.5, 0.2, -0.3])
    assert graph_height(d, 2.0 * xp) == pytest.approx(2.0 * graph_height(bg, xp))


def _deficit_on_dilated_grid(theta, lam):
    """The cutoff deficits of eta * Theta_lambda against Theta_lambda, both
    on the exactly dilated grid with a kernel table of their own."""
    ref = dilate_exact(theta, lam)
    g = ref.grid
    R, Z = np.meshgrid(g.r_nodes, g.z_nodes, indexing="ij")
    cut = ref.with_values(ref.regular_values * cutoff(np.hypot(R, Z)), tail=None)
    tab = build_kernel_table(g, KernelParams.energy(g.n, theta.sigma))
    p = critical_p(g.n, theta.sigma)
    return {
        "cutoff_energy": seminorm(cut, tab).total,
        "reference_energy": seminorm(ref, tab).total,
        "cutoff_mass": lp_norm(cut, p) ** p,
        "reference_mass": lp_norm(ref, p) ** p,
    }


def test_cutoff_energy_deficit_matches_dilated_grid(envelope16, monkeypatch):
    built = []
    init = energy.AssembledForm.__init__

    def counting_init(self, grid, table, sigma, weight="none"):
        built.append((table.params, weight))
        init(self, grid, table, sigma, weight)

    monkeypatch.setattr(energy, "_cache", OrderedDict())
    monkeypatch.setattr(energy.AssembledForm, "__init__", counting_init)
    lams = (2.5, 5.0, 10.0)
    got = {lam: cutoff_energy_deficit(envelope16, lam) for lam in lams}
    # one operator on theta's grid serves every lambda
    assert built == [(KernelParams.energy(4, 0.75), "none")]

    for lam in lams:
        want = _deficit_on_dilated_grid(envelope16, lam)
        d, terms = got[lam], got[lam]["numerator_bound_terms"]
        e_tol = 1e-11 * want["reference_energy"]
        m_tol = 1e-11 * want["reference_mass"]
        assert abs(terms["cutoff_energy"] - want["cutoff_energy"]) <= e_tol
        assert abs(terms["reference_energy"] - want["reference_energy"]) <= e_tol
        assert abs(
            terms["energy_deficit"]
            - (want["cutoff_energy"] - want["reference_energy"])
        ) <= e_tol
        assert abs(d["cutoff_mass"] - want["cutoff_mass"]) <= m_tol
        assert abs(
            d["denominator_deficit"]
            - (want["reference_mass"] - want["cutoff_mass"])
        ) <= m_tol


def test_cutoff_profile_on_theta_grid(envelope16):
    cut = cutoff_profile(envelope16, 2.0)
    assert cut.grid is envelope16.grid
    assert cut.tail is None
    # eta(|x|/2) is 1 on |x| <= 4 and 0 on |x| >= 6 < R_max
    near = envelope16.grid.z_nodes <= 4.0
    assert np.array_equal(
        cut.regular_values[0, near], envelope16.regular_values[0, near]
    )
    assert np.all(cut.regular_values[-1] == 0.0)
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(InvalidParams, match="dilation factor lam"):
            cutoff_profile(envelope16, bad)


def test_curvature_term_basics(envelope16):
    rep = make_report(5.0)
    with pytest.raises(MissingGamma0):
        curvature_term(envelope16, 4.0, BoundaryGraph(alpha=(0.1,) * 3))
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    assert curvature_term(envelope16, 4.0, flat, rep).value == 0.0
    bg = BoundaryGraph(alpha=(0.06, 0.03, 0.03))
    c1 = curvature_term(envelope16, 4.0, bg, rep)
    c2 = curvature_term(envelope16, 8.0, bg, rep)
    assert c1.value == pytest.approx((5.5 / 2.0) * 0.04 * 5.0 / 4.0)
    assert c2.value == pytest.approx(c1.value / 2.0)
    assert float(c1) == c1.value


@pytest.mark.parametrize("bad", [0.0, -2.0, np.nan, np.inf])
def test_curvature_term_checks_lam_before_any_table(bad, envelope16, monkeypatch):
    built = []
    monkeypatch.setattr(expansion, "build_kernel_table", lambda *a: built.append(a))
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    with pytest.raises(InvalidParams, match="lam must be finite"):
        curvature_term(envelope16, bad, flat, make_report(5.0))
    assert built == []


def test_verify_empty_schedule_fails_before_any_table(envelope16, monkeypatch):
    built = []
    monkeypatch.setattr(expansion, "build_kernel_table", lambda *a: built.append(a))
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    with pytest.raises(InvalidParams, match="at least one lambda"):
        verify_upper_bound(envelope16, make_report(5.0), flat, [])
    assert built == []


def test_cw_cutoff_zero_violations(envelope16):
    assert cw_cutoff_check(envelope16, 2.0, sample_count=20000, seed=1) == 0


def test_mc_config_validation():
    with pytest.raises(InvalidParams):
        MCConfig(batches=1)
    with pytest.raises(InvalidParams):
        MCConfig(samples_per_batch=10)
    for bad in (0, -1, 2.5, True):
        with pytest.raises(InvalidParams, match="workers"):
            MCConfig(workers=bad)
    # a non-integer would end verify in an untyped TypeError, after its tables
    for field, bad in (
        ("batches", 2.5),
        ("batches", True),
        ("samples_per_batch", 150.5),
        ("samples_per_batch", 1e5),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", False),
    ):
        with pytest.raises(InvalidParams, match=f"^{field} must be an integer"):
            MCConfig(**{field: bad})
    MCConfig(batches=np.int64(2), seed=np.int64(0))
    # a NaN limit would make the variance gate se / flat > limit always false
    for bad in (0.0, -0.05, float("nan"), float("inf")):
        with pytest.raises(InvalidParams, match="max_rel_stderr"):
            MCConfig(max_rel_stderr=bad)


def test_verify_flat_matches_grid_quotient(envelope16):
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    rep = make_report(5.0)
    cfg = MCConfig(batches=2, samples_per_batch=2000, seed=0, max_rel_stderr=1.0)
    (v,) = verify_upper_bound(envelope16, rep, flat, (2.0,), cfg)
    assert isinstance(v, ExpansionVerdict)
    # the sampler only sees the deviation from the flat kernel, which is
    # identically zero here
    assert v.measured_stderr == 0.0
    assert v.measured_quotient == pytest.approx(v.term_breakdown["flat_energy"])
    assert v.term_breakdown["curvature_term"] == 0.0
    assert v.term_breakdown["taylor_violations"] == 0
    assert v.passed
    j = v.to_json()
    assert j["pass"] is True


def test_verify_cap_stderr_over_limit_raises(envelope16):
    # on a curved cap the sampled Taylor remainder has a nonzero stderr,
    # which no tiny max_rel_stderr admits
    cap = BoundaryGraph(alpha=(0.05, 0.05, 0.05))
    cfg = MCConfig(batches=2, samples_per_batch=2000, seed=0, max_rel_stderr=1e-9)
    with pytest.raises(MonteCarloVarianceTooHigh, match="lambda 2"):
        verify_upper_bound(envelope16, make_report(5.0), cap, (2.0,), cfg)


def test_verify_builds_each_table_once(envelope16, monkeypatch):
    built = []

    def counting_build(grid, params):
        built.append(params)
        return build_kernel_table(grid, params)

    monkeypatch.setattr(expansion, "build_kernel_table", counting_build)
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    cfg = MCConfig(batches=2, samples_per_batch=200, seed=0, max_rel_stderr=1.0)
    lams = (2.0, 2.5, 3.0)
    verdicts = verify_upper_bound(envelope16, make_report(5.0), flat, lams, cfg)
    assert [v.lam for v in verdicts] == list(lams)
    # one energy and one curvature table serve the whole lambda scan
    assert built == [KernelParams.energy(4, 0.75), KernelParams.curvature(4, 0.75)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -2.0, 0.0])
def test_verify_rejects_bad_lambda_before_any_table(envelope16, monkeypatch, bad):
    built = []

    def counting_build(grid, params):
        built.append(params)
        return build_kernel_table(grid, params)

    monkeypatch.setattr(expansion, "build_kernel_table", counting_build)
    flat = BoundaryGraph(alpha=(0.0, 0.0, 0.0))
    cfg = MCConfig(batches=2, samples_per_batch=200, seed=0, max_rel_stderr=1.0)
    with pytest.raises(InvalidParams, match=f"got {bad}$"):
        verify_upper_bound(envelope16, make_report(5.0), flat, (2.0, bad), cfg)
    assert built == []


def _cap_batch(theta, lam, m, seed=3):
    # the quadratic-taper term breaks the one-sided Taylor inequality on
    # some samples, so taylor_bad is not trivially 0
    bg = BoundaryGraph(
        alpha=(0.05, 0.05, 0.05), g_kind="quadratic-taper", g_coeffs=(0.3,)
    )
    tabs = expansion._radial_cdf(bg.n, theta.sigma, 3.0 * lam)
    return expansion._mc_batch(theta, lam, bg, seed, m, *tabs)


def test_mc_batch_chunks_match_one_pass(envelope16, monkeypatch):
    m = 40000
    monkeypatch.setattr(expansion, "_MC_CHUNK", m)
    means, bad = _cap_batch(envelope16, 2.0, m)
    assert bad > 0
    # a chunk that does not divide m, the default chunk (< m) and one > m:
    # each sample keeps its bits, so only the order of the sums moves
    for chunk in (777, expansion._MC_CHUNK, 10 * m):
        monkeypatch.setattr(expansion, "_MC_CHUNK", chunk)
        got_means, got_bad = _cap_batch(envelope16, 2.0, m)
        assert got_bad == bad
        assert np.allclose(got_means, means, rtol=1e-13, atol=0.0)


def test_sum_sq_matches_numpy_row_sum():
    # the sampler's column-by-column sum of squares keeps the bits of the
    # numpy reduction it replaced on 1 to 7 columns, strided or contiguous
    rng = np.random.default_rng(11)
    for cols in range(1, 8):
        scale = rng.uniform(1e-3, 1e3, (20000, 1))
        x = rng.standard_normal((20000, cols + 1)) * scale
        for view in (x[:, :-1], np.ascontiguousarray(x[:, :-1])):
            want = np.sum(view ** 2, axis=-1)
            assert np.array_equal(expansion._sum_sq(view), want)
            assert np.array_equal(
                np.sqrt(expansion._sum_sq(view)), np.linalg.norm(view, axis=1)
            )


def test_mc_batch_golden_bits(envelope16):
    # pinned from the evaluation of the integrands on every pair of each
    # chunk: the batch sums must add the same values in the same order
    means, bad = _cap_batch(envelope16, 2.0, 40000)
    assert [x.hex() for x in means] == [
        "0x1.2342e0868e4bep+7",
        "0x1.9c59ca669dce6p-1",
        "0x1.9e0acc0418046p+8",
        "-0x1.360ec471f60d9p+2",
    ]
    assert bad == 44
    # zero g, and m = 2^15 + 5777 leaves a ragged last chunk
    cap = BoundaryGraph(alpha=(0.05, 0.05, 0.05))
    tabs = expansion._radial_cdf(cap.n, envelope16.sigma, 7.5)
    means, bad = expansion._mc_batch(envelope16, 2.5, cap, 3, 38545, *tabs)
    assert [x.hex() for x in means] == [
        "0x1.fe0ac64bdb888p+7",
        "0x1.1005e6ebfd7aep+0",
        "0x1.ce5619204b466p+0",
        "-0x1.0774b2ca2e035p-7",
    ]
    assert bad == 0


def test_mc_batch_corrections_only_inside_chart(envelope16, monkeypatch):
    rows = []
    corrections = expansion._correction_arrays

    def checking(bg, xi, zeta, n, sigma):
        rows.append(len(zeta))
        assert np.all(zeta[:, -1] > 0.0)
        assert np.all(zeta[:, -1] < bg.R0)
        assert np.all(np.linalg.norm(zeta[:, :-1], axis=1) < bg.R0)
        return corrections(bg, xi, zeta, n, sigma)

    monkeypatch.setattr(expansion, "_correction_arrays", checking)
    m = 5000
    _cap_batch(envelope16, 5.0, m)
    # one call per chunk and sign, on the pairs in the chart alone
    assert len(rows) == 2
    assert 0 < sum(rows) < 2 * m


def test_mc_batch_peak_memory(envelope16):
    # the whole-batch draws take 15 MiB at m = 200000, n = 4; unchunked, the
    # batch-length temporaries took the peak to 118 MiB
    tracemalloc.start()
    try:
        _cap_batch(envelope16, 5.0, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20


def test_verify_cap_independent_of_worker_count(envelope16, monkeypatch):
    runs = []
    run = expansion._run

    def counting_run(fns, workers=None):
        runs.append((len(fns), workers))
        return run(fns, workers)

    monkeypatch.setattr(expansion, "_run", counting_run)
    cap = BoundaryGraph(alpha=(0.05, 0.05, 0.05))
    got = []
    for workers in (1, 2):
        cfg = MCConfig(
            batches=4,
            samples_per_batch=3000,
            seed=5,
            max_rel_stderr=1.0,
            workers=workers,
        )
        verdicts = verify_upper_bound(
            envelope16, make_report(5.0), cap, (2.0, 3.0), cfg
        )
        got.append([v.to_json() for v in verdicts])
    assert got[0] == got[1]
    # one run per call takes the 4 batches of both lambdas
    assert runs == [(8, 1), (8, 2)]
