import numpy as np
import pytest

from regsob import minimize
from regsob.energy import critical_p, lp_norm, rayleigh_quotient
from regsob.errors import InvalidParams
from regsob.field import (
    TailModel,
    attach_tail_model,
    load_field,
    make_grid,
    synthesize_profile,
)
from regsob.kernel import KernelParams, build_kernel_table
from regsob.minimize import (
    EnvelopeReport,
    SolverConfig,
    _descend_on_grid,
    _initial_field,
    envelope_check,
    save_result,
    scale_field,
    solve_halfspace,
)


@pytest.fixture(scope="module")
def coarse_result():
    cfg = SolverConfig(schedule=(10, 12), R_max=20.0, max_iters=50)
    return solve_halfspace(cfg)


def test_config_validation():
    with pytest.raises(InvalidParams):
        SolverConfig(schedule=(32, 16))
    with pytest.raises(InvalidParams):
        SolverConfig(tol_quotient=-1.0)
    with pytest.raises(InvalidParams, match="schedule"):
        SolverConfig(schedule=())
    nan, inf = float("nan"), float("inf")
    bad = dict(
        tol_quotient=(nan, inf, 0.0),
        # with tol_residual = inf, converged would not read the residual
        tol_residual=(nan, inf, -1.0),
        R_max=(nan, inf, 0.0, -20.0),
        init_noise=(nan, inf, -0.05),
        max_iters=(inf, nan, 2.5, 0, True),
    )
    for field, values in bad.items():
        for x in values:
            with pytest.raises(InvalidParams, match=field):
                SolverConfig(**{field: x})


def test_config_digest_deterministic():
    assert SolverConfig().digest() == SolverConfig().digest()
    assert SolverConfig().digest() != SolverConfig(seed=1).digest()


def test_scale_field_identity():
    g = make_grid(4, 10.0, 12, 12, (2.0, 2.0))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    assert scale_field(f, 1.0) is f
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(InvalidParams, match="dilation factor lam"):
            scale_field(f, bad)


# scale_field of a tailed interior bubble as evaluated by sampling the
# regular factor at lam * (r, z) directly, before it became a resample of
# dilate_exact; w = default_rng(0).uniform(0, 1) on the 13 x 13 grid.
_SCALED = {
    0.8: dict(
        total=1.5448530305047623,
        weighted=0.7667399546127546,
        origin=0.019604073653634715,
        mid=0.0065708059003265805,
        corner=1.7082285443620038e-05,
        amplitude=2.063121649535578,
    ),
    2.0: dict(
        total=3.1761707324465656,
        weighted=1.681952322073579,
        origin=0.09744091213330636,
        mid=0.0004615808696441549,
        corner=3.4492315027847037e-06,
        amplitude=0.41507810106058196,
    ),
}


@pytest.mark.parametrize("lam", sorted(_SCALED))
def test_scale_field_matches_direct_sampling(lam):
    g = make_grid(4, 20.0, 12, 12, (2.0, 2.0))
    f = attach_tail_model(synthesize_profile("interior-bubble", g, 0.75))
    w = np.random.default_rng(0).uniform(0, 1, g.shape)
    s = scale_field(f, lam)
    v = s.regular_values
    want = _SCALED[lam]
    got = dict(
        total=v.sum(),
        weighted=np.sum(w * v),
        origin=v[0, 0],
        mid=v[5, 7],
        corner=v[-1, -1],
    )
    for key, val in got.items():
        assert val == pytest.approx(want[key], rel=1e-13), key
    assert s.grid is g
    assert s.tail == TailModel(amplitude=want["amplitude"], exponent=3.5)


def test_scale_field_preserves_norm_and_quotient():
    # the identity is exact in the continuum; sampling the dilated field on
    # the same grid halves the effective resolution, so the norm needs a
    # fine grid and the quotient an honest few-percent band
    g = make_grid(4, 10.0, 56, 56, (2.0, 2.0))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    p = critical_p(4, 0.75)
    assert lp_norm(scale_field(f, 2.0), p) == pytest.approx(
        lp_norm(f, p), rel=5e-3
    )
    gq = make_grid(4, 10.0, 32, 32, (2.0, 2.0))
    tab = build_kernel_table(gq, KernelParams.energy(4, 0.75))
    fq = attach_tail_model(synthesize_profile("envelope", gq, 0.75))
    assert rayleigh_quotient(scale_field(fq, 2.0), tab) == pytest.approx(
        rayleigh_quotient(fq, tab), rel=2.5e-2
    )


def test_envelope_check_exact_on_envelope():
    g = make_grid(4, 20.0, 24, 24, (2.0, 2.0))
    f = synthesize_profile("envelope", g, 0.75)
    rep = envelope_check(f)
    assert isinstance(rep, EnvelopeReport)
    assert rep.decay_exponent == pytest.approx(4 + 2 * 0.75 - 2, rel=1e-10)
    assert rep.ratio_min == pytest.approx(1.0, rel=1e-12)
    assert rep.ratio_max == pytest.approx(1.0, rel=1e-12)
    assert rep.boundary_exponent == pytest.approx(2 * 0.75 - 1, abs=0.02)


def test_solver_trace_monotone_within_stages(coarse_result):
    res = coarse_result
    segs = list(res.trace_breaks) + [len(res.trace)]
    assert len(res.trace_breaks) == 2
    for a, b in zip(segs[:-1], segs[1:]):
        assert np.all(np.diff(res.trace[a:b]) <= 1e-12 * abs(res.trace[a]))


def test_solver_output_structure(coarse_result):
    res = coarse_result
    th = res.theta
    assert res.s_estimate > 0 and np.isfinite(res.s_estimate)
    assert np.all(th.regular_values >= 0)
    # slice-wise nonincreasing in r
    scale = np.max(th.regular_values)
    assert np.all(np.diff(th.regular_values, axis=0) <= 1e-8 * scale)
    # normalized in the critical norm
    assert lp_norm(th, critical_p(4, 0.75)) == pytest.approx(1.0, rel=1e-10)
    assert res.el_residual >= 0


def test_solver_envelope_exponents(coarse_result):
    rep = coarse_result.envelope_report
    assert abs(rep.decay_exponent - 3.5) <= 0.35
    assert abs(rep.boundary_exponent - 0.5) <= 0.1
    assert 0 < rep.ratio_min <= rep.ratio_max < np.inf


def test_solver_partial_result_when_unconverged():
    cfg = SolverConfig(schedule=(10,), R_max=20.0, max_iters=3)
    res = solve_halfspace(cfg)
    assert res.converged is False
    assert res.trace.size >= 1


def test_failed_line_search_is_not_converged(monkeypatch):
    # a step far too long with a single backtrack: the first Armijo search
    # fails and the stage must not report convergence
    monkeypatch.setattr(minimize, "STEP", 1e6)
    monkeypatch.setattr(minimize, "MAX_BACKTRACKS", 1)
    cfg = SolverConfig(schedule=(10,), R_max=20.0)
    g = make_grid(4, 20.0, 10, 10, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    trace = []
    _, converged = _descend_on_grid(_initial_field(g, cfg), tab, cfg, trace)
    assert converged is False
    assert min(trace) == trace[0]  # no step was accepted


def test_result_persistence_roundtrip(tmp_path, coarse_result):
    import json

    path = tmp_path / "theta.bin"
    save_result(coarse_result, path)
    back = load_field(path)
    assert np.allclose(
        back.regular_values, coarse_result.theta.regular_values, atol=1e-14
    )
    side = json.loads((tmp_path / "theta.bin.json").read_text())
    assert side["s_estimate"] == pytest.approx(coarse_result.s_estimate)
    assert side["config_hash"] == coarse_result.config.digest()


def test_sidecar_rewrite_is_atomic(tmp_path, coarse_result):
    from dataclasses import replace

    path = tmp_path / "theta.bin"
    save_result(coarse_result, path)
    side = tmp_path / "theta.bin.json"
    before = side.read_bytes()
    # a value json cannot encode makes the second sidecar fail while it is
    # serialized; the first one must survive whole, with no temporary left
    env = replace(coarse_result.envelope_report, ratio_min=object())
    with pytest.raises(TypeError):
        save_result(replace(coarse_result, envelope_report=env), path)
    assert side.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
