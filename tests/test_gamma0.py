import json
import math
import re

import numpy as np
import pytest

from regsob import gamma0
from regsob.energy import seminorm
from regsob.errors import InvalidGamma
from regsob.field import attach_tail_model, make_grid, synthesize_profile
from regsob.gamma0 import (
    Gamma0Report,
    estimate_gamma0,
    interior_weighted_growth,
    tail_bound,
)
from regsob.kernel import KernelParams, build_kernel_table


@pytest.fixture(scope="module")
def envelope12():
    g = make_grid(4, 12.0, 16, 16, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    f = attach_tail_model(synthesize_profile("envelope", g, 0.75))
    return g, tab, f


@pytest.fixture(scope="module")
def bump12():
    g = make_grid(4, 12.0, 16, 16, (2.0, 2.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    f = synthesize_profile("compact-bump", g, 0.75)
    return g, tab, f


def test_zero_field_value_zero(envelope12):
    g, _, f = envelope12
    rep = estimate_gamma0(
        f.with_values(np.zeros(g.shape)), grids=(10, 12), provenance="z"
    )
    assert rep.value == 0.0
    assert rep.theta_provenance == "z"


def test_estimate_deterministic(envelope12):
    _, _, f = envelope12
    r1 = estimate_gamma0(f, grids=(10, 12))
    r2 = estimate_gamma0(f, grids=(10, 12))
    assert r1.value == r2.value
    assert r1.sign_verdict == r2.sign_verdict


def test_report_shape_and_json(envelope12):
    _, _, f = envelope12
    rep = estimate_gamma0(f, grids=(10, 12))
    assert isinstance(rep, Gamma0Report)
    assert rep.sign_verdict in ("positive", "negative", "indeterminate")
    assert list(rep.lambda_schedule) == sorted(rep.lambda_schedule)
    assert rep.grid_extrapolation_error >= 0
    assert rep.truncation_tail_bound >= 0
    json.dumps(rep.to_json())


def test_schedule_must_increase(envelope12, monkeypatch):
    _, _, f = envelope12
    tables = []
    monkeypatch.setattr(gamma0, "build_kernel_table", lambda *a: tables.append(a))
    for schedule in ((8.0, 4.0), (), (2.0,), (2.0, 2.0)):
        with pytest.raises(InvalidGamma, match="at least 2 truncation radii"):
            estimate_gamma0(f, schedule=schedule, grids=(10, 12))
    assert tables == []


def test_tail_bound_rejects_large_gamma(envelope12):
    _, tab, f = envelope12
    with pytest.raises(InvalidGamma):
        tail_bound(f, 5.0, 1.5, table=tab)
    with pytest.raises(InvalidGamma):
        tail_bound(f, 5.0, 2.0, table=tab)


def test_tail_bound_rejects_negative_gamma(envelope12):
    _, tab, f = envelope12
    with pytest.raises(InvalidGamma):
        tail_bound(f, 5.0, -0.5, table=tab)


def test_tail_bound_monotone_in_lambda(bump12):
    _, tab, f = bump12
    vals = [tail_bound(f, l, 1.0, table=tab) for l in (2.0, 4.0, 6.0, 9.0)]
    assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))
    assert vals[0] > 0


def test_tail_bound_scales_like_lambda_power(bump12):
    # support is the unit ball, so for lam >= 2 the bound is dominated by
    # u(x)^2 against the weighted kernel mass outside B_lam, which decays
    # like lam^(1 - 2*sigma) = lam^(-1/2) at gamma = 1
    _, tab, f = bump12
    lams = np.array([2.0, 6.0, 10.0])
    vals = np.array([tail_bound(f, l, 1.0, table=tab) for l in lams])
    scaled = vals * lams ** 0.5
    assert scaled.max() / scaled.min() < 1.35
    e = seminorm(f, tab).total
    assert vals[-1] <= 0.08 * e


def test_interior_growth_gamma_guards(envelope12):
    _, tab, f = envelope12
    with pytest.raises(InvalidGamma):
        interior_weighted_growth(f, 5.0, 1.5, table=tab)
    with pytest.raises(InvalidGamma):
        interior_weighted_growth(f, 5.0, -0.5, table=tab)


def test_interior_growth_zero_gamma_recovers_energy(envelope12):
    # the weighted sum carries no tail-model correction, so it matches the
    # far + near parts of the plain energy
    _, tab, f = envelope12
    sn = seminorm(f, tab)
    assert interior_weighted_growth(f, None, 0.0, table=tab) == pytest.approx(
        sn.far_part + sn.near_part, rel=1e-12
    )


def test_interior_growth_bounded_below_threshold(envelope12):
    # gamma = 1 < 2*sigma: the truncated values saturate instead of growing
    _, tab, f = envelope12
    vals = [
        interior_weighted_growth(f, l, 1.0, table=tab) for l in (4.0, 8.0, 12.0)
    ]
    assert vals[-1] <= vals[-2] * 1.2
    assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))


@pytest.mark.parametrize("N, want", [(6, (8, 6)), (8, (8, 8))])
def test_default_grids_must_increase(N, want):
    # the default (max(8, 2N/3), N) does not increase for N <= 8: (8, 8)
    # gave a zero grid error, and (8, 6) made the coarser grid the "finest"
    theta = synthesize_profile("envelope", make_grid(4, 4.0, N, N), 0.75)
    with pytest.raises(InvalidGamma, match=re.escape(f"{want} (the default")):
        estimate_gamma0(theta)


@pytest.mark.parametrize("grids", [(12, 10), (10, 10)])
def test_given_grids_must_increase(envelope12, grids):
    _, _, f = envelope12
    with pytest.raises(InvalidGamma, match=re.escape(f"got {grids}")):
        estimate_gamma0(f, grids=grids)


@pytest.mark.parametrize("grids", [(8, 9.7), (8.0, 10), (True, 10), (3, 10)])
def test_grid_sizes_must_be_integers_before_any_table(envelope12, monkeypatch, grids):
    # int() would run (8, 9.7) as N = 9
    _, _, f = envelope12
    built = []

    def counting_build(grid, params):
        built.append(params)
        return build_kernel_table(grid, params)

    monkeypatch.setattr(gamma0, "build_kernel_table", counting_build)
    with pytest.raises(InvalidGamma, match=re.escape(f"integers >= 4, got {grids}")):
        estimate_gamma0(f, grids=grids)
    assert built == []


@pytest.mark.parametrize("fn", [tail_bound, interior_weighted_growth])
@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_non_finite_gamma_raises_before_any_table(envelope12, monkeypatch, fn, gamma):
    _, _, f = envelope12
    built = []

    def counting_build(grid, params):
        built.append(params)
        return build_kernel_table(grid, params)

    monkeypatch.setattr(gamma0, "build_kernel_table", counting_build)
    with pytest.raises(InvalidGamma, match=f"got {gamma}$"):
        fn(f, 2.0, gamma)
    assert built == []
