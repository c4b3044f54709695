import numpy as np
import pytest

from regsob.energy import critical_p, seminorm
from regsob.errors import InvalidParams, SingularAtZeroSeparation
from regsob.field import make_grid, synthesize_profile
from regsob.kernel import KernelParams, build_kernel_table
from regsob.rearrange import (
    SliceProfile,
    rearrange_profile,
    rearrange_sharp,
    slice_interaction,
    slice_lp_norm,
)


@pytest.fixture(scope="module")
def setup4():
    g = make_grid(4, 1.0, 10, 10, (1.0, 1.0))
    tab = build_kernel_table(g, KernelParams.energy(4, 0.75))
    return g, tab


def random_field(g, rng):
    f = synthesize_profile("compact-bump", g, 0.75)
    return f.with_values(rng.uniform(0.0, 1.0, g.shape))


def test_nonincreasing_fixed_point(setup4):
    g, _ = setup4
    vals = np.linspace(1.0, 0.0, g.r_nodes.size)[:, None] * np.ones(
        (1, g.z_nodes.size)
    )
    f = synthesize_profile("compact-bump", g, 0.75).with_values(vals)
    out = rearrange_sharp(f)
    assert np.max(np.abs(out.regular_values - vals)) < 1e-12


def test_swap_between_equal_weights_restores_order():
    # with measure exponent 0 and uniform radii, interior weights are equal
    radii = np.linspace(0.0, 1.0, 9)
    values = np.array([9.0, 8, 7, 3, 5, 4, 6, 2, 1])
    prof = SliceProfile(radii=radii, values=values, measure_exponent=0)
    out = rearrange_profile(prof)
    assert np.allclose(out.values[3:7], [6.0, 5, 4, 3], atol=1e-12)
    for p in (1.0, 2.0, 3.2):
        assert slice_lp_norm(out, p) == pytest.approx(
            slice_lp_norm(prof, p), rel=1e-12
        )


def test_random_fields_norms_energy_monotonicity(setup4):
    g, tab = setup4
    rng = np.random.default_rng(42)
    pc = critical_p(4, 0.75)
    for _ in range(20):
        f = random_field(g, rng)
        out = rearrange_sharp(f)
        assert np.all(np.diff(out.regular_values, axis=0) <= 1e-12)
        for j in range(g.z_nodes.size):
            for p in (1.0, 2.0, pc):
                a = np.sum(np.abs(out.regular_values[:, j]) ** p)
                b = np.sum(np.abs(f.regular_values[:, j]) ** p)
                assert a == pytest.approx(b, rel=1e-10)
        e0 = seminorm(f, tab).total
        e1 = seminorm(out, tab).total
        assert e1 <= e0 * (1 + 1e-8)


def test_idempotence(setup4):
    g, _ = setup4
    rng = np.random.default_rng(5)
    f = random_field(g, rng)
    once = rearrange_sharp(f)
    twice = rearrange_sharp(once)
    scale = np.max(np.abs(once.regular_values))
    assert np.max(np.abs(twice.regular_values - once.regular_values)) < 1e-12 * scale


def test_interaction_constant_profiles_zero():
    radii = np.linspace(0.0, 1.0, 12)
    f = SliceProfile(radii, np.full(12, 0.7), 2)
    assert slice_interaction(f, f, 0.3, 4, 0.75) == pytest.approx(0.0, abs=1e-25)


def test_interaction_symmetry():
    rng = np.random.default_rng(1)
    radii = np.linspace(0.0, 1.0, 12)
    vf, vg = rng.uniform(0, 1, (2, 12))
    vg[-1] = vf[-1]  # equal ends: the interaction is finite
    f = SliceProfile(radii, vf, 2)
    g = SliceProfile(radii, vg, 2)
    a = slice_interaction(f, g, 0.2, 4, 0.75)
    b = slice_interaction(g, f, 0.2, 4, 0.75)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_interaction_unequal_ends_raise(n):
    # with unequal constant continuations the exterior-exterior term
    # diverges; the cut-off of the continuation must not pick a value
    radii = np.linspace(0.0, 2.0, 9)
    f = SliceProfile(radii, np.exp(-radii ** 2), n - 2)
    g = SliceProfile(radii, (1.0 - radii / 4.0) ** 2, n - 2)
    ends = (repr(float(f.values[-1])), repr(float(g.values[-1])))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(InvalidParams, match="diverges") as err:
            slice_interaction(a, b, 0.3, n, 0.75)
        assert all(e in str(err.value) for e in ends)


def test_interaction_zero_separation_raises():
    radii = np.linspace(0.0, 1.0, 6)
    f = SliceProfile(radii, np.ones(6), 2)
    with pytest.raises(SingularAtZeroSeparation):
        slice_interaction(f, f, 0.0, 4, 0.75)


def test_riesz_monotonicity_random_pairs():
    rng = np.random.default_rng(7)
    radii = np.linspace(0.0, 1.0, 16)
    for _ in range(20):
        vf = rng.uniform(0, 1, 16)
        vg = rng.uniform(0, 1, 16)
        vf[-1] = vg[-1] = 0.0
        f = SliceProfile(radii, vf, 2)
        g = SliceProfile(radii, vg, 2)
        t = rng.uniform(0.05, 0.5)
        j = slice_interaction(f, g, t, 4, 0.75)
        js = slice_interaction(
            rearrange_profile(f), rearrange_profile(g), t, 4, 0.75
        )
        assert js <= j * (1 + 1e-8)
