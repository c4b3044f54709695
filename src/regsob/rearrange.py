"""Slice-wise decreasing rearrangement and the slice interaction functional."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParams, SingularAtZeroSeparation
from .kernel import KernelParams, check_real, gauss_nodes, kernel_values, sphere_surface

__all__ = [
    "SliceProfile",
    "rearrange_profile",
    "rearrange_sharp",
    "slice_interaction",
    "slice_lp_norm",
]


@dataclass
class SliceProfile:
    """A radial profile at fixed height, with its radial measure exponent."""

    radii: np.ndarray
    values: np.ndarray
    measure_exponent: int


def _sort_desc(values):
    """Nonincreasing arrangement of the node values; a pure permutation, so
    every discrete p-norm of the slice is preserved exactly.  Ties keep their
    relative order, i.e. smaller radii first."""
    return -np.sort(-values, axis=0, kind="stable")


def rearrange_profile(profile):
    """Decreasing rearrangement of one slice."""
    return replace(profile, values=_sort_desc(profile.values))


def rearrange_sharp(field):
    """Rearrange every fixed-height slice to be nonincreasing in radius."""
    return field.with_values(_sort_desc(field.regular_values))


def slice_lp_norm(profile, p):
    """Discrete p-norm of the slice values, the quantity rearrangement keeps."""
    check_real(p, "p", gt=0)
    return float(np.sum(np.abs(profile.values) ** p) ** (1.0 / p))


def slice_interaction(f, g, t, n, sigma, q=6):
    """Interaction of two radial slices separated by height t.

    The double integral over two copies of the horizontal hyperplane of
    (f(x') - g(y'))^2 (|x'-y'|^2 + t^2)^(-(n+2*sigma)/2), reduced by the
    angular kernel.  f and g are piecewise linear on their radii and extend
    constantly by their last value beyond the final radius, so the integral
    runs over the whole hyperplane.  Both must end at the same value (equal
    constants give exactly zero); with unequal ends the integral diverges,
    and InvalidParams is raised."""
    check_real(t, "slice separation t", SingularAtZeroSeparation, gt=0)
    cf, cg = float(f.values[-1]), float(g.values[-1])
    if cf != cg:
        raise InvalidParams(
            f"slice interaction diverges: the profiles end at {cf!r} and {cg!r}, "
            "and their constant continuations differ"
        )
    par = KernelParams.energy(n, sigma)
    k = f.measure_exponent

    def points(profile):
        r = profile.radii
        a, b = r[:-1], r[1:]
        x, wq = gauss_nodes(a, b - a, q, power=k)
        frac = (x - a[:, None]) / np.maximum((b - a)[:, None], 1e-300)
        vals = profile.values[:-1, None] * (1 - frac) + profile.values[1:, None] * frac
        return x.ravel(), wq.ravel(), vals.ravel()

    def ext_points(profile):
        # geometric panels covering the constant continuation; the integrand
        # decays like s^(-2-2*sigma) there so the truncation is negligible
        R = profile.radii[-1]
        edges = R + (1.0 + R) * np.concatenate(
            [[0.0], np.geomspace(1e-4, 2e4, 48)]
        )
        x, wq = gauss_nodes(edges[:-1], np.diff(edges), 4, power=k)
        return x.ravel(), wq.ravel()

    xf, wf, vf = points(f)
    xg_, wg_, vg = points(g)
    K = kernel_values(xf[:, None], xg_[None, :], float(t), par)
    diff2 = (vf[:, None] - vg[None, :]) ** 2
    total = float(np.sum(wf[:, None] * wg_[None, :] * K * diff2))

    se_g, we_g = ext_points(g)
    Kfe = kernel_values(xf[:, None], se_g[None, :], float(t), par)
    total += float(np.sum(wf * (vf - cg) ** 2 * (Kfe @ we_g)))
    se_f, we_f = ext_points(f)
    Kge = kernel_values(xg_[:, None], se_f[None, :], float(t), par)
    total += float(np.sum(wg_ * (vg - cf) ** 2 * (Kge @ we_f)))
    return sphere_surface(n - 2) * total
