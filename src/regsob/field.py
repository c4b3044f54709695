"""Graded half-space grids and discrete radial fields.

Fields depending only on (r, z) = (|x'|, x_n) are stored through the regular
factor vt = z^(1-2*sigma) u, which stays C^1 up to the boundary while u itself
has a z^(2*sigma-1) cusp.  Grids are power-graded toward r = 0 and z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import io_container
from .errors import GridMismatch, InvalidGrading, InvalidParams, UnknownKind
from .kernel import check_integer, check_real, check_sigma, is_integer


@dataclass(frozen=True)
class HalfSpaceGrid:
    """Tensor grid on [0, R_max]^2 in (r, z), power-graded toward the axes."""

    n: int
    r_nodes: np.ndarray
    z_nodes: np.ndarray
    R_max: float
    grading_exponents: tuple

    @property
    def shape(self):
        return (self.r_nodes.size, self.z_nodes.size)

    def same_layout(self, other):
        return (
            self.n == other.n
            and self.r_nodes.size == other.r_nodes.size
            and self.z_nodes.size == other.z_nodes.size
            and np.array_equal(self.r_nodes, other.r_nodes)
            and np.array_equal(self.z_nodes, other.z_nodes)
        )


def make_grid(n, R_max, N_r, N_z, grading=(2.0, 2.0)):
    """Power-graded grid r_i = R_max (i/N_r)^beta_r, z_j likewise.  Raises
    unless n is an integer >= 2, N_r and N_z are integers >= 4, R_max is
    finite and > 0 and grading holds exactly two exponents, each finite and
    >= 1."""
    check_integer(n, "dimension n", 2)
    if not (is_integer(N_r, 4) and is_integer(N_z, 4)):
        raise InvalidParams(
            f"need an integer number >= 4 of cells per axis, got {N_r!r}x{N_z!r}"
        )
    check_real(R_max, "R_max", gt=0)
    if not (isinstance(grading, (tuple, list)) and len(grading) == 2):
        raise InvalidGrading(f"grading must hold exactly two numbers, got {grading!r}")
    beta_r, beta_z = check_real(grading, "grading", InvalidGrading, ge=1, each=True)
    r = R_max * (np.arange(N_r + 1) / N_r) ** beta_r
    z = R_max * (np.arange(N_z + 1) / N_z) ** beta_z
    return HalfSpaceGrid(
        n=n,
        r_nodes=r,
        z_nodes=z,
        R_max=float(R_max),
        grading_exponents=(float(beta_r), float(beta_z)),
    )


@dataclass(frozen=True)
class TailModel:
    """Power-law far field vt ~ amplitude * rho^(-exponent) beyond the grid."""

    amplitude: float
    exponent: float

    def eval_vt(self, r, z):
        rho2 = np.asarray(r, dtype=float) ** 2 + np.asarray(z, dtype=float) ** 2
        with np.errstate(divide="ignore"):
            return self.amplitude * rho2 ** (-self.exponent / 2.0)


@dataclass(frozen=True)
class RadialField:
    """Discrete half-space field u(r, z) = z^(2*sigma-1) vt(r, z), sigma a
    real in (1/2, 1)."""

    grid: HalfSpaceGrid
    regular_values: np.ndarray
    sigma: float
    tail: TailModel | None = None

    def __post_init__(self):
        if self.regular_values.shape != self.grid.shape:
            raise GridMismatch(
                f"values shape {self.regular_values.shape} vs grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.regular_values)):
            raise InvalidParams("field values must be finite")
        check_sigma(self.sigma)

    def with_values(self, values, **kw):
        return replace(self, regular_values=values, **kw)


def cell_of(nodes, x):
    """The cell [nodes[c], nodes[c + 1]] that holds each x and x's fraction
    across it: c is clipped to the first and last cells and the fraction to
    [0, 1], so points outside the nodes take the nearest end value."""
    c = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    return c, np.clip((x - nodes[c]) / (nodes[c + 1] - nodes[c]), 0.0, 1.0)


def _bilinear(grid, values, r, z):
    i, fr = cell_of(grid.r_nodes, np.asarray(r, dtype=float))
    j, fz = cell_of(grid.z_nodes, np.asarray(z, dtype=float))
    v00 = values[i, j]
    v10 = values[i + 1, j]
    v01 = values[i, j + 1]
    v11 = values[i + 1, j + 1]
    return (
        v00 * (1 - fr) * (1 - fz)
        + v10 * fr * (1 - fz)
        + v01 * (1 - fr) * fz
        + v11 * fr * fz
    )


def eval_vt(fld, r, z):
    """Regular factor at arbitrary points: bilinear inside, tail or 0 outside."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    out = _bilinear(fld.grid, fld.regular_values, r, z)
    outside = (r > fld.grid.r_nodes[-1]) | (z > fld.grid.z_nodes[-1])
    if np.any(outside):
        if fld.tail is not None:
            out = np.where(outside, fld.tail.eval_vt(r, z), out)
        else:
            out = np.where(outside, 0.0, out)
    return out


def eval_u(fld, r, z):
    """u = z^(2*sigma-1) vt; exact at nodes, 0 on the boundary z = 0."""
    z = np.asarray(z, dtype=float)
    zpow = np.where(z > 0, z, 1.0) ** (2.0 * fld.sigma - 1.0)
    return np.where(z > 0, zpow * eval_vt(fld, r, z), 0.0)


def resample(fld, new_grid):
    """Interpolate the regular factor onto another grid of the same dimension."""
    if new_grid.n != fld.grid.n:
        raise GridMismatch(
            f"cannot resample between dimensions {fld.grid.n} and {new_grid.n}"
        )
    if new_grid.same_layout(fld.grid):
        return replace(fld, grid=new_grid)
    R, Z = np.meshgrid(new_grid.r_nodes, new_grid.z_nodes, indexing="ij")
    vals = eval_vt(fld, R.ravel(), Z.ravel()).reshape(R.shape)
    return replace(fld, grid=new_grid, regular_values=vals)


def synthesize_profile(kind, grid, sigma):
    """Analytic test profiles given through their regular factor."""
    check_sigma(sigma)
    R, Z = np.meshgrid(grid.r_nodes, grid.z_nodes, indexing="ij")
    rho2 = R ** 2 + Z ** 2
    n = grid.n
    if kind == "envelope":
        vals = (1.0 + rho2) ** (-(n + 2 * sigma - 2) / 2.0)
    elif kind == "compact-bump":
        vals = np.zeros_like(rho2)
        inside = rho2 < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
    elif kind == "interior-bubble":
        # bubble core at height 4 with the far factor adjusted so the
        # regular part decays at the n + 2*sigma - 2 rate
        height = 4.0
        core = (1.0 + R ** 2 + (Z - height) ** 2) ** (-(n - 2 * sigma) / 2.0)
        vals = core * (1.0 + rho2) ** (-(2.0 * sigma - 1.0))
    elif kind == "gaussian-bump":
        # normalized so that max u = 1 on the z axis
        res = minimize_scalar(
            lambda z: -(z ** (2 * sigma - 1)) * np.exp(-2.0 * (z - 1.0) ** 2),
            bounds=(1e-6, 3.0),
            method="bounded",
        )
        vals = np.exp(-2.0 * (R ** 2 + (Z - 1.0) ** 2)) / (-res.fun)
    else:
        raise UnknownKind(f"unknown profile kind {kind!r}")
    return RadialField(grid=grid, regular_values=vals, sigma=float(sigma))


def dilate_exact(fld, lam):
    """Dilation u_lam(x) = lam^((n-2*sigma)/2) u(lam x) by grid relabeling.

    The node set shrinks by lam and the regular values pick up the factor
    lam^((n-2*sigma)/2 + 2*sigma - 1), so the dilated field is represented
    exactly, with no interpolation.
    """
    check_real(lam, "dilation factor lam", gt=0)
    grid = fld.grid
    n, sigma = grid.n, fld.sigma
    q = (n - 2 * sigma) / 2.0 + 2 * sigma - 1.0
    new_grid = HalfSpaceGrid(
        n=n,
        r_nodes=grid.r_nodes / lam,
        z_nodes=grid.z_nodes / lam,
        R_max=grid.R_max / lam,
        grading_exponents=grid.grading_exponents,
    )
    tail = fld.tail
    if tail is not None:
        tail = TailModel(
            amplitude=tail.amplitude * lam ** (q - tail.exponent),
            exponent=tail.exponent,
        )
    return RadialField(
        grid=new_grid,
        regular_values=lam ** q * fld.regular_values,
        sigma=sigma,
        tail=tail,
    )


def attach_tail_model(fld):
    """Fit vt ~ a rho^-(n+2s-2) on the outer 20 percent of nodes and attach it."""
    grid = fld.grid
    n, sigma = grid.n, fld.sigma
    expo = n + 2 * sigma - 2.0
    R, Z = np.meshgrid(grid.r_nodes, grid.z_nodes, indexing="ij")
    rho = np.hypot(R, Z)
    sel = (rho >= 0.8 * grid.R_max) & (fld.regular_values > 0)
    if not np.any(sel):
        return fld
    a = float(np.mean(fld.regular_values[sel] * rho[sel] ** expo))
    return replace(fld, tail=TailModel(amplitude=a, exponent=expo))


def save_field(fld, path):
    grid = fld.grid
    header = {
        "kind": "radial_field",
        "n": grid.n,
        "sigma": fld.sigma,
        "N_r": int(grid.r_nodes.size - 1),
        "N_z": int(grid.z_nodes.size - 1),
        "R_max": grid.R_max,
        "grading": list(grid.grading_exponents),
        "tail": None
        if fld.tail is None
        else {"amplitude": fld.tail.amplitude, "exponent": fld.tail.exponent},
    }
    arrays = {
        "r_nodes": grid.r_nodes,
        "z_nodes": grid.z_nodes,
        "regular_values": fld.regular_values,
    }
    io_container.write_container(path, header, arrays)


def load_field(path):
    """Read a field file; arrays and header keys it does not use (the
    quadrature weights and flags of older files) are ignored."""
    header, arrays = io_container.read_container(path, kind="radial_field")
    grid = HalfSpaceGrid(
        n=int(header["n"]),
        r_nodes=arrays["r_nodes"],
        z_nodes=arrays["z_nodes"],
        R_max=float(header["R_max"]),
        grading_exponents=tuple(header["grading"]),
    )
    tail = header.get("tail")
    return RadialField(
        grid=grid,
        regular_values=arrays["regular_values"],
        sigma=float(header["sigma"]),
        tail=None if tail is None else TailModel(**tail),
    )
