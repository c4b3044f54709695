"""Curved-boundary upper bound via boundary flattening.

A domain whose boundary is the graph x_n = h(x') is sheared onto the half
space; the sheared pair kernel splits into the flat kernel times
[1 + B + C + D]^(-(n+2*sigma)/2) with explicitly bounded corrections, and a
cutoff dilation of the half-space extremizer becomes a test function whose
Rayleigh quotient is estimated by importance-sampled Monte Carlo and
compared against the flat quotient minus the curvature correction.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    _check_lam,
    _seminorm_total,
    critical_p,
    lp_norm,
    weighted_seminorm,
)
from .errors import (
    CoincidentPoints,
    InvalidParams,
    MissingGamma0,
    MonteCarloVarianceTooHigh,
    OutsideChart,
    UnknownKind,
)
from .field import eval_u
from .kernel import KernelParams, build_kernel_table

__all__ = [
    "BoundaryGraph",
    "ExpansionVerdict",
    "MCConfig",
    "a1_constant",
    "bounds_check",
    "correction_terms",
    "curvature_term",
    "cutoff",
    "cutoff_energy_deficit",
    "cw_cutoff_check",
    "cutoff_profile",
    "dilate_graph",
    "flatten_map",
    "graph_height",
    "unflatten_map",
    "verify_upper_bound",
]


_G_KINDS = ("zero", "quadratic-taper", "polynomial")


@dataclass(frozen=True)
class BoundaryGraph:
    """Graph boundary x_n = h(x') = (1/2) sum alpha_i x_i^2 + g(x')|x'|^2.

    g is radial: zero, quadratic-taper a*rho^2/(1+rho^2), or a polynomial
    sum c_k rho^k (k >= 1) given through g_coeffs.  mu > 1 marks the
    mu-dilated copy of the graph (curvatures alpha/mu, chart radius mu*R0).
    """

    alpha: tuple
    g_kind: str = "zero"
    g_coeffs: tuple = ()
    R0: float = 4.0
    delta0: float = 4.0
    epsilon0: float = 0.05
    mu: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "g_coeffs", tuple(float(c) for c in self.g_coeffs))
        if len(self.alpha) < 1:
            raise InvalidParams("need at least one principal curvature")
        if self.g_kind not in _G_KINDS:
            raise UnknownKind(f"unknown perturbation kind {self.g_kind!r}")
        for name in ("alpha", "g_coeffs"):
            vals = getattr(self, name)
            if not np.all(np.isfinite(vals)):
                raise InvalidParams(f"{name} entries must be finite, got {vals}")
        for name in ("R0", "delta0", "epsilon0", "mu"):
            val = getattr(self, name)
            if not 0 < val < np.inf:
                raise InvalidParams(f"{name} must be finite and > 0, got {val}")

    @property
    def n(self):
        return len(self.alpha) + 1

    @property
    def curvatures(self):
        return tuple(a / self.mu for a in self.alpha)

    @property
    def mean_curvature(self):
        return float(np.mean(self.curvatures))

    def g_of_rho(self, rho):
        """The radial perturbation g(rho) of the undilated graph."""
        rho = np.asarray(rho, dtype=float)
        if self.g_kind == "zero":
            return np.zeros_like(rho)
        if self.g_kind == "quadratic-taper":
            a = self.g_coeffs[0] if self.g_coeffs else 0.0
            return a * rho ** 2 / (1.0 + rho ** 2)
        out = np.zeros_like(rho)
        for k, c in enumerate(self.g_coeffs, start=1):
            out += c * rho ** k
        return out

    @property
    def g_lipschitz(self):
        """Declared Lipschitz constant of g on the undilated chart."""
        if self.g_kind == "zero":
            return 0.0
        if self.g_kind == "quadratic-taper":
            # max of d/drho [rho^2/(1+rho^2)] = 2 rho/(1+rho^2)^2 at 1/sqrt(3)
            a = self.g_coeffs[0] if self.g_coeffs else 0.0
            return abs(a) * 9.0 / (8.0 * np.sqrt(3.0))
        r0 = self.R0 / self.mu
        return float(
            sum(k * abs(c) * r0 ** (k - 1) for k, c in enumerate(self.g_coeffs, 1))
        )

    def satisfies_smallness(self):
        return (
            max(abs(a) for a in self.curvatures) <= self.epsilon0
            and self.g_lipschitz <= self.epsilon0
        )

    @classmethod
    def from_dict(cls, d):
        return cls(
            alpha=tuple(d["alpha"]),
            g_kind=d.get("g_kind", "zero"),
            g_coeffs=tuple(d.get("g_coeffs", ())),
            R0=float(d.get("R0", 4.0)),
            delta0=float(d.get("delta0", 4.0)),
            epsilon0=float(d.get("epsilon0", 0.05)),
            mu=float(d.get("mu", 1.0)),
        )


def dilate_graph(bg, mu):
    """The mu-dilated graph: x_n = mu*h(x'/mu), chart radius scaled by mu."""
    if not 0 < mu < np.inf:
        raise InvalidParams(f"dilation factor mu must be finite and > 0, got {mu}")
    return replace(bg, mu=bg.mu * mu, R0=bg.R0 * mu, delta0=bg.delta0 * mu)


def _height(bg, xp):
    """h at horizontal points of shape (..., n-1); no chart check."""
    xp = np.asarray(xp, dtype=float)
    quad = 0.5 * np.tensordot(xp ** 2, np.asarray(bg.curvatures), axes=([-1], [0]))
    rho2 = np.sum(xp ** 2, axis=-1)
    g = bg.g_of_rho(np.sqrt(rho2) / bg.mu)
    return quad + g * rho2 / bg.mu


def graph_height(bg, xp):
    """Boundary height h(x') inside the chart |x'| < R0."""
    xp = np.asarray(xp, dtype=float)
    if np.any(np.sum(xp ** 2, axis=-1) >= bg.R0 ** 2):
        raise OutsideChart(f"horizontal point beyond chart radius {bg.R0}")
    return _height(bg, xp)


def flatten_map(bg, x):
    """Shear (x', x_n) -> (x', x_n - h(x')) mapping the graph region onto
    the half space; requires x above the graph."""
    x = np.asarray(x, dtype=float)
    h = graph_height(bg, x[..., :-1])
    if np.any(x[..., -1] <= h):
        raise OutsideChart("point on or below the boundary graph")
    out = x.copy()
    out[..., -1] -= h
    return out


def unflatten_map(bg, xi):
    """Inverse shear: append the graph height back to the last coordinate."""
    xi = np.asarray(xi, dtype=float)
    out = xi.copy()
    out[..., -1] += graph_height(bg, xi[..., :-1])
    return out


def a1_constant(n, sigma):
    """Minimal A1 with (1+a)^(-q) <= 1 - q*a + A1*a^2 on |a| <= 1/2, where
    q = (n+2*sigma)/2.  The remainder ratio is decreasing in a (integral
    form of the Taylor remainder), so the maximum sits at a = -1/2."""
    q = (n + 2.0 * sigma) / 2.0
    return 4.0 * (2.0 ** q - 1.0 - q / 2.0)


def _correction_arrays(bg, xi, zeta, n, sigma):
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    q = (n + 2.0 * sigma) / 2.0
    d = xi - zeta
    dist2 = np.sum(d ** 2, axis=-1)
    dn = d[..., -1]
    alpha = np.asarray(bg.curvatures)
    quad_diff = np.tensordot(
        xi[..., :-1] ** 2 - zeta[..., :-1] ** 2, alpha, axes=([-1], [0])
    )
    rx2 = np.sum(xi[..., :-1] ** 2, axis=-1)
    rz2 = np.sum(zeta[..., :-1] ** 2, axis=-1)
    gx = bg.g_of_rho(np.sqrt(rx2) / bg.mu) / bg.mu
    gz = bg.g_of_rho(np.sqrt(rz2) / bg.mu) / bg.mu
    g_diff = gx * rx2 - gz * rz2
    hx = 0.5 * np.tensordot(xi[..., :-1] ** 2, alpha, axes=([-1], [0])) + gx * rx2
    hz = 0.5 * np.tensordot(zeta[..., :-1] ** 2, alpha, axes=([-1], [0])) + gz * rz2
    B = dn * quad_diff / dist2
    C = 2.0 * dn * g_diff / dist2
    D = (hx - hz) ** 2 / dist2
    E = B + C + D
    F = q * np.abs(C) + q * D + a1_constant(n, sigma) * E ** 2
    ratio = (1.0 + E) ** (-q)
    return B, C, D, E, F, ratio


def correction_terms(bg, xi, zeta, sigma=0.75):
    """The kernel-denominator corrections for one chart pair.

    Returns {B, C, D, E, F, A_times_kernel} where A_times_kernel is the
    exact ratio of the sheared kernel to the flat kernel."""
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if xi.shape != (bg.n,) or zeta.shape != (bg.n,):
        raise InvalidParams(f"expected points in R^{bg.n}")
    if np.array_equal(xi, zeta):
        raise CoincidentPoints("correction terms need two distinct points")
    B, C, D, E, F, ratio = _correction_arrays(bg, xi, zeta, bg.n, sigma)
    return {
        "B": float(B),
        "C": float(C),
        "D": float(D),
        "E": float(E),
        "F": float(F),
        "A_times_kernel": float(ratio),
    }


@dataclass(frozen=True)
class BoundsReport:
    sample_count: int
    violations_B: int
    violations_C: int
    violations_D: int
    violations_taylor: int
    worst_margin_B: float
    worst_margin_C: float
    worst_margin_D: float
    max_abs_E: float

    @property
    def total_violations(self):
        return (
            self.violations_B
            + self.violations_C
            + self.violations_D
            + self.violations_taylor
        )


def _sample_half_ball(rng, m, n, radius):
    """Uniform points in the upper half ball of the given radius."""
    v = rng.standard_normal((m, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[:, -1] = np.abs(v[:, -1])
    r = radius * rng.random(m) ** (1.0 / n)
    return v * r[:, None]


def bounds_check(bg, sample_count=100000, seed=0, sigma=0.75):
    """Sampled verification of the correction-term bounds on chart pairs.

    Pairs are uniform in the upper half ball of radius R0; checks
    |B| <= eps0*sqrt(s), |C| <= (3/2)*eps0*s, |D| <= (n-1)*eps0^2*s +
    (9/2)*eps0^2*s^2 with s = |xi'|^2 + |zeta'|^2, and the one-sided Taylor
    inequality ratio <= 1 - (n+2*sigma)/2 * B + F."""
    n = bg.n
    rng = np.random.default_rng(seed)
    xi = _sample_half_ball(rng, sample_count, n, bg.R0)
    zeta = _sample_half_ball(rng, sample_count, n, bg.R0)
    same = np.all(xi == zeta, axis=1)
    zeta[same] += 1e-9
    B, C, D, E, F, ratio = _correction_arrays(bg, xi, zeta, n, sigma)
    eps = bg.epsilon0
    s = np.sum(xi[:, :-1] ** 2, axis=1) + np.sum(zeta[:, :-1] ** 2, axis=1)
    bound_B = eps * np.sqrt(s)
    bound_C = 1.5 * eps * s
    bound_D = (n - 1) * eps ** 2 * s + 4.5 * eps ** 2 * s ** 2
    q = (n + 2.0 * sigma) / 2.0
    taylor_rhs = 1.0 - q * B + F
    slack = 1e-12 * np.maximum(1.0, np.abs(taylor_rhs))
    return BoundsReport(
        sample_count=int(sample_count),
        violations_B=int(np.sum(np.abs(B) > bound_B)),
        violations_C=int(np.sum(np.abs(C) > bound_C)),
        violations_D=int(np.sum(np.abs(D) > bound_D)),
        violations_taylor=int(np.sum(ratio > taylor_rhs + slack)),
        worst_margin_B=float(np.min(bound_B - np.abs(B))),
        worst_margin_C=float(np.min(bound_C - np.abs(C))),
        worst_margin_D=float(np.min(bound_D - np.abs(D))),
        max_abs_E=float(np.max(np.abs(E))),
    )


def cw_cutoff_check(theta, lam, sample_count=100000, seed=0, radius=None):
    """Sampled check of the splitting |eta(xi/lam)T(xi) - eta(zeta/lam)T(zeta)|^2
    <= 2|T(xi)-T(zeta)|^2 + 2|eta(xi/lam)-eta(zeta/lam)|^2 T(zeta)^2; returns
    the violation count (expected 0)."""
    n = theta.grid.n
    rng = np.random.default_rng(seed)
    radius = radius or 4.0 * lam
    xi = _sample_half_ball(rng, sample_count, n, radius)
    zeta = _sample_half_ball(rng, sample_count, n, radius)

    def theta_of(pts):
        r = np.sqrt(np.sum(pts[:, :-1] ** 2, axis=1))
        return eval_u(theta, r, pts[:, -1])

    tx, tz = theta_of(xi), theta_of(zeta)
    ex = cutoff(np.sqrt(np.sum(xi ** 2, axis=1)) / lam)
    ez = cutoff(np.sqrt(np.sum(zeta ** 2, axis=1)) / lam)
    lhs = (ex * tx - ez * tz) ** 2
    rhs = 2.0 * (tx - tz) ** 2 + 2.0 * (ex - ez) ** 2 * tz ** 2
    return int(np.sum(lhs > rhs + 1e-12 * np.maximum(rhs, 1.0)))


def cutoff(rho):
    """C^1 radial cutoff: 1 on [0, 2], quintic smoothstep down on [2, 3],
    0 beyond 3."""
    rho = np.asarray(rho, dtype=float)
    t = np.clip(rho - 2.0, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def cutoff_profile(theta, lam):
    """The cutoff dilation eta * Theta_lambda, pulled back to Theta's grid.

    Theta_lambda(x) = lambda^((n-2*sigma)/2) Theta(lambda x) and the change
    of variables y = lambda x turn eta(|x|) Theta_lambda(x) into the field
    eta(|y|/lambda) Theta(y) returned here, with no tail.  The seminorm and
    the critical mass are dilation invariant, the kernel obeys the exact law
    K(lambda r, lambda s, lambda t) = lambda^(-p) K, and every quadrature
    rule is relative to the grid, so both equal their values for the field
    on the exactly dilated grid (field.dilate_exact) up to rounding; no grid
    or kernel table has to be rebuilt per lambda."""
    if not 0 < lam < np.inf:
        raise InvalidParams(f"dilation factor lam must be finite and > 0, got {lam}")
    R, Z = np.meshgrid(theta.grid.r_nodes, theta.grid.z_nodes, indexing="ij")
    eta = cutoff(np.hypot(R, Z) / lam)
    return theta.with_values(theta.regular_values * eta, tail=None)


def _reference(theta):
    """Theta's energy table, energy and critical mass: the reference every
    cutoff deficit of a lambda scan is measured against."""
    n, sigma = theta.grid.n, theta.sigma
    p = critical_p(n, sigma)
    tab = build_kernel_table(theta.grid, KernelParams.energy(n, sigma))
    return tab, _seminorm_total(theta, tab), lp_norm(theta, p) ** p


def _cutoff_deficit(theta, lam, ref):
    tab, e_ref, m_ref = ref
    cut = cutoff_profile(theta, lam)
    p = critical_p(theta.grid.n, theta.sigma)
    e_cut = _seminorm_total(cut, tab)
    m_cut = lp_norm(cut, p) ** p
    return {
        "numerator_bound_terms": {
            "cutoff_energy": float(e_cut),
            "reference_energy": float(e_ref),
            "energy_deficit": float(e_cut - e_ref),
        },
        "denominator_deficit": float(m_ref - m_cut),
        "cutoff_mass": float(m_cut),
    }


def cutoff_energy_deficit(theta, lam):
    """Energy and critical mass lost to the cutoff at scale lambda.

    The cut field is cutoff_profile(theta, lam) and the reference is theta
    itself, so both live on Theta's grid and share its one energy table and
    assembled operator for every lambda, and the discretization bias cancels
    in the differences.  By the exact dilation law K(lambda r, lambda s,
    lambda t) = lambda^(-p) K of the kernel, these numbers equal the ones for
    eta * Theta_lambda and Theta_lambda on the dilated grid up to rounding
    (about 1e-12 relative to the reference energy and mass)."""
    return _cutoff_deficit(theta, lam, _reference(theta))


@dataclass(frozen=True)
class CurvatureTerm:
    value: float
    stderr: float
    finite_domain_term: float
    cutoff_term: float

    def __float__(self):
        return self.value


def curvature_term(theta, lam, bg, gamma0_report=None, table=None):
    """The leading correction (n+2*sigma)/2 * H * Gamma0 / lambda with the
    Gamma0 error budget propagated, plus the measured magnitudes of the two
    finite-domain discrepancies it replaces (pairs leaving B_lambda for the
    pure and for the cutoff dilation).  table is Theta's curvature table,
    built here when not given, so that a lambda scan builds it once."""
    if gamma0_report is None:
        raise MissingGamma0("curvature term needs a Gamma0 report")
    if lam <= 0:
        raise InvalidParams(f"lambda must be positive, got {lam}")
    n, sigma = theta.grid.n, theta.sigma
    if table is None:
        table = build_kernel_table(theta.grid, KernelParams.curvature(n, sigma))
    q = (n + 2.0 * sigma) / 2.0
    H = bg.mean_curvature
    value = q * H * gamma0_report.value / lam
    stderr = (
        q
        * abs(H)
        * (
            gamma0_report.grid_extrapolation_error
            + gamma0_report.truncation_tail_bound
        )
        / lam
    )
    ext = weighted_seminorm(theta, table, "gamma0", lam=lam, exterior=True)
    fd = q * abs(H) * abs(ext) / lam
    cut = cutoff_profile(theta, lam)
    ext_cut = weighted_seminorm(cut, table, "gamma0", lam=lam, exterior=True)
    co = q * abs(H) * abs(ext_cut) / lam
    return CurvatureTerm(
        value=float(value),
        stderr=float(stderr),
        finite_domain_term=float(fd),
        cutoff_term=float(co),
    )


@dataclass(frozen=True)
class MCConfig:
    batches: int = 16
    samples_per_batch: int = 50000
    seed: int = 0
    max_rel_stderr: float = 0.05
    workers: int = 4

    def __post_init__(self):
        if self.batches < 2:
            raise InvalidParams("need at least 2 batches for a stderr")
        if self.samples_per_batch < 100:
            raise InvalidParams("need at least 100 samples per batch")
        if not 0 < self.max_rel_stderr < np.inf:
            raise InvalidParams(
                f"max_rel_stderr must be finite and > 0, got {self.max_rel_stderr!r}"
            )
        w = self.workers
        if isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 1:
            raise InvalidParams(f"workers must be an integer >= 1, got {w!r}")


@dataclass(frozen=True)
class ExpansionVerdict:
    lam: float
    measured_quotient: float
    measured_stderr: float
    predicted_bound: float
    predicted_stderr: float
    term_breakdown: dict
    passed: bool

    def to_json(self):
        return {
            "lambda": self.lam,
            "measured_quotient": self.measured_quotient,
            "measured_stderr": self.measured_stderr,
            "predicted_bound": self.predicted_bound,
            "predicted_stderr": self.predicted_stderr,
            "term_breakdown": self.term_breakdown,
            "pass": self.passed,
        }


def _radial_cdf(n, sigma, rmax):
    """Tabulated inverse CDF for the bubble-matched radius proposal
    p(rho) ~ rho^(n-1) (1+rho^2)^(-(n+2*sigma-2.5)), whose tail matches the
    radial mass density of |Theta|^2."""
    expo = n + 2.0 * sigma - 2.5
    rho = np.concatenate([[0.0], np.geomspace(1e-4, rmax, 4000)])
    pdf = rho ** (n - 1) / (1.0 + rho ** 2) ** expo
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(rho))])
    norm = cdf[-1]
    return rho, pdf / norm, cdf / norm


# samples per chunk of a Monte Carlo batch's arithmetic (see _mc_batch)
_MC_CHUNK = 1 << 15


def _mc_batch(theta, lam, bg, seed, m, tab_rho, tab_pdf, tab_cdf):
    """One batch of m importance-sampled pairs: the batch means of the four
    integrands (flat, q*B, F, Taylor remainder), the means of their squares,
    and the count of samples that break the one-sided Taylor inequality.

    The random numbers are drawn for the whole batch, in the order u, dir_y,
    the rw uniforms, dir_w, so a sample is the same point for any chunk
    size.  The arithmetic then runs over _MC_CHUNK samples at a time, each
    chunk adding into the sums; a sample keeps its bits and only the order
    of the sums depends on the chunk.  A batch so holds its draws (2n + 2
    doubles per sample) and one chunk's temporaries: at m = 200000 and
    n = 4 it peaks at 33 MiB under tracemalloc, 15 MiB of it the draws, where
    batch-length temporaries took it to 118 MiB.  The chunk is not smaller
    because each chunk pays a fixed Python and numpy overhead while it
    holds the GIL, which the other sampler threads wait for: two workers
    ran the sampler slower at 2^11 and 2^13 samples per chunk than at 2^15,
    and at 2^11 slower than with no chunks at all."""
    n, sigma = bg.n, theta.sigma
    q = (n + 2.0 * sigma) / 2.0
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    dir_y = rng.standard_normal((m, n))
    u_w = rng.random(m)
    dir_w = rng.standard_normal((m, n))
    area = 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)
    sup = 3.0 * lam
    # separation with the quadratically damped singular proposal
    wmax = lam * np.sqrt((2.0 * bg.R0) ** 2 + bg.R0 ** 2) + sup
    pw = 2.0 - 2.0 * sigma
    amp = lam ** ((n - 2.0 * sigma) / 2.0)

    def theta_hat(pts, rho, live):
        # eta(rho/lam) Theta_lam at pts, evaluated only where it can be
        # nonzero (z > 0 and rho <= sup) among the live points
        out = np.zeros(len(pts))
        live = live & (pts[:, -1] > 0) & (rho <= sup)
        p = pts[live]
        r = np.sqrt(np.sum(p[:, :-1] ** 2, axis=-1))
        out[live] = cutoff(rho[live] / lam) * amp * eval_u(theta, r, p[:, -1])
        return out

    sums = np.zeros(4)
    sq = np.zeros(4)
    taylor_bad = 0
    for a in range(0, m, _MC_CHUNK):
        c = slice(a, a + _MC_CHUNK)
        # y in the cutoff support, radius from the bubble-matched proposal
        ry = np.interp(u[c], tab_cdf, tab_rho)
        # views of the draws, normalised in place: each chunk is read once
        dy = dir_y[c]
        dy /= np.linalg.norm(dy, axis=1, keepdims=True)
        dy[:, -1] = np.abs(dy[:, -1])
        y = dy * ry[:, None]
        q_y = np.interp(ry, tab_rho, tab_pdf) / (
            (area / 2.0) * np.maximum(ry, 1e-300) ** (n - 1)
        )
        rw = wmax * u_w[c] ** (1.0 / pw)
        dw = dir_w[c]
        dw /= np.linalg.norm(dw, axis=1, keepdims=True)
        w = dw * rw[:, None]
        q_w = (pw / wmax ** pw) * rw ** (1.0 - 2.0 * sigma) / (area * rw ** (n - 1))
        inv_density = 1.0 / (q_y * q_w)
        y_lam = y / lam
        ty = theta_hat(y, np.sqrt(np.sum(y ** 2, axis=-1)), True)
        for sgn in (1.0, -1.0):
            z_pt = y + sgn * w
            rz = np.sqrt(np.sum(z_pt[:, :-1] ** 2, axis=1))
            in_u = (
                (z_pt[:, -1] > 0)
                & (z_pt[:, -1] < lam * bg.R0)
                & (rz < lam * bg.R0)
            )
            rho2 = np.sum(z_pt ** 2, axis=1)
            tz = theta_hat(z_pt, np.sqrt(rho2), in_u)
            diff2 = np.where(in_u, (ty - tz) ** 2, 0.0)
            # double weight for pairs whose partner is outside the support,
            # covering the (xi outside, zeta inside) half of the pair set
            mult = np.where(in_u, 1.0 + (rho2 > sup ** 2), 0.0)
            d = y - z_pt
            dist2 = np.sum(d ** 2, axis=1)
            B, C, D, E, F, ratio = _correction_arrays(
                bg, y_lam, z_pt / lam, n, sigma
            )
            kern_flat = dist2 ** (-q)
            g_flat = diff2 * kern_flat
            # the flat part is known exactly from the grid; only the
            # curvature deviation (ratio - 1) is left to the sampler, so the
            # flat case has zero Monte Carlo variance
            g_delta = g_flat * (ratio - 1.0)
            g_b = g_flat * q * B
            g_f = g_flat * F
            # the part of the deviation linear in B has a known mean (the
            # curvature term, computed by quadrature), so only the Taylor
            # remainder delta + qB is left to the sampler
            g_res = g_delta + g_b
            taylor_bad += int(
                np.sum(g_delta > -g_b + g_f + 1e-12 * np.abs(g_flat))
            )
            for k, g in enumerate((g_flat, g_b, g_f, g_res)):
                v = 0.5 * g * mult * inv_density
                sums[k] += np.sum(v)
                sq[k] += np.sum(v ** 2)
    return sums / m, sq / m, taylor_bad


def verify_upper_bound(theta, gamma0_report, bg, lam_schedule, mc_config=None):
    """Monte Carlo check of the curved-domain upper bound over a lambda scan.

    For each lambda the sheared-domain quotient of the cutoff test function
    is estimated by importance-sampled pair sampling and compared against
    the flat quotient minus the curvature correction plus the measured
    F-term; one verdict per scale.  Every lambda must be finite and > 0,
    which is checked before any table is built.  One pool of cfg.workers
    threads runs the batches of every lambda; each batch depends only on its
    seed and the batches are averaged in seed order, so the verdicts are the
    same for any worker count."""
    if gamma0_report is None:
        raise MissingGamma0("verification needs a Gamma0 report")
    cfg = mc_config or MCConfig()
    n, sigma = bg.n, theta.sigma
    if theta.grid.n != n:
        raise InvalidParams(f"field dimension {theta.grid.n} vs graph {n}")
    if bg.R0 < 3.0:
        raise InvalidParams("chart must contain the cutoff support ball B_3")
    lams = [float(lam) for lam in lam_schedule]
    for lam in lams:
        _check_lam(lam)
    p = critical_p(n, sigma)
    ref = _reference(theta)
    tab_curv = build_kernel_table(theta.grid, KernelParams.curvature(n, sigma))
    verdicts = []
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for lam in lams:
            deficit = _cutoff_deficit(theta, lam, ref)
            mass = deficit["cutoff_mass"]
            flat_grid = deficit["numerator_bound_terms"]["cutoff_energy"]
            tab_rho, tab_pdf, tab_cdf = _radial_cdf(n, sigma, 3.0 * lam)
            seeds = [
                cfg.seed * 100003 + int(lam * 1009) + b for b in range(cfg.batches)
            ]
            out = list(
                pool.map(
                    lambda s: _mc_batch(
                        theta,
                        lam,
                        bg,
                        s,
                        cfg.samples_per_batch,
                        tab_rho,
                        tab_pdf,
                        tab_cdf,
                    ),
                    seeds,
                )
            )
            means = np.array([o[0] for o in out])
            taylor_bad = sum(o[2] for o in out)
            est = means.mean(axis=0)
            se = means.std(axis=0, ddof=1) / np.sqrt(cfg.batches)
            i_flat_mc, i_b, i_f, i_res = est
            denom = mass ** (2.0 / p)
            ct = curvature_term(theta, lam, bg, gamma0_report, tab_curv)
            # the B-linear part of the kernel deviation is evaluated by
            # quadrature through the curvature term; the sampler measures only
            # the Taylor remainder, whose scale the F bound controls
            i_meas = flat_grid - ct.value + i_res
            if se[3] / flat_grid > cfg.max_rel_stderr:
                raise MonteCarloVarianceTooHigh(
                    f"relative stderr {se[3] / flat_grid:.3g} at lambda {lam}"
                )
            # the sampled B-term mean must agree with the quadrature curvature
            # term it replaces; an inconsistent Gamma0 shows up here and
            # nowhere else, since the term cancels in the bound comparison
            b_gap = abs(i_b + ct.value)
            # generous gate: the B-term sampler is heavy tailed, so this only
            # catches a grossly inconsistent curvature coefficient
            b_budget = 10.0 * (se[1] + ct.stderr) + 0.5 * (
                abs(i_b) + abs(ct.value)
            )
            b_consistent = bool(b_gap <= b_budget + 1e-12)
            measured = i_meas / denom
            predicted = (flat_grid - ct.value + i_f) / denom
            pred_err = se[2] / denom
            meas_err = (
                se[3] + ct.stderr + ct.finite_domain_term + ct.cutoff_term
            ) / denom
            verdicts.append(
                ExpansionVerdict(
                    lam=lam,
                    measured_quotient=float(measured),
                    measured_stderr=float(meas_err),
                    predicted_bound=float(predicted),
                    predicted_stderr=float(pred_err),
                    term_breakdown={
                        "flat_energy": float(flat_grid / denom),
                        "flat_energy_mc": float(i_flat_mc / denom),
                        "flat_energy_mc_stderr": float(se[0] / denom),
                        "curvature_term": float(ct.value / denom),
                        "F_term": float(i_f / denom),
                        "B_term_sampled": float(i_b / denom),
                        "remainder_sampled": float(i_res / denom),
                        "remainder_stderr": float(se[3] / denom),
                        "cutoff_corrections": deficit["numerator_bound_terms"],
                        "denominator_deficit": deficit["denominator_deficit"],
                        "taylor_violations": int(taylor_bad),
                        "b_term_gap": float(b_gap),
                        "b_term_budget": float(b_budget),
                    },
                    passed=bool(
                        measured <= predicted + pred_err + meas_err
                    )
                    and b_consistent,
                )
            )
    return verdicts
