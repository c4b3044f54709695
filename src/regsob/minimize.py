"""Half-space extremizer via rearrangement-stabilized projected descent.

Minimizes the Rayleigh quotient energy / ||u||_pc^2 over nonnegative radial
fields on the half-space, with grid continuation coarse to fine, monotone
Armijo backtracking, and periodic slice-wise decreasing rearrangement.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .energy import (
    _interior_mass_grad,
    assemble,
    critical_p,
    el_residual,
    lp_norm,
    rayleigh_quotient,
)
from .errors import DivergentStep, InvalidParams
from .field import (
    RadialField,
    TailModel,
    attach_tail_model,
    dilate_exact,
    eval_u,
    make_grid,
    resample,
    save_field,
    synthesize_profile,
)
from .io_container import write_atomic
from .kernel import KernelParams, build_kernel_table, sphere_surface
from .rearrange import rearrange_sharp

__all__ = [
    "SolverConfig",
    "MinimizerResult",
    "EnvelopeReport",
    "solve_halfspace",
    "scale_field",
    "envelope_check",
    "save_result",
]

# Armijo step: initial length (relative to the iterate's scale), shrink
# factor per backtrack and backtracks per search
STEP = 0.5
BACKTRACK = 0.5
MAX_BACKTRACKS = 30
# iterations between rearrangement attempts
REARRANGE_EVERY = 10
# canonical dilation: height at which the on-axis regular factor falls to
# half its boundary value
PIN_HALF_HEIGHT = 1.0


@dataclass(frozen=True)
class SolverConfig:
    n: int = 4
    sigma: float = 0.75
    schedule: tuple = (16, 24, 32)
    R_max: float = 20.0
    grading: tuple = (2.0, 2.0)
    tol_quotient: float = 1e-6
    tol_residual: float = 0.05
    max_iters: int = 250
    seed: int = 0
    init: str = "envelope"
    init_noise: float = 0.0

    def __post_init__(self):
        for name in ("tol_quotient", "tol_residual", "R_max"):
            x = getattr(self, name)
            if not 0 < x < np.inf:
                raise InvalidParams(f"{name} must be finite and > 0, got {x!r}")
        if not 0 <= self.init_noise < np.inf:
            raise InvalidParams(
                f"init_noise must be finite and >= 0, got {self.init_noise!r}"
            )
        m = self.max_iters
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise InvalidParams(f"max_iters must be an integer >= 1, got {m!r}")
        if not self.schedule:
            raise InvalidParams("grid schedule must name at least one grid")
        if list(self.schedule) != sorted(self.schedule):
            raise InvalidParams(
                f"grid schedule must be coarse to fine, got {self.schedule}"
            )

    def digest(self):
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted boundary and far-field exponents of u with stderr, and the
    range of u over the matching two-power envelope on the interior."""

    boundary_exponent: float
    boundary_stderr: float
    decay_exponent: float
    decay_stderr: float
    ratio_min: float
    ratio_max: float


@dataclass(frozen=True)
class MinimizerResult:
    """Solver output.  theta is the canonically dilated, normalized
    minimizer; s_estimate is the Rayleigh quotient of the minimizer before
    the canonical dilation (invariant in the continuum, and free of the
    pin's resampling error).  trace concatenates the accepted quotient
    values of all schedule stages; trace_breaks holds the start index of
    each stage, and the trace is nonincreasing within each stage."""

    theta: RadialField
    s_estimate: float
    el_residual: float
    envelope_report: EnvelopeReport
    trace: np.ndarray
    trace_breaks: tuple
    grid_quotients: tuple
    converged: bool
    config: SolverConfig


def _normalized(base, values, p):
    m = lp_norm(base.with_values(values), p)
    if m <= 0:
        raise DivergentStep("iterate collapsed to the zero field")
    return values / m


def _descend_on_grid(fld, table, cfg, trace):
    """Projected gradient descent at fixed grid; returns (field, converged)."""
    grid = fld.grid
    p = critical_p(grid.n, cfg.sigma)
    form = assemble(grid, table, cfg.sigma)
    sph = sphere_surface(grid.n - 2)

    def quotient(v):
        return form.energy(v) / lp_norm(fld.with_values(v), p) ** 2

    def norm2_grad(v):
        # gradient of lp_norm^2, consistent with the quadrature in lp_norm
        mass, gmass = _interior_mass_grad(fld.with_values(v), p)
        mass = sph * mass
        return (2.0 / p) * mass ** (2.0 / p - 1.0) * sph * gmass

    v = _normalized(fld, np.clip(fld.regular_values, 0.0, None), p)
    Q = quotient(v)
    if not np.isfinite(Q):
        raise DivergentStep("non-finite quotient at initialization")
    trace.append(Q)
    tau = STEP
    window = []
    for it in range(cfg.max_iters):
        if it > 0 and it % REARRANGE_EVERY == 0:
            vr = _normalized(fld, rearrange_sharp(fld.with_values(v)).regular_values, p)
            Qr = quotient(vr)
            if Qr <= Q * (1 + 1e-12):
                v, Q = vr, min(Qr, Q)
                trace.append(Q)
        g = form.grad(v).reshape(grid.shape)
        d = g - Q * norm2_grad(v)
        scale = np.max(np.abs(v)) / max(np.max(np.abs(d)), 1e-300)
        accepted = False
        t = tau
        for _ in range(MAX_BACKTRACKS):
            cand = np.clip(v - t * scale * d, 0.0, None)
            if not np.any(cand):
                t *= BACKTRACK
                continue
            cand = _normalized(fld, cand, p)
            Qc = quotient(cand)
            if not np.isfinite(Qc):
                raise DivergentStep("non-finite quotient during line search")
            if Qc <= Q:
                v, Q = cand, Qc
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break
        trace.append(Q)
        tau = min(STEP, t / BACKTRACK)
        window.append(Q)
        if len(window) > 6:
            window.pop(0)
            if window[0] - window[-1] <= cfg.tol_quotient * abs(window[-1]):
                return _final_rearrange(fld, v, Q, quotient, trace, p), True
    # iteration cap or a failed Armijo search: not converged
    return _final_rearrange(fld, v, Q, quotient, trace, p), False


def _final_rearrange(fld, v, Q, quotient, trace, p):
    """Leave each stage with a slice-wise nonincreasing iterate."""
    vr = _normalized(fld, rearrange_sharp(fld.with_values(v)).regular_values, p)
    Qr = quotient(vr)
    if Qr <= Q * (1 + 1e-10):
        trace.append(min(Qr, Q))
        return fld.with_values(vr)
    return fld.with_values(v)


def _initial_field(grid, cfg):
    fld = synthesize_profile(cfg.init, grid, cfg.sigma)
    if cfg.init_noise > 0:
        rng = np.random.default_rng(cfg.seed)
        # multiplicative perturbation: additive noise at a fraction of the
        # peak floods the decaying far field and changes the basin
        bump = rng.uniform(-cfg.init_noise, cfg.init_noise, grid.shape)
        fld = fld.with_values(
            np.clip(fld.regular_values * (1.0 + bump), 0.0, None)
        )
    return fld


def _pin_scale(fld):
    """Canonical dilation: the on-axis regular factor falls to half its
    boundary value at a fixed height, removing the dilation degeneracy."""
    axis = fld.regular_values[0, :]
    top = axis[0]
    if top <= 0:
        return fld
    below = np.nonzero(axis <= 0.5 * top)[0]
    if below.size == 0:
        return fld
    j = below[0]
    if j == 0:
        return fld
    z0, z1 = fld.grid.z_nodes[j - 1], fld.grid.z_nodes[j]
    a0, a1 = axis[j - 1], axis[j]
    z_half = z0 + (z1 - z0) * (a0 - 0.5 * top) / max(a0 - a1, 1e-300)
    lam = z_half / PIN_HALF_HEIGHT
    if not np.isfinite(lam) or lam <= 0 or abs(lam - 1.0) < 1e-12:
        return fld
    return scale_field(fld, lam)


def solve_halfspace(config=None, **kw):
    """Minimize the half-space Rayleigh quotient over the grid schedule."""
    cfg = config if config is not None else SolverConfig(**kw)
    p = critical_p(cfg.n, cfg.sigma)
    trace = []
    breaks = []
    fld = None
    converged = False
    table = None
    for N in cfg.schedule:
        grid = make_grid(cfg.n, cfg.R_max, N, N, cfg.grading)
        table = build_kernel_table(grid, KernelParams.energy(cfg.n, cfg.sigma))
        if fld is None:
            fld = _initial_field(grid, cfg)
        else:
            fld = resample(fld, grid)
        breaks.append(len(trace))
        fld, converged = _descend_on_grid(fld, table, cfg, trace)
    quotients = tuple(
        trace[b - 1] if b > 0 else np.nan for b in breaks[1:]
    ) + (trace[-1],)
    fld = attach_tail_model(fld)
    s_est = rayleigh_quotient(fld, table)
    resid = el_residual(fld, table)
    fld = _pin_scale(fld)
    m = lp_norm(fld, p)
    if m <= 0:
        raise DivergentStep("solver produced the zero field")
    tail = fld.tail
    if tail is not None:
        tail = TailModel(amplitude=tail.amplitude / m, exponent=tail.exponent)
    fld = fld.with_values(np.clip(fld.regular_values, 0.0, None) / m, tail=tail)
    report = envelope_check(fld)
    return MinimizerResult(
        theta=fld,
        s_estimate=float(s_est),
        el_residual=float(resid),
        envelope_report=report,
        trace=np.asarray(trace),
        trace_breaks=tuple(breaks),
        grid_quotients=quotients,
        converged=bool(converged and resid <= cfg.tol_residual),
        config=cfg,
    )


def scale_field(theta, lam):
    """Dilation u_lam(x) = lam^((n-2*sigma)/2) u(lam x) resampled onto the
    same grid; the critical-norm and the quotient are invariant up to
    resampling error."""
    if not 0 < lam < np.inf:
        raise InvalidParams(f"dilation factor lam must be finite and > 0, got {lam}")
    if lam == 1.0:
        return theta
    return resample(dilate_exact(theta, lam), theta.grid)


def _fit(x, y):
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope), float(np.sqrt(max(cov[0, 0], 0.0)))


def envelope_check(theta):
    """Fit the boundary and far-field exponents of u and scan the ratio of
    the regular factor to the matching two-power envelope."""
    grid = theta.grid
    n, sigma = grid.n, theta.sigma
    decay_ref = n + 2 * sigma - 2.0
    R, Z = np.meshgrid(grid.r_nodes, grid.z_nodes, indexing="ij")
    rho = np.hypot(R, Z)
    vt = theta.regular_values

    far = (rho >= 0.15 * grid.R_max) & (rho <= 0.75 * grid.R_max) & (vt > 0)
    slope, err = _fit(0.5 * np.log1p(rho[far] ** 2), np.log(vt[far]))
    decay_exponent, decay_stderr = -slope, err

    # z window small enough that the profile's own variation contributes
    # little to the slope, but spanning more than one boundary cell
    slopes = []
    zq = grid.R_max * np.geomspace(1e-3, 6e-3, 8)
    for rq in (0.0, 0.1, 0.2):
        u = eval_u(theta, np.full(zq.size, rq * grid.R_max), zq)
        if np.all(u > 0):
            slopes.append(_fit(np.log(zq), np.log(u))[0])
    boundary_exponent = float(np.mean(slopes)) if slopes else np.nan
    boundary_stderr = float(np.std(slopes)) if slopes else np.nan

    env = (1.0 + rho ** 2) ** (-decay_ref / 2.0)
    interior = rho <= 0.9 * grid.R_max
    ratio = vt[interior] / env[interior]
    return EnvelopeReport(
        boundary_exponent=boundary_exponent,
        boundary_stderr=boundary_stderr,
        decay_exponent=float(decay_exponent),
        decay_stderr=float(decay_stderr),
        ratio_min=float(ratio.min()),
        ratio_max=float(ratio.max()),
    )


def save_result(result, path):
    """Field file plus a JSON sidecar with the scalar outputs."""
    save_field(result.theta, path)
    sidecar = {
        "s_estimate": result.s_estimate,
        "el_residual": result.el_residual,
        "converged": result.converged,
        "trace": [float(t) for t in result.trace],
        "envelope_report": asdict(result.envelope_report),
        "config": asdict(result.config),
        "config_hash": result.config.digest(),
    }
    text = json.dumps(sidecar, indent=2, default=list)
    write_atomic(str(path) + ".json", text.encode())
