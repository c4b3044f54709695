"""Curvature coefficient from the half-space extremizer.

The target quantity is the pair integral of (xi_n - zeta_n)(|xi'|^2 -
|zeta'|^2) (Theta(xi) - Theta(zeta))^2 |xi - zeta|^(-n-2*sigma-2) over the
half-space, truncated to balls B_lambda and extrapolated in grid size and
truncation radius, with a three-valued sign verdict that never claims a sign
inside the error budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import weighted_seminorm
from .errors import InsufficientConvergence, InvalidGamma, InvalidParams
from .field import make_grid, resample
from .kernel import KernelParams, build_kernel_table, check_real, is_integer

__all__ = [
    "Gamma0Report",
    "estimate_gamma0",
    "tail_bound",
    "interior_weighted_growth",
]


@dataclass(frozen=True)
class Gamma0Report:
    value: float
    grid_extrapolation_error: float
    truncation_tail_bound: float
    lambda_schedule: tuple
    sign_verdict: str
    theta_provenance: str = ""

    def __post_init__(self):
        """Raise InvalidParams, naming the field, unless value is a finite
        real, both error terms are reals >= 0 (inf is allowed: a one-grid
        estimate has no grid error), every truncation radius is finite and
        > 0, and sign_verdict is one of the three verdicts."""
        check_real(self.value, "value")
        for name in ("grid_extrapolation_error", "truncation_tail_bound"):
            check_real(getattr(self, name), name, ge=0, le=np.inf)
        lams = check_real(self.lambda_schedule, "lambda_schedule", gt=0, each=True)
        object.__setattr__(self, "lambda_schedule", tuple(lams))
        if self.sign_verdict not in ("positive", "negative", "indeterminate"):
            raise InvalidParams(
                "sign_verdict must be positive, negative or indeterminate, "
                f"got {self.sign_verdict!r}"
            )

    def to_json(self):
        return {
            "value": self.value,
            "grid_extrapolation_error": self.grid_extrapolation_error,
            "truncation_tail_bound": self.truncation_tail_bound,
            "lambda_schedule": list(self.lambda_schedule),
            "sign_verdict": self.sign_verdict,
            "theta_provenance": self.theta_provenance,
        }


def _on_grid(theta, N):
    g = theta.grid
    new = make_grid(g.n, g.R_max, N, N, g.grading_exponents)
    return resample(theta, new)


def _lambda_fit(lams, vals, sigma):
    """Fit G(lam) = G_inf - c lam^(1-2*sigma); returns (G_inf, c)."""
    A = np.column_stack([np.ones(len(lams)), np.asarray(lams) ** (1.0 - 2 * sigma)])
    coef, *_ = np.linalg.lstsq(A, np.asarray(vals), rcond=None)
    return float(coef[0]), float(-coef[1])


def _checked_inputs(theta, schedule, grids):
    """estimate_gamma0's radii and grid sizes, defaults filled in, checked."""
    g = theta.grid
    if schedule is None:
        schedule = tuple(g.R_max * np.array([0.3, 0.45, 0.65, 0.95]))
    check_real(schedule, "schedule", InvalidGamma, gt=0, each=True)
    schedule = tuple(float(l) for l in schedule)
    # the lambda fit has two parameters, so it needs two distinct radii
    if len(schedule) < 2 or any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise InvalidGamma(
            f"need at least 2 truncation radii, strictly increasing, got {schedule}"
        )
    where = ""
    if grids is None:
        N0 = g.r_nodes.size - 1
        grids = (max(8, (2 * N0) // 3), N0)
        where = f" (the default for theta's N = {N0})"
    grids = tuple(grids)
    if not all(is_integer(N, 4) for N in grids):
        raise InvalidGamma(f"grid sizes must be integers >= 4, got {grids}{where}")
    if any(a >= b for a, b in zip(grids, grids[1:])):
        raise InvalidGamma(f"grids must strictly increase, got {grids}{where}")
    return schedule, grids


def estimate_gamma0(theta, schedule=None, grids=None, provenance=""):
    """Truncated weighted pair sums on each (grid, lambda), extrapolated.

    The schedule must hold at least 2 truncation radii, finite, > 0 and
    strictly increasing, and the grids must be integers >= 4 and strictly
    increase, which _checked_inputs checks before any table is built.  The
    grids default to (max(8, 2N/3), N) for theta's N, so a theta with
    N <= 8 needs them given.  The truncation remainder is fitted against
    the proven lambda^(1-2*sigma) tail scaling; the grid error is a
    two-level difference of the lambda-extrapolated values.  The verdict
    claims a sign only when the value clears the combined budget.
    """
    n, sigma = theta.grid.n, theta.sigma
    schedule, grids = _checked_inputs(theta, schedule, grids)
    per_grid = []
    finest = None
    for N in grids:
        fld = _on_grid(theta, N)
        tab = build_kernel_table(fld.grid, KernelParams.curvature(n, sigma))
        vals = [weighted_seminorm(fld, tab, "gamma0", lam=l) for l in schedule]
        per_grid.append(_lambda_fit(schedule, vals, sigma))
        finest = (fld, vals)
    value = per_grid[-1][0]
    grid_err = (
        abs(per_grid[-1][0] - per_grid[-2][0]) if len(per_grid) > 1 else np.inf
    )
    if not np.isfinite(value):
        raise InsufficientConvergence("curvature estimate is not finite")

    # gamma = 1 exterior bound at the largest lambda, with its constant
    # calibrated on the resolved part of the schedule
    fld, vals = finest
    etab = build_kernel_table(fld.grid, KernelParams.energy(n, sigma))
    bounds = [tail_bound(fld, l, 1.0, table=etab) for l in schedule]
    remainders = [abs(value - v) for v in vals]
    ratios = [
        r / b for r, b in zip(remainders[:-1], bounds[:-1]) if b > 0
    ]
    c_fit = max(ratios) if ratios else 1.0
    tail_term = c_fit * bounds[-1]

    budget = grid_err + tail_term
    if not np.isfinite(budget) or budget > 10.0 * abs(value):
        verdict = "indeterminate"
    elif value - budget > 0:
        verdict = "positive"
    elif value + budget < 0:
        verdict = "negative"
    else:
        verdict = "indeterminate"
    return Gamma0Report(
        value=float(value),
        grid_extrapolation_error=float(grid_err),
        truncation_tail_bound=float(tail_term),
        lambda_schedule=schedule,
        sign_verdict=verdict,
        theta_provenance=provenance,
    )


def tail_bound(theta, lam, gamma, table=None):
    """Weighted energy of the pairs leaving B_lambda x B_lambda, power
    weight gamma; an upper bound for the curvature truncation remainder via
    pointwise domination at gamma = 1."""
    check_real(gamma, "power weight gamma", InvalidGamma, ge=0)
    if gamma >= 2 * theta.sigma:
        raise InvalidGamma(
            f"tail bound needs gamma < 2*sigma, got {gamma} >= {2 * theta.sigma}"
        )
    check_real(lam, "lam", gt=0)
    if table is None:
        table = build_kernel_table(
            theta.grid, KernelParams.energy(theta.grid.n, theta.sigma)
        )
    return weighted_seminorm(theta, table, ("power", float(gamma)), lam, exterior=True)


def interior_weighted_growth(theta, lam, gamma, table=None):
    """Weighted energy of the B_lambda x B_lambda pairs, power weight gamma;
    bounded in lambda for gamma < 2*sigma and growing like
    lambda^(gamma-2*sigma) above."""
    check_real(gamma, "power weight gamma", InvalidGamma, ge=0)
    if gamma == 2 * theta.sigma:
        raise InvalidGamma("gamma = 2*sigma is the excluded borderline case")
    if lam is not None:
        check_real(lam, "lam", gt=0)
    if table is None:
        table = build_kernel_table(
            theta.grid, KernelParams.energy(theta.grid.n, theta.sigma)
        )
    return weighted_seminorm(theta, table, ("power", float(gamma)), lam=lam)
