"""Angular reduction and tabulation of the singular pair interaction kernel.

For fields on the half-space that depend only on (|x'|, x_n), the 2n-dimensional
interaction |xi - zeta|^(-p) reduces to a three-variable kernel

    K_p(r, s, t) = integral over S^(n-2) of (r^2 + s^2 - 2 r s w_1 + t^2)^(-p/2)

where r, s are horizontal radii and t is the vertical difference.  The module
evaluates K_p for any dimension n >= 2 and tabulates it on a grid.  For n = 2
and 4 the angle integral has a closed form; for other n it is summed on
dyadic Gauss panels, node by node for each point, so every value depends
only on its own (r, s, t): the same point gets the same bits alone, in any
batch and from any thread.
"""

from __future__ import annotations

import functools
import hashlib
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_jacobi, roots_legendre

from .errors import DiagonalSingularity, InvalidParams, OutOfMemoryEstimate

# Nodes per panel of the composite rule; 12-point Gauss on a dyadic panel of
# m^(-p/2) is accurate to ~1e-14, which dominates the error budget.
_PANEL_NODES = 12
_MAX_PANELS = 48
# kernel points per call in build_kernel_table: a call's temporaries take a
# few hundred bytes per point for odd n, so about 6 MiB at this size
_TABLE_SLICE = 1 << 14


@functools.lru_cache(maxsize=256)
def gauss_rule(q, a=None, b=None):
    """Nodes and weights of the q-point Gauss rule on [-1, 1]: Legendre for
    gauss_rule(q), Jacobi with the weight (1 - x)^a (1 + x)^b for
    gauss_rule(q, a, b).  Cached; the arrays are read-only."""
    x, w = roots_legendre(q) if a is None else roots_jacobi(q, a, b)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_nodes(lo, width, q, power=0):
    """The q-point Gauss-Legendre rule on each interval [lo, lo + width]:
    nodes x = lo + width (xg + 1)/2 and weights w = width wg/2, times
    x**power when power is nonzero, each of shape lo.shape + (q,).  It takes
    the width, not the right end, because a caller's width need not equal
    hi - lo in floating point."""
    xg, wg = gauss_rule(q)
    lo = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(width, dtype=float)[..., None]
    x = lo + width * ((xg + 1.0) / 2.0)
    w = width * (wg / 2.0)
    if power:
        w = w * x ** power
    return x, w


def is_integer(k, least):
    """True for an integer (numbers.Integral, not a bool) k >= least."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= least


def check_integer(k, name, least):
    """k, unless it is not an integer >= least (InvalidParams naming name).
    The one check of a caller's integer input."""
    if not is_integer(k, least):
        raise InvalidParams(f"{name} must be an integer >= {least}, got {k!r}")
    return k


def check_real(
    x, name, error=InvalidParams, *, gt=-np.inf, ge=None, lt=np.inf, le=None, each=False
):
    """x unchanged if it is a real number (numbers.Real, not a bool) above gt
    (or at least ge) and below lt (or at most le), so finite by default; with
    each=True, a list or tuple of such numbers.  Otherwise error, naming name
    and x.  The one check of a caller's real-valued input."""

    def ok(v):
        return (
            isinstance(v, numbers.Real)
            and not isinstance(v, bool)
            and (v > gt if ge is None else v >= ge)
            and (v < lt if le is None else v <= le)
        )

    if isinstance(x, (list, tuple)) and all(map(ok, x)) if each else ok(x):
        return x
    low = gt if ge is None else ge
    high = lt if le is None else le
    if low > -np.inf and high < np.inf:
        left, right = "(" if ge is None else "[", ")" if le is None else "]"
        rule = f"lie in {left}{low}, {high}{right}"
    else:
        terms = ["finite"] if le is None else []
        if low > -np.inf:
            terms.append(f"{'>' if ge is None else '>='} {low}")
        rule = "be " + " and ".join(terms)
    if each:
        name = f"{name} must be a list or tuple and each entry"
    raise error(f"{name} must {rule}, got {x!r}")


def check_sigma(sigma):
    """sigma, unless it is not a real in (1/2, 1) (InvalidParams naming it)."""
    return check_real(sigma, "sigma", gt=0.5, lt=1)


def sphere_surface(d):
    """Surface measure of the unit sphere S^d in R^(d+1)."""
    if d < 0:
        raise InvalidParams(f"sphere dimension must be >= 0, got {d}")
    return 2.0 * np.pi ** ((d + 1) / 2.0) / gamma_fn((d + 1) / 2.0)


def _energy_p(n, sigma):
    """n + 2*sigma, once n is an integer >= 2 and sigma a real in (1/2, 1)."""
    return check_integer(n, "dimension n", 2) + 2 * check_sigma(sigma)


@dataclass(frozen=True)
class KernelParams:
    """Dimension, order and exponent of the reduced kernel.

    The exponent p is constrained to the two values used by the energy
    (p = n + 2*sigma) and by the curvature coefficient (p = n + 2*sigma + 2).
    """

    n: int
    sigma: float
    p: float

    def __post_init__(self):
        e = _energy_p(self.n, self.sigma)
        if not any(abs(check_real(self.p, "p") - a) < 1e-12 for a in (e, e + 2)):
            raise InvalidParams(
                f"p must be n + 2*sigma or n + 2*sigma + 2, got {self.p}"
            )

    @classmethod
    def energy(cls, n, sigma):
        return cls(n, sigma, _energy_p(n, sigma))

    @classmethod
    def curvature(cls, n, sigma):
        return cls(n, sigma, _energy_p(n, sigma) + 2)

    @property
    def is_energy(self):
        return abs(self.p - (self.n + 2 * self.sigma)) < 1e-12


def _closed_form_d2(p, lo, hi, rs):
    """Exact angle integral over S^2 of m^(-p/2) for squared separations m
    in [lo, hi]: elementary antiderivative in m."""
    q = p / 2.0
    return (2.0 * np.pi) * (lo ** (1.0 - q) - hi ** (1.0 - q)) / ((q - 1.0) * 2.0 * rs)


def _node_sum(f, w):
    """sum_j w[j] f[j] over the node axis 0, taken in node order.  Each
    point's sum reads its own column only, so its bits do not depend on the
    other points of the call (a BLAS f @ w rounds by call size)."""
    out = f[0] * w[0]
    for j in range(1, w.size):
        out += f[j] * w[j]
    return out


def _composite_moment(p, m0, m1, alpha):
    """integral_{m0}^{m1} m^(-p/2) ((m - m0)(m1 - m))^alpha dm, vectorized.

    Splits dyadically away from the peak at m = m0; the singular endpoint
    factors are absorbed into Gauss-Jacobi weights on the first/last panels.
    Arrays are (node, point), and each point's value depends on that point
    alone.
    """
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    T = m1 - m0
    out = np.zeros_like(m0)
    mild = T <= 2.0 * m0
    peaked = ~mild

    q = p / 2.0

    if np.any(mild):
        a = m0[mild]
        tt = T[mild]
        x, w = gauss_rule(_PANEL_NODES, alpha, alpha)
        tau = tt * (x[:, None] + 1.0) / 2.0
        g = (a + tau) ** (-q)
        out[mild] = (tt / 2.0) ** (2.0 * alpha + 1.0) * _node_sum(g, w)

    if np.any(peaked):
        a = m0[peaked]
        tt = T[peaked]
        # first panel [0, m0]: left-endpoint weight tau^alpha
        xj, wj = gauss_rule(_PANEL_NODES, 0.0, alpha)
        h = a
        tau = h * (xj[:, None] + 1.0) / 2.0
        f = (a + tau) ** (-q) * (tt - tau) ** alpha
        acc = (h / 2.0) ** (alpha + 1.0) * _node_sum(f, wj)
        # dyadic middle panels [m0 2^k, m0 2^(k+1)] clipped to [m0, T/2],
        # over the points whose panel k starts below T/2
        xg, wg = gauss_rule(_PANEL_NODES)
        half = tt / 2.0
        live, a_l, t_l, h_l = np.arange(a.size), a, tt, half
        for k in range(_MAX_PANELS):
            lo = np.minimum(a_l * 2.0 ** k, h_l)
            keep = lo < h_l
            if not keep.all():
                live, a_l, t_l, h_l, lo = (v[keep] for v in (live, a_l, t_l, h_l, lo))
                if not live.size:
                    break
            width = np.minimum(a_l * 2.0 ** (k + 1), h_l) - lo
            tau = lo + width * (xg[:, None] + 1.0) / 2.0
            f = tau ** alpha * (t_l - tau) ** alpha * (a_l + tau) ** (-q)
            acc[live] += (width / 2.0) * _node_sum(f, wg)
        # last panel [T/2, T]: right-endpoint weight (T - tau)^alpha
        xj, wj = gauss_rule(_PANEL_NODES, alpha, 0.0)
        tau = half + half * (xj[:, None] + 1.0) / 2.0
        f = tau ** alpha * (a + tau) ** (-q)
        acc += (half / 2.0) ** (alpha + 1.0) * _node_sum(f, wj)
        out[peaked] = acc
    return out


def _off_axis(p, d, r, s, rs, t2, d0):
    """K_p at points with r s != 0, from r, s, r s, t^2 and (r - s)^2 on
    shapes that broadcast against each other.  Each branch forms only what
    it reads, and the Gauss-Jacobi moments of d >= 3 run on flat arrays."""
    if d == 2:
        c = r * r + s * s + t2
        return _closed_form_d2(p, c - 2.0 * rs, c + 2.0 * rs, rs)
    # the range [m0, m1] of the squared separation over the angle
    m0 = d0 + t2
    d1 = r + s
    m1 = d1 * d1 + t2
    if d == 0:
        return m0 ** (-p / 2.0) + m1 ** (-p / 2.0)
    J = _composite_moment(p, m0.ravel(), m1.ravel(), (d - 2) / 2.0)
    return sphere_surface(d - 1) * (2.0 * rs) ** (-(d - 1)) * J.reshape(m0.shape)


def kernel_values(r, s, t, params):
    """Vectorized K_p over the broadcast shape of r, s and t, 0-d for scalar
    arguments.

    Symmetric in (r, s) and even in t; scales as lambda^(-p) under joint
    dilation.  Raises DiagonalSingularity if any element sits at r = s,
    t = 0.  The squares and the product r s are taken on the inputs' own
    shapes, and only the sums that mix them have the broadcast shape; all
    of it is elementwise, so each value depends only on its own (r, s, t):
    a point gets the same bits alone, in any batch, in any order and from
    inputs of any shapes that broadcast to it.  Points on the axis (r s =
    0) are split off by mask only when a call has some."""
    r, s, t = (np.asarray(x, dtype=float) for x in (r, s, t))
    shape = np.broadcast_shapes(r.shape, s.shape, t.shape)
    # a 0-d input is taken as a 1-element array: numpy's scalar pow rounds
    # unlike its array pow, and a point alone must get the bits it gets in a
    # batch
    r, s, t = (x if x.ndim else x.reshape(1) for x in (r, s, t))
    t2 = t * t
    d0 = r - s
    d0 = d0 * d0
    # (r - s)^2 + t^2 is 0 exactly where both terms are, as both are >= 0
    t_zero = t2 == 0.0
    if t_zero.any() and ((d0 == 0.0) & t_zero).any():
        raise DiagonalSingularity("kernel evaluated at r = s, t = 0")

    p, d = params.p, params.n - 2
    rs = r * s
    axis = rs == 0.0
    if not axis.any():
        return _off_axis(p, d, r, s, rs, t2, d0).reshape(shape)
    c = r * r + s * s + t2
    axis = np.broadcast_to(axis, c.shape)
    out = np.empty(c.shape)
    out[axis] = sphere_surface(d) * c[axis] ** (-p / 2.0)
    rest = ~axis
    if rest.any():
        out[rest] = _off_axis(
            p, d, *(np.broadcast_to(a, c.shape)[rest] for a in (r, s, rs, t2, d0))
        )
    return out.reshape(shape)


@dataclass
class KernelTable:
    """Tabulated K_p over a grid's radii and vertical differences.

    values[i, j, k] = K_p(r_i, r_j, t_k) over the grid's radii r_nodes;
    t_nodes holds 0 and every distance |z_j - z_l| between the grid's z
    nodes, increasing: the kernel is even in t, so each value is kept once.
    (Tables saved with the older signed layout, which mirrored the same
    values to t < 0, load and look up the same entries.)  near_diag_mask
    flags entries inside the singular-cell neighbourhood; no computation
    reads it (the assembled energy leaves out its own window of node pairs
    within 8 cells).
    """

    params: KernelParams
    r_nodes: np.ndarray
    t_nodes: np.ndarray
    values: np.ndarray
    near_diag_mask: np.ndarray
    grid_hash: str = ""
    t_tol: float = 0.0


def grid_signature(grid):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(grid.r_nodes).tobytes())
    h.update(np.ascontiguousarray(grid.z_nodes).tobytes())
    h.update(repr(grid.n).encode())
    return h.hexdigest()[:16]


def grouped_t_nodes(z):
    """0 and the distances |z_j - z_l| > 0, deduplicated with a tolerance:
    one node, the group mean, per run of sorted distances with no gap above
    tol.  Returns (t_nodes, tol), t_nodes increasing from t_nodes[0] = 0."""
    z = np.asarray(z, dtype=float)
    diffs = (z[:, None] - z[None, :]).ravel()
    scale = float(np.max(np.abs(diffs))) or 1.0
    tol = 1e-12 * scale
    pos = np.sort(diffs[diffs > tol])
    groups = np.split(pos, np.flatnonzero(np.diff(pos) > tol) + 1) if pos.size else []
    t_nodes = np.array([0.0] + list(map(np.mean, groups)))
    return t_nodes, tol


def lookup_t(t_nodes, t, tol):
    """Nearest-node index for exact (up to rounding) z differences."""
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(t_nodes, t), 1, t_nodes.size - 1)
    left = idx - 1
    idx = np.where(np.abs(t_nodes[left] - t) <= np.abs(t_nodes[idx] - t), left, idx)
    if np.any(np.abs(t_nodes[idx] - t) > 10 * tol + 1e-300):
        raise InvalidParams("z difference not represented in the table")
    return idx


def build_kernel_table(grid, params, max_bytes=4 << 30):
    """Tabulate K_p at all (r_i, s_j, |z_k - z_l|) of a half-space grid.

    The kernel is evaluated on r x r x t_nodes[1:] (t > 0), in slices of t
    columns of at most _TABLE_SLICE points, and once on the t = 0 plane off
    its diagonal r_i = s_j, the singular entries, which are stored as 0.
    Each value depends only on its own point, so the slices keep the bits,
    and the build peaks near max_bytes' estimate (the stored arrays) plus
    one slice's temporaries.  Entries whose generating node pairs are all
    index-adjacent (the singular cell neighbourhood) are flagged in
    near_diag_mask, which covers the stored zeros.
    """
    if params.n != grid.n:
        raise InvalidParams(
            f"kernel dimension {params.n} does not match grid dimension {grid.n}"
        )
    r = grid.r_nodes
    z = grid.z_nodes
    t_nodes, tol = grouped_t_nodes(z)
    nr, nt = r.size, t_nodes.size
    est = nr * nr * nt * 9  # float64 values + bool mask
    if est > max_bytes:
        raise OutOfMemoryEstimate(
            f"kernel table would need ~{est / 1e9:.2f} GB "
            f"({nr}x{nr}x{nt}); limit is {max_bytes / 1e9:.2f} GB"
        )

    # t values produced by at least one index-adjacent z pair
    jz = np.arange(z.size)
    z_adjacent = np.abs(jz[:, None] - jz[None, :]) <= 1
    t_adjacent = np.zeros(nt, dtype=bool)
    dz = np.abs(z[:, None] - z[None, :])
    t_adjacent[lookup_t(t_nodes, dz[z_adjacent], tol)] = True
    ir = np.arange(nr)
    r_adjacent = np.abs(ir[:, None] - ir[None, :]) <= 1
    mask = r_adjacent[:, :, None] & t_adjacent[None, None, :]

    values = np.zeros((nr, nr, nt), dtype=float)
    cols = max(1, _TABLE_SLICE // (nr * nr))
    for k in range(1, nt, cols):
        values[:, :, k : k + cols] = kernel_values(
            r[:, None, None], r[None, :, None], t_nodes[k : k + cols], params
        )
    i, j = np.nonzero(ir[:, None] != ir[None, :])
    values[i, j, 0] = kernel_values(r[i], r[j], 0.0, params)

    return KernelTable(
        params=params,
        r_nodes=r.copy(),
        t_nodes=t_nodes,
        values=values,
        near_diag_mask=mask,
        grid_hash=grid_signature(grid),
        t_tol=tol,
    )


def t_index_map(table, grid):
    """idx[j, l] such that table.t_nodes[idx[j, l]] matches |z_j - z_l|.
    z_j - z_l is exactly -(z_l - z_j) in floating point, so both orders of
    a pair land on the same entry."""
    z = grid.z_nodes
    return lookup_t(table.t_nodes, np.abs(z[:, None] - z[None, :]), table.t_tol)


def save_table(table, path):
    """Persist a kernel table in the binary container format."""
    from . import io_container

    header = {
        "kind": "kernel_table",
        "n": table.params.n,
        "sigma": table.params.sigma,
        "p": table.params.p,
        "grid_hash": table.grid_hash,
        "t_tol": table.t_tol,
    }
    arrays = {
        "r_nodes": table.r_nodes,
        "t_nodes": table.t_nodes,
        "values": table.values,
        "near_diag_mask": table.near_diag_mask.astype(float),
    }
    io_container.write_container(path, header, arrays)


def load_table(path):
    from . import io_container

    header, arrays = io_container.read_container(path, kind="kernel_table")
    return KernelTable(
        params=KernelParams(
            n=int(header["n"]), sigma=float(header["sigma"]), p=float(header["p"])
        ),
        r_nodes=arrays["r_nodes"],
        t_nodes=arrays["t_nodes"],
        values=arrays["values"],
        near_diag_mask=arrays["near_diag_mask"].astype(bool),
        grid_hash=str(header["grid_hash"]),
        t_tol=float(header["t_tol"]),
    )
