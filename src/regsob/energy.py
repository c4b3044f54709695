"""Quadratic-form evaluation of the half-space nonlocal energy.

The double integral over the truncated half-space splits into a far part
(node-product quadrature over the kernel table, tensor Gauss rules for box
pairs in the mid ring, and the coupling to the zero exterior of the
truncation cylinder) and a near part (index adjacent dual-cell pairs
integrated by a Duffy-split Gauss-Jacobi rule in relative coordinates).
Each family yields local quadratic forms in the nodal regular factor, built
from rows of one helper, _hat, which places a point's two bilinear weights
per axis on the slots of the family's node patch (3 nodes per axis for the
box moments and the mid ring, 4 for the near forms, 2 for the exterior
forms); the critical-mass rule, built once per grid by _mass_rule, takes
its rows over all nodes of an axis.  The near forms are sum-factorised:
the kernel and every pair weight see the vertical coordinates only through
z_x - z_y, which is fixed in each sample of the relative coordinates, so
each (pair, sample) has a radial factor (the r hats against the kernel and
weight) and a vertical factor (the z hats against the z weights), 4 x 4 per
side pair each.  A pair's vertical factor depends only on its two z cells,
and its radial nodes and hats only on its two r cells, so each is built
once per distinct cell pair of a block and gathered per pair; the kernel,
the weights and the radial factor, which need both sides, and the product
of the two factors are batched per chunk of pairs over every sample and
side pair.
The quadrature rules are defined once each: kernel.gauss_nodes gives every
Gauss-Legendre rule on intervals, _box_pairs enumerates the near and
mid-ring box pairs, field.cell_of locates the cell under a point, and
_node_rule gives the node-product rule (far part, tail, exterior mass);
assemble checks grid, sigma and kernel order before its cache.  The forms are
assembled once per (grid, kernel, weight) into one symmetric matrix H, so
the energy is v.Hv, its gradient 2Hv and the bilinear form v1.Hv2; a build
holds no N x N array besides the far kernel M and H.  Each
question is answered one way: every total reads H; the sum over the pairs
inside a ball B_lambda is AssembledForm.ball, which reads the far moments,
the mid ring (one Gauss basis per box and one weighted kernel block per
pair) and the per-pair near forms, and the complement of the ball is the
energy less that sum.  seminorm's near part and its error estimate are
sums of the per-pair near forms over every pair.

A form builds each family when a caller first reads it.  The build makes
what every caller reads: the far kernel M, the box moments, the fine near
forms and the mid ring.  H, with the exterior forms that only H holds, is
built on the first full energy, gradient or bilinear form, and the coarse
near forms on the first seminorm, the one reader of quad_error_estimate;
weighted_seminorm returns only the total and never builds them.  Ball sums
read no H, so the curvature operators of estimate_gamma0 never build it.

Every parallel job goes through _run, one thread pool per list of tasks
with results in list order: the mid ring with the fine near-form blocks,
the coarse near-form blocks, the exterior forms' blocks of rows, and the
Monte Carlo batches of expansion.verify_upper_bound.  The kernel gives
each point the same bits in any batch, and each pair's near form is one
product over its own samples, so every assembled array is bitwise the same
for any worker count, any chunk of pairs and any order in which the
families are read.
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import (
    GridMismatch,
    InvalidParams,
    NonCompactSupport,
    TableExponentMismatch,
    ZeroField,
)
from .field import cell_of, eval_u
from .kernel import (
    check_real,
    gauss_nodes,
    gauss_rule,
    grid_signature,
    kernel_values,
    sphere_surface,
    t_index_map,
)

_FINE_ORDERS = (6, 3, 3)  # rho, v, per-axis inner Gauss
_COARSE_ORDERS = (4, 2, 2)
_BOX_ORDER = 6  # per-axis Gauss order of the box moments
_MID_ORDER = 3  # per-axis Gauss order of each mid-ring box
_EXT_ORDER = 2  # per-axis Gauss order of each cell's exterior form
_EXT_CHUNK = 200  # exterior boxes per kernel call
_EXT_ROWS = 4  # radial Gauss points of the cells per exterior task
_MASS_ORDER = 4  # per-axis Gauss order of the |u|^p cell rule


@dataclass
class EnergyBreakdown:
    """Energy split into far, near and truncation-tail contributions."""

    total: float
    far_part: float
    near_part: float
    tail_estimate: float
    quad_error_estimate: float


def _weight(spec):
    """The one parser of pair-weight specs: (cache key, pair weight fn(r_x,
    r_y, t) or None for "none", True unless the weight needs the curvature
    table).  t = z_x - z_y is the t the caller gives kernel_values: a weight
    sees the vertical coordinates only through their separation, like the
    kernel, which keeps it out of the near forms' vertical factor."""
    if spec == "none":
        return "none", None, True
    if spec == "gamma0":
        return "gamma0", lambda rx, ry, t: t * (rx ** 2 - ry ** 2), False
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "power":
        g = float(check_real(spec[1], f"power weight gamma of {spec!r}", ge=0))
        return ("power", g), lambda rx, ry, t: (rx**2 + ry**2) ** (g / 2), True
    raise InvalidParams(
        f'weight must be "none", "gamma0" or ("power", gamma >= 0), got {spec!r}'
    )


def _dual_edges(nodes):
    return np.concatenate(
        [[nodes[0]], 0.5 * (nodes[:-1] + nodes[1:]), [nodes[-1]]]
    )


def _box_masses(nodes, k):
    e = _dual_edges(nodes)
    return (e[1:] ** (k + 1) - e[:-1] ** (k + 1)) / (k + 1)


def _node_rule(r_ax, z_ax, n):
    """The node-product rule on the tensor grid r_ax x z_ax, flat in
    row-major node order: coordinates r, z and weights w, the product of the
    dual-box masses of r^(n-2) dr and of dz."""
    R, Z = np.meshgrid(r_ax, z_ax, indexing="ij")
    W = _box_masses(r_ax, n - 2)[:, None] * _box_masses(z_ax, 0)[None, :]
    return R.ravel(), Z.ravel(), W.ravel()


def _box_pairs(nr, nz, ring_lo, ring_hi):
    """Box pairs (a, b = a + (di, dj)) of an nr x nz box grid, b
    lexicographically >= a, ring_lo <= max(di, |dj|) <= ring_hi.  Yields
    (di, dj, I, J) offset by offset, di then dj increasing, with I, J the
    indices of the boxes a in row-major order; empty offsets are skipped."""
    for di in range(ring_hi + 1):
        for dj in range(-ring_hi, ring_hi + 1):
            if max(di, abs(dj)) < ring_lo or (di == 0 and dj < 0):
                continue
            ii = np.arange(nr - di)
            jj = np.arange(max(0, -dj), min(nz, nz - dj))
            if ii.size and jj.size:
                yield di, dj, np.repeat(ii, jj.size), np.tile(jj, ii.size)


def _interp_slots(nodes, base, x):
    """Local slot of the cell holding coordinate x and x's fraction across
    that cell, within the 3- or 4-node patch starting at base."""
    c, f = cell_of(nodes, x)
    return c - base, f


def _hat(c, f, width):
    """Bilinear weights of points as rows over `width` patch slots: 1 - f at
    slot c and f at slot c + 1, shape c.shape + (width,).

    Both are written into one flat buffer at at = row * width + c, with one
    pad slot at its end, f first: a point on its patch's far corner (c =
    width - 1, f = 0) writes its 0 into the next row's first slot, which
    that row's own 1 - f, written after every f, overwrites or leaves 0."""
    c, f = np.broadcast_arrays(c, f)
    at = np.arange(c.size) * width + c.ravel()
    out = np.zeros(c.size * width + 1)
    out[at + 1] = f.ravel()
    out[at] = 1.0 - f.ravel()
    return out[:-1].reshape(c.shape + (width,))


def _patch_maps(rows, cols, nz):
    """Flat node indices i * nz + j of tensor node patches, one row per
    patch: rows (..., a) and cols (..., b) hold each patch's node indices
    along r and along z and broadcast against each other.  Returns
    (patches, a * b) with the z slot running fastest."""
    m = rows[..., :, None] * nz + cols[..., None, :]
    return m.reshape(-1, m.shape[-2] * m.shape[-1])


_Z_PANELS = 10


def _z_weights(zz, w, dz, e_self, e_other):
    """Plain Gauss weights w at the z nodes zz times the algebraic weight,
    multiplied in this order: w z^e_self, then |z + dz|^e_other."""
    if e_self:
        w = w * zz ** e_self
    if e_other:
        w = w * np.abs(zz + dz[:, None]) ** e_other
    return w


def _z_rule(lo, hi, dz, e_self, e_other, q, panels=0):
    """Nodes and weights for the inner vertical integral with the algebraic
    weight z^e_self (z + dz)^e_other on [lo, hi], vectorized over pairs.

    The factors vanish at z = 0 and z = -dz, both at or left of lo.  A
    factor singular at the endpoint is absorbed into a Gauss-Jacobi head
    panel whose length stops at the other factor's scale; `panels`
    geometric Legendre panels cover the rest with explicit weights.  With
    panels = 0 a single panel spans the interval, which is accurate only
    when neither singular point touches it (interior cell pairs)."""
    P = lo.shape[0]
    width = np.maximum(hi - lo, 0.0)
    tol = 1e-13 * np.maximum(hi, 1.0)
    d_self = lo if e_self > 0 else np.full(P, np.inf)
    d_other = lo + dz if e_other > 0 else np.full(P, np.inf)
    at_self = d_self <= tol
    at_other = (d_other <= tol) & ~at_self
    far = np.where(at_self, d_other, np.where(at_other, d_self,
                                              np.minimum(d_self, d_other)))
    h0 = np.minimum(far, width) if panels else width

    nodes = np.zeros((P, q * (panels + 1)))
    wts = np.zeros_like(nodes)
    for mask, expo, own_is_self in (
        (at_self, e_self, True),
        (at_other, e_other, False),
    ):
        if not np.any(mask):
            continue
        xj, wj = gauss_rule(q, 0.0, expo)
        fj = (xj + 1.0) / 2.0
        zz = lo[mask, None] + h0[mask, None] * fj[None, :]
        ww = (h0[mask, None] / 2.0) ** (expo + 1.0) * wj[None, :]
        if own_is_self:
            if e_other:
                ww = ww * np.abs(zz + dz[mask, None]) ** e_other
        elif e_self:
            ww = ww * zz ** e_self
        nodes[mask, :q] = zz
        wts[mask, :q] = ww
    plain = ~(at_self | at_other)
    if np.any(plain):
        zz, ww = gauss_nodes(lo[plain], h0[plain], q)
        nodes[plain, :q] = zz
        wts[plain, :q] = _z_weights(zz, ww, dz[plain], e_self, e_other)
    if panels:
        ratio = np.where(
            width > 0,
            np.maximum(width / np.maximum(h0, 1e-300), 1.0) ** (1.0 / panels),
            1.0,
        )
        e0 = h0.copy()
        for k in range(panels):
            e1 = np.minimum(e0 * ratio, width)
            pw = np.maximum(e1 - e0, 0.0)
            zz, ww = gauss_nodes(lo + e0, pw, q)
            sl = slice(q * (k + 1), q * (k + 2))
            nodes[:, sl] = zz
            wts[:, sl] = _z_weights(zz, ww, dz, e_self, e_other)
            e0 = e1
    return nodes, wts


def _box_moments(grid, sigma):
    """Exact-in-field first and second moments of u = z^(2 sigma - 1) times
    the bilinear interpolant over each dual box, measure r^(n-2) dr dz.

    Returns (map9, c1, Q2): flat indices of the 3x3 node patch (N, 9), first
    moment coefficients (N, 9) and second moment local forms (N, 9, 9), so
    that m1 = c1 . v_patch and m2 = v_patch . Q2 . v_patch.  Vertical factors
    z^a and z^(2a) are integrated with Gauss-Jacobi on boxes touching z = 0
    and explicitly elsewhere."""
    rn, zn = grid.r_nodes, grid.z_nodes
    nr, nz = rn.size, zn.size
    er, ez = _dual_edges(rn), _dual_edges(zn)
    a_exp = 2.0 * sigma - 1.0
    npow = grid.n - 2
    N = nr * nz

    off = np.arange(-1, 2)
    gi = np.clip(np.arange(nr)[:, None] + off[None, :], 0, nr - 1)
    gj = np.clip(np.arange(nz)[:, None] + off[None, :], 0, nz - 1)
    map9 = _patch_maps(gi[:, None], gj[None], nz)

    c1 = np.zeros((nr, nz, 3, 3))
    Q2 = np.zeros((nr, nz, 3, 3, 3, 3))
    q = _BOX_ORDER
    # half-box s of a node lies in the cell whose corners are the node's
    # patch slots s and s + 1 along each axis
    for s_i in (0, 1):
        ii = np.arange(1, nr) if s_i == 0 else np.arange(0, nr - 1)
        ci = ii - 1 + s_i
        lo_r = er[ii] if s_i == 0 else rn[ii]
        hi_r = rn[ii] if s_i == 0 else er[ii + 1]
        rq, wr = gauss_nodes(lo_r, hi_r - lo_r, q, power=npow)
        hr = _hat(s_i, (rq - rn[ci][:, None]) / (rn[ci + 1] - rn[ci])[:, None], 3)
        Ar = np.einsum("iq,iqa->ia", wr, hr)
        Br = np.einsum("iq,iqa,iqb->iab", wr, hr, hr)
        for s_j in (0, 1):
            jj = np.arange(1, nz) if s_j == 0 else np.arange(0, nz - 1)
            cj = jj - 1 + s_j
            lo_z = ez[jj] if s_j == 0 else zn[jj]
            hi_z = zn[jj] if s_j == 0 else ez[jj + 1]
            zero_dz = np.zeros(jj.size)
            zq1, wz1 = _z_rule(lo_z, hi_z, zero_dz, a_exp, 0.0, q)
            zq2, wz2 = _z_rule(lo_z, hi_z, zero_dz, 2.0 * a_exp, 0.0, q)
            hz = (zn[cj + 1] - zn[cj])[:, None]
            hz1 = _hat(s_j, (zq1 - zn[cj][:, None]) / hz, 3)
            hz2 = _hat(s_j, (zq2 - zn[cj][:, None]) / hz, 3)
            Az = np.einsum("jq,jqa->ja", wz1, hz1)
            Bz = np.einsum("jq,jqa,jqb->jab", wz2, hz2, hz2)
            box = np.ix_(ii, jj)
            c1[box] += Ar[:, None, :, None] * Az[None, :, None, :]
            Q2[box] += Br[:, None, :, None, :, None] * Bz[None, :, None, :, None, :]
    return map9, c1.reshape(N, 9), Q2.reshape(N, 9, 9)


_MID_RING = 8


def _mid_pair_forms(grid, params, sigma, weight_fn):
    """Tensor Gauss rules for box pairs 2 to _MID_RING cells apart.

    There the kernel is smooth but still varies together with the squared
    field difference across the pair, so a factorized rule is biased; a
    tensor Gauss rule per box pair keeps the coupling.  Returns (patch,
    basis, ga, gb, KW): each box's 3x3 node patch (N, 9) and u at its q x q
    Gauss points on that patch (N, q*q, 9), the boxes of each pair and its
    weighted kernel block (P, q*q, q*q) on (U_a,g - U_b,h)^2, where
    U = basis . v[patch]."""
    rn, zn = grid.r_nodes, grid.z_nodes
    nr, nz = rn.size, zn.size
    er, ez = _dual_edges(rn), _dual_edges(zn)
    a_exp = 2.0 * sigma - 1.0
    npow = grid.n - 2
    q = _MID_ORDER

    def axis_data(nodes, edges, power):
        m = nodes.size
        Xq, Wq = gauss_nodes(edges[:-1], edges[1:] - edges[:-1], q, power)
        base = np.clip(np.arange(m) - 1, 0, m - 3)
        B = _hat(*_interp_slots(nodes, base[:, None], Xq), 3)
        return Xq, Wq, base[:, None] + np.arange(3), B

    RQ, WR, patch_r, BRr = axis_data(rn, er, npow)
    ZQ, WZ, patch_z, BZz = axis_data(zn, ez, 0)
    patch = _patch_maps(patch_r[:, None], patch_z[None], nz)
    basis = np.einsum("iga,jz,jzb->ijgzab", BRr, ZQ ** a_exp, BZz)

    offsets = list(_box_pairs(nr, nz, 2, _MID_RING))
    # filled offset by offset, so that KW is never held twice
    P = sum(I.size for _, _, I, _ in offsets)
    ga = np.empty(P, dtype=np.int64)
    gb = np.empty(P, dtype=np.int64)
    KW = np.empty((P, q * q, q * q))
    s = 0
    for di, dj, I, J in offsets:
        Ib, Jb = I + di, J + dj
        e = s + I.size
        ga[s:e], gb[s:e] = I * nz + J, Ib * nz + Jb
        rx, ry = RQ[I][:, :, None, None, None], RQ[Ib][:, None, None, :, None]
        t = ZQ[J][:, None, :, None, None] - ZQ[Jb][:, None, None, None, :]
        K = kernel_values(rx, ry, t, params)
        blk = (
            K
            * WR[I][:, :, None, None, None]
            * WZ[J][:, None, :, None, None]
            * WR[Ib][:, None, None, :, None]
            * WZ[Jb][:, None, None, None, :]
        )
        if weight_fn is not None:
            blk = blk * weight_fn(rx, ry, t)
        KW[s:e] = blk.reshape(-1, q * q, q * q)
        s = e
    return patch, basis.reshape(-1, q * q, 9), ga, gb, KW


def _exterior_forms(grid, params, sigma, weight_fn):
    """Cell-local quadratic forms coupling interior mass to the complement
    of the truncation cylinder, where the field itself is zero.

    For each grid cell a 4x4 form X gives vt_loc . X . vt_loc ~
    2 int_cell u(x)^2 kext(x) dmu, with kext(x) the kernel mass seen from x
    in the exterior, accumulated over a geometrically graded exterior tiling
    out to 4000 R.  Tail models add their own terms elsewhere.  kext is
    summed in tasks of _EXT_ROWS radial Gauss points, run through _run; each
    task adds its rows over the exterior box chunks in chunk order, and the
    rows are joined in order, so X is bitwise the same for any worker count
    and any number of rows per task."""
    rn, zn = grid.r_nodes, grid.z_nodes
    nr, nz = rn.size, zn.size
    R = grid.R_max
    npow = grid.n - 2
    a_exp = 2.0 * sigma - 1.0

    # exterior boxes: radial shells past R and a cap past z = R; the tail
    # reaches far out so that slowly converging weighted integrals (power
    # weights with gamma < 2*sigma) keep their scaling law
    off = np.concatenate(
        [
            [0.0],
            np.geomspace(4e-3 * R, 23.0 * R, 28),
            np.geomspace(33.0 * R, 4000.0 * R, 14),
        ]
    )
    eext = R + off
    sc = np.array(
        [
            (eext[k + 1] ** (npow + 2) - eext[k] ** (npow + 2))
            / (npow + 2)
            / ((eext[k + 1] ** (npow + 1) - eext[k] ** (npow + 1)) / (npow + 1))
            for k in range(off.size - 1)
        ]
    )
    sm = np.diff(eext ** (npow + 1)) / (npow + 1)
    wc = 0.5 * (eext[1:] + eext[:-1])
    wm = np.diff(eext)
    rin_m = _box_masses(rn, npow)
    zin_m = _box_masses(zn, 0)
    # region A: s past R, any w; region B: s inside, w past R
    wA_c = np.concatenate([zn, wc])
    wA_m = np.concatenate([zin_m, wm])
    sb = np.concatenate(
        [np.repeat(sc, wA_c.size), np.repeat(rn, wc.size)]
    )
    wb = np.concatenate([np.tile(wA_c, sc.size), np.tile(wc, rn.size)])
    mb = np.concatenate(
        [
            (sm[:, None] * wA_m[None, :]).ravel(),
            (rin_m[:, None] * wm[None, :]).ravel(),
        ]
    )

    q, chunk = _EXT_ORDER, _EXT_CHUNK
    hr = np.diff(rn)
    hz = np.diff(zn)
    rg, wr = gauss_nodes(rn[:-1], hr, q, power=npow)
    zg, wz = gauss_nodes(zn[:-1], hz, q, power=2.0 * a_exp)
    fr = (rg - rn[:-1, None]) / hr[:, None]
    fz = (zg - zn[:-1, None]) / hz[:, None]

    rp = rg.ravel()
    zp = zg.ravel()

    def rows(i0):
        # small tasks keep the temporaries, and so the pool threads' malloc
        # arenas, small
        ri = rp[i0 : i0 + _EXT_ROWS, None, None]
        acc = np.zeros((ri.shape[0], zp.size))
        for s0 in range(0, sb.size, chunk):
            sj = sb[None, None, s0 : s0 + chunk]
            wj = wb[None, None, s0 : s0 + chunk]
            t = zp[None, :, None] - wj
            kv = kernel_values(ri, sj, t, params)
            if weight_fn is not None:
                kv = kv * weight_fn(ri, sj, t)
            acc += kv @ mb[s0 : s0 + chunk]
        return acc

    starts = range(0, rp.size, _EXT_ROWS)
    kext = np.concatenate(_run([functools.partial(rows, i0) for i0 in starts]))
    kext = kext.reshape(nr - 1, q, nz - 1, q)
    br, bz = _hat(0, fr, 2), _hat(0, fz, 2)  # (cell, q, corner)
    # X[c, (u,v), (u2,v2)] with slot order (r corner)*2 + (z corner)
    X = 2.0 * np.einsum(
        "ia,jb,iajb,iau,jbv,iaw,jbx->ijuvwx",
        wr,
        wz,
        kext,
        br,
        bz,
        br,
        bz,
        optimize=True,
    ).reshape((nr - 1) * (nz - 1), 4, 4)
    ci = np.arange(nr - 1)[:, None] + np.arange(2)
    cj = np.arange(nz - 1)[:, None] + np.arange(2)
    return _patch_maps(ci[:, None], cj[None], nz), X


# element budget of one chunk of pairs (2 MiB): the factors R and Z of each
# pair, (sample, side pair, 16) each, and the hats of both sides at one
# term's z nodes, (sample, 2, z node, 4).  At 1 << 17 the per-chunk Python
# work made the near forms slower on two workers than on one; 1 << 19 was
# faster on the pool by 10-35 % but doubled each worker's temporaries
_NEAR_CHUNK = 1 << 18


def _near_local_forms(grid, params, sigma, weight_fn, orders):
    """Per-pair 16x16 local quadratic forms in the nodal regular factor.

    Each dual-cell pair is integrated in relative coordinates: sign quadrants
    of the separation, a Duffy split per quadrant, Gauss-Jacobi in the radial
    Duffy variable absorbing the kernel strength left after the squared field
    difference, and tensor Gauss over the inner cell.  The squared difference
    (z_x^a p_x - z_y^a p_y)^2, a = 2*sigma - 1, is expanded into three terms
    whose z weights are separable, so boundary cells get exact Gauss-Jacobi
    treatment of the z^a factors.  The kernel and the pair weight fn(r_x,
    r_y, t) see z only through t = z_x - z_y = -dz, which is fixed in a
    sample, so both are evaluated once per radial node.

    A form's rows are a radial hat (4 slots) times a vertical hat (4 slots),
    so each (pair, sample) has two factors per side pair (u, v): the radial
    R = sum_i wc_i h_r[u]_a h_r[v]_b, with the kernel, the weight and the
    r^(n-2) and Duffy weights in wc, and the vertical Z = sum_j scale zw_j
    h_z[u]_c h_z[v]_d, with the term's coefficient and z weights.  The cross
    term enters as xy and as yx, each at half its coefficient, and each yx
    factor is the transpose of its xy factor.  Then F = sum R (x) Z over
    (sample, side pair), one batched product per chunk of pairs, and F[(a,
    b), (c, d)] goes to the slots (a, c), (b, d).

    In a block the quadrant (sr, sz) and the z panels are fixed, so a pair's
    r side (separation, inner radial nodes at x and y, their hats) depends
    only on its r cells (ai, bi), and its z side (separation t, z rules and
    hats of the three terms, the factor Z) only on its z cells (aj, bj).
    Each side is built once per distinct cell pair of the block and gathered
    by index per pair; only the kernel, the weights, R and the product need
    the whole pair.  That costs 16 per inner r node and side pair plus 256
    per sample and side pair for each pair, and 16 per inner z node and side
    pair for each z-cell pair, where dense 16-slot rows cost 256 per inner
    (r, z) node and term; a split z rule adds to the per-cell-pair cost
    only.  The chunks are taken over pairs, at most _NEAR_CHUNK elements,
    so each pair's form has the same bits for any budget.

    The forms are a sum over independent blocks, one per sign quadrant and
    per batch (interior pairs, then pairs touching z = 0).  Returns (maps,
    ga, gb, blocks) with each block (sel, fn), where fn() gives the block's
    part of the forms of the pairs sel; adding these into L[sel] in block
    order gives the forms L (see _sum_blocks).
    """
    n_rho, n_v, n_x = orders
    n_z = n_x
    rn, zn = grid.r_nodes, grid.z_nodes
    nr, nz = rn.size, zn.size
    er_edges = _dual_edges(rn)
    ez_edges = _dual_edges(zn)
    # boxes a and b of each pair and its multiplicity: 1 on the self pair,
    # 2 elsewhere, where the pair stands for both of its orders
    pairs = [
        (I, J, I + di, J + dj, np.full(I.size, 1.0 if di == dj == 0 else 2.0))
        for di, dj, I, J in _box_pairs(nr, nz, 0, 1)
    ]
    ai, aj, bi, bj, mult = map(np.concatenate, zip(*pairs))
    ga = ai * nz + aj
    gb = bi * nz + bj

    base_i = np.clip(np.minimum(ai, bi) - 1, 0, nr - 4)
    base_j = np.clip(np.minimum(aj, bj) - 1, 0, nz - 4)
    is_bnd = np.minimum(aj, bj) == 0
    # global flat indices of the 4x4 local patch
    slot = np.arange(4)
    maps = _patch_maps(base_i[:, None] + slot, base_j[:, None] + slot, nz)

    A0r, A1r = er_edges[ai], er_edges[ai + 1]
    B0r, B1r = er_edges[bi], er_edges[bi + 1]
    A0z, A1z = ez_edges[aj], ez_edges[aj + 1]
    B0z, B1z = ez_edges[bj], ez_edges[bj + 1]

    beta = 1.0 - 2.0 * sigma
    xr_j, wr_j = gauss_rule(n_rho, 0.0, beta)
    rho = (xr_j + 1.0) / 2.0
    w_rho = wr_j * 2.0 ** (-beta - 1.0) * rho ** (2.0 * sigma)
    vv, w_v = gauss_nodes(0.0, 1.0, n_v)
    gg, w_g = gauss_nodes(0.0, 1.0, n_x)

    npow = grid.n - 2

    a_exp = 2.0 * sigma - 1.0
    # (z_x^a p_x - z_y^a p_y)^2 term by term: z exponents at x and at y, the
    # coefficient, and the points (x or y) whose rows form the term
    terms = (
        (2.0 * a_exp, 0.0, 1.0, "xx"),
        (a_exp, a_exp, -2.0, "xy"),
        (0.0, 2.0 * a_exp, 1.0, "yy"),
    )
    # the (tri, k, m) samples of the relative coordinates in the order the
    # forms add them up: Duffy triangle, radial and angular node
    tri, k, m = np.unravel_index(np.arange(2 * n_rho * n_v), (2, n_rho, n_v))
    rv = rho[k] * vv[m]
    a_s = np.where(tri == 0, rho[k], rv)
    b_s = np.where(tri == 0, rv, rho[k])
    w_rho_s, w_v_s = w_rho[k], w_v[m]

    def block(sel, sr, sz, ers, ezs, npan):
        nzt = n_z * (npan + 1)
        w_sel = mult[sel] * ers * ezs
        Ps, S = sel.size, a_s.size
        # each side as (cell pair, sample, ...) arrays over the block's
        # distinct r-cell and z-cell pairs, gathered per pair by ir and iz
        _, ur, ir = np.unique(ai[sel] * nr + bi[sel], return_index=True,
                              return_inverse=True)
        _, uz, iz = np.unique(aj[sel] * nz + bj[sel], return_index=True,
                              return_inverse=True)
        rep_r, rep_z = sel[ur], sel[uz]

        # r: the inner radial nodes at x and y and their hats, (cell pair,
        # sample, side, radial node, 4)
        dr = (sr * ers[ur])[:, None] * a_s
        lo_r = np.maximum(A0r[rep_r, None], B0r[rep_r, None] - dr)
        hi_r = np.minimum(A1r[rep_r, None], B1r[rep_r, None] - dr)
        wid_r = np.maximum(hi_r - lo_r, 0.0)
        xr = lo_r[..., None] + wid_r[..., None] * gg
        yr = xr + dr[..., None]
        b_r = base_i[rep_r, None, None]
        h_r = np.stack([_hat(*_interp_slots(rn, b_r, p), 4) for p in (xr, yr)], 2)

        # z: Z[u, v] = sum_j scale zw_j h_z[u]_c h_z[v]_d for the side pairs
        # (u, v) in the order xx, xy, yx, yy, (cell pair, sample, side pair,
        # 4, 4); the cross term enters as xy and as yx, each at 0.5 coef, and
        # the yx factor is the transpose of the xy factor
        Uz, b_z = rep_z.size, base_j[rep_z, None, None]
        dz = (sz * ezs[uz])[:, None] * b_s
        lo_z = np.maximum(A0z[rep_z, None], B0z[rep_z, None] - dz)
        hi_z = np.minimum(A1z[rep_z, None], B1z[rep_z, None] - dz)
        hi_z = np.maximum(hi_z, lo_z)
        # the sample's separation t = z_x - z_y, all the kernel and the
        # weight see of z
        t = -dz[..., None]
        lo_z, hi_z, dzf = lo_z.ravel(), hi_z.ravel(), dz.ravel()
        if not npan:
            # interior pairs have no Jacobi head panel, so all three terms
            # share one plain Gauss rule in z and their hats
            z_plain, w_plain = _z_rule(lo_z, hi_z, dzf, 0.0, 0.0, n_z)
        Z = np.empty((Uz, S, 4, 4, 4))
        for k, (e_x, e_y, coef, sides) in enumerate(terms):
            if npan:
                zz, zw = _z_rule(lo_z, hi_z, dzf, e_x, e_y, n_z, panels=npan)
            else:
                zz, zw = z_plain, _z_weights(z_plain, w_plain, dzf, e_x, e_y)
            if npan or k == 0:
                zx = zz.reshape(Uz, S, nzt)
                h_z = np.stack(
                    [_hat(*_interp_slots(zn, b_z, q), 4) for q in (zx, zx - t)], 2
                )
            u, v = ("xy".index(s) for s in sides)
            scale = coef if u == v else 0.5 * coef
            zw = (scale * zw).reshape(Uz, S, nzt, 1)
            Z[:, :, 2 * u + v] = h_z[:, :, u].swapaxes(-1, -2) @ (zw * h_z[:, :, v])
        Z[:, :, 2] = Z[:, :, 1].swapaxes(-1, -2)

        acc = np.empty((Ps, 16, 16))
        # per pair: the factors R and Z, (sample, side pair, 16) each, and the
        # radial hats of both sides with their weighted copy
        step = max(1, _NEAR_CHUNK // (S * (2 * 4 * 16 + 4 * n_x * 4)))
        for p0 in range(0, Ps, step):
            # arrays are (pair, sample, ...) over the chunk's pairs
            ch = slice(p0, p0 + step)
            jr, jz = ir[ch], iz[ch]
            Pc = jr.size
            xc, yc, tc = xr[jr], yr[jr], t[jz]
            w_pair = w_sel[ch, None] * w_rho_s * w_v_s
            kv = kernel_values(xc, yc, tc, params)
            wc = (
                w_pair[..., None] * wid_r[jr][..., None] * w_g * kv * xc ** npow * yc ** npow
            )
            if weight_fn is not None:
                wc = wc * weight_fn(xc, yc, tc)
            # R[u, v] = sum_i wc_i h_r[u]_a h_r[v]_b in the side pair order of Z
            R = np.empty((Pc, S, 4, 4, 4))
            hc = h_r[jr]
            hw = wc[:, :, None, :, None] * hc
            for u, v in ((0, 0), (0, 1), (1, 1)):
                R[:, :, 2 * u + v] = hc[:, :, u].swapaxes(-1, -2) @ hw[:, :, v]
            R[:, :, 2] = R[:, :, 1].swapaxes(-1, -2)
            # one product per pair over (sample, side pair): F[p, (a, b),
            # (c, d)] onto the slots (a, c), (b, d)
            F = R.reshape(Pc, 4 * S, 16).transpose(0, 2, 1) @ Z[jz].reshape(Pc, 4 * S, 16)
            acc[ch] = F.reshape(Pc, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4).reshape(
                Pc, 16, 16
            )
        return acc

    blocks = []
    for sr, sz in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        er = np.maximum(B1r - A0r, 0.0) if sr > 0 else np.maximum(A1r - B0r, 0.0)
        ez = np.maximum(B1z - A0z, 0.0) if sz > 0 else np.maximum(A1z - B0z, 0.0)
        ok = (er > 0) & (ez > 0)
        for npan in (0, _Z_PANELS):
            sel = np.where(ok & (is_bnd == (npan > 0)))[0]
            if sel.size:
                fn = functools.partial(block, sel, sr, sz, er[sel], ez[sel], npan)
                blocks.append((sel, fn))
    return maps, ga, gb, blocks


def _cpu_count():
    """CPUs this process may run on: its affinity mask, or all of them where
    the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run(fns, workers=None):
    """[fn() for fn in fns], in list order, on a pool of its own with one
    worker per CPU, or workers of them when given (at most one per fn).  An
    exception raised in a fn is raised here, after the fns not yet started
    are cancelled; the pool is shut down before _run returns, so no worker
    outlives the call."""
    pool = ThreadPoolExecutor(min(workers or _cpu_count(), len(fns)))
    try:
        futures = [pool.submit(fn) for fn in fns]
        return [fut.result() for fut in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _sum_blocks(P, blocks, parts):
    """The (P, 16, 16) near forms from the blocks (sel, fn) of
    _near_local_forms and their parts fn(): each part is added into its
    pairs sel in block order, so the sums are bitwise independent of where
    and in which order the parts were computed."""
    L = np.zeros((P, 16, 16))
    for (sel, _), part in zip(blocks, parts):
        L[sel] += part
    return L


def _scatter(H, maps, forms, cols=None):
    """Add the local forms forms[p] (on the rows maps[p] and the columns
    cols[p], by default maps[p] too) into the dense matrix H, in chunks that
    bound the index array."""
    N = H.shape[0]
    flat = H.reshape(-1)
    cols = maps if cols is None else cols
    step = max(1, (1 << 21) // forms[0].size)
    for s in range(0, len(maps), step):
        idx = (maps[s : s + step, :, None] * N + cols[s : s + step, None, :]).ravel()
        flat += np.bincount(idx, forms[s : s + step].ravel(), minlength=N * N)


def _pair_sum(v, maps, ga, gb, L, sel=None):
    """Sum of the pair forms L[p] over the pairs with both boxes in sel, or
    over all pairs without sel."""
    vloc = v[maps]
    e = np.einsum("pa,pab,pb->p", vloc, L, vloc, optimize=True)
    return float((e if sel is None else e * sel[ga] * sel[gb]).sum())


class AssembledForm:
    """Far + near quadratic form for one (grid, kernel table, weight).

    The whole form is one symmetric matrix H, so that energy(v) = v.Hv and
    grad(v) = 2Hv; H and the far kernel M are its only N x N arrays.  M is
    gathered from the table in place.  H starts as the far moments' -2 C^T M
    C, with C sparse (the 9 slots of each node's patch), takes every other
    family by scatter and is symmetrised once.  For ball(v, sel) the form
    keeps the fine near forms L, the far moments and, for the mid ring, one
    Gauss basis per box (patch, basis) and one weighted kernel block KW per
    box pair (mga, mgb); seminorm's near part reads L and its quadrature
    error estimate the coarse near forms L_coarse.  The constructor builds
    M, the far moments, L and the mid ring; H (with the exterior forms) and
    L_coarse are cached properties, each built on its first read.  Build it
    through assemble, which checks the inputs."""

    def __init__(self, grid, table, sigma, weight="none"):
        wfn = _weight(weight)[1]
        self._inputs = (grid, table.params, sigma, wfn)
        self.sphere = sphere_surface(grid.n - 2)
        nr, nz = grid.shape
        rn, zn = grid.r_nodes, grid.z_nodes
        self.r_flat, self.z_flat, self.node_weight = _node_rule(rn, zn, grid.n)

        # M on its (i, j, k, l) view, rows (i, j): W W^T times one gather of
        # the table and the weight, zeroed where |i - k|, |j - l| <= _MID_RING
        i, j = np.arange(nr), np.arange(nz)
        self.M = np.outer(self.node_weight, self.node_weight)
        M = self.M.reshape(nr, nz, nr, nz)
        idx_t = t_index_map(table, grid)
        M *= table.values[i[:, None, None, None], i[:, None], idx_t[:, None]]
        if wfn is not None:
            M *= wfn(rn[:, None, None, None], rn[:, None], (zn[:, None] - zn)[:, None])
        ik, jl = (np.nonzero(np.abs(a[:, None] - a) <= _MID_RING) for a in (i, j))
        M[ik[0][:, None], jl[0], ik[1][:, None], jl[1]] = 0.0
        self.map9, self.c1, self.Q2 = _box_moments(grid, sigma)

        self.maps, self.ga, self.gb, fine = _near_local_forms(
            grid, table.params, sigma, wfn, _FINE_ORDERS
        )
        # the mid ring, then the near-form blocks, on the same workers
        mid = functools.partial(_mid_pair_forms, grid, table.params, sigma, wfn)
        out = _run([mid] + [fn for _, fn in fine])
        self.patch, self.basis, self.mga, self.mgb, self.KW = out[0]
        self.L = _sum_blocks(self.ga.size, fine, out[1:])

    @functools.cached_property
    def L_coarse(self):
        """The near forms at the coarse orders, built on the first read."""
        grid, params, sigma, wfn = self._inputs
        coarse = _near_local_forms(grid, params, sigma, wfn, _COARSE_ORDERS)[3]
        return _sum_blocks(self.ga.size, coarse, _run([fn for _, fn in coarse]))

    @functools.cached_property
    def H(self):
        """The whole form as one symmetric N x N matrix, built on the first
        read together with the exterior forms it alone holds."""
        grid, params, sigma, wfn = self._inputs
        ext_maps, X = _exterior_forms(grid, params, sigma, wfn)

        # far: 2 sum_n row_n S_n - 2 P.MP with the box moments P = Cv and
        # S_n = v.Q2_n.v / W_n; C is sparse, its row n the 9 slots map9[n],
        # and M C = (C^T M)^T bit for bit, since M is symmetric
        M = self.M
        N = M.shape[0]
        Wp = np.maximum(self.node_weight, 1e-300)
        c = (self.c1 / Wp[:, None]).ravel()
        C = csr_array((c, self.map9.ravel(), np.arange(0, c.size + 1, 9)), shape=(N, N))
        H = C.T @ np.ascontiguousarray((C.T @ M).T)
        H *= -2.0
        row = M.sum(axis=1)
        _scatter(H, self.map9, 2.0 * (row / Wp)[:, None, None] * self.Q2)
        # mid ring, 2 sum_gh KW (U_a,g - U_b,h)^2 per pair: a diagonal form
        # per box with the kernel mass D each Gauss point sees, and each
        # cross block once at twice its weight (H is symmetrised below)
        B, ma, mb = self.basis, self.mga, self.mgb
        D = np.zeros(B.shape[:2])
        np.add.at(D, ma, self.KW.sum(axis=2))
        np.add.at(D, mb, self.KW.sum(axis=1))
        _scatter(H, self.patch, 2.0 * np.einsum("nga,ng,ngb->nab", B, D, B))
        step, sub = 1 << 14, 1 << 10
        for s in range(0, ma.size, step):
            a, b, KW = ma[s : s + step], mb[s : s + step], self.KW[s : s + step]
            # each pair's product alone has the same bits, so sub-chunks of
            # products cut the peak RSS; the scatter keeps its chunks and bits
            cross = np.empty((a.size, 9, 9))
            for t in range(0, a.size, sub):
                k = slice(t, t + sub)
                cross[k] = B[a[k]].transpose(0, 2, 1) @ KW[k] @ B[b[k]]
            cross *= -4.0
            _scatter(H, self.patch[a], cross, self.patch[b])
        _scatter(H, ext_maps, X)
        _scatter(H, self.maps, self.L)
        # in place: the bits of 0.5 sphere (H + H^T), fewer N x N temporaries
        H += H.T
        H *= 0.5 * self.sphere
        return H

    def _far(self, v, sel):
        """Far-moment part over the pairs with both boxes in sel."""
        vloc = v[self.map9]
        W = np.maximum(self.node_weight, 1e-300)
        P = np.einsum("na,na->n", self.c1, vloc) / W * sel
        S = (
            np.einsum("na,nab,nb->n", vloc, self.Q2, vloc, optimize=True) / W * sel
        )
        row = self.M @ sel
        return 2.0 * (np.dot(row, S) - np.dot(P, self.M @ P))

    def ball(self, vt, sel):
        """The energy of the pairs with both boxes in B_lambda, sel the 0/1
        indicator of its nodes, including the angular prefactor: the far
        moments and the mid ring, then the near forms.  That sum needs the
        per-pair forms, since H has lost which pair an entry came from.  It
        has no exterior term: a pair that leaves the truncation cylinder
        also leaves any interior cap."""
        v = vt.ravel()
        U = np.einsum("nga,na->ng", self.basis, v[self.patch])
        keep = np.flatnonzero(sel[self.mga] * sel[self.mgb])
        d = U[self.mga[keep], :, None] - U[self.mgb[keep], None, :]
        mid = 2.0 * np.einsum("pgh,pgh->", self.KW[keep], d * d)
        far = float((self._far(v, sel) + mid) * self.sphere)
        near = _pair_sum(v, self.maps, self.ga, self.gb, self.L, sel) * self.sphere
        return float(far + near)

    def energy(self, vt):
        v = vt.ravel()
        return float(v @ (self.H @ v))

    def bilinear(self, vt1, vt2):
        """a(u1, u2), the symmetric bilinear form matching energy(); both
        orders are averaged so that swapping the arguments is exact."""
        v1, v2 = vt1.ravel(), vt2.ravel()
        return 0.5 * float(v1 @ (self.H @ v2) + v2 @ (self.H @ v1))

    def grad(self, vt):
        """Gradient of energy() with respect to the nodal regular factor."""
        return 2.0 * (self.H @ vt.ravel())


# no caller needs more than two live forms: verify alternates Theta's energy
# and curvature forms, estimate_gamma0 is done with each form before the
# next, and solve reuses only its last stage's form
_cache: OrderedDict = OrderedDict()
_CACHE_MAX = 2


def assemble(grid, table, sigma, weight="none"):
    """The AssembledForm of (grid, table, sigma, weight), from an LRU cache of
    _CACHE_MAX forms.  Raises before the lookup unless table was built for
    grid and sigma with the kernel order the weight needs."""
    wkey, _, energy_table = _weight(weight)
    _check_table(grid, table, sigma, energy_table)
    key = (table.params, table.grid_hash, float(sigma), wkey)
    if key not in _cache:
        if len(_cache) >= _CACHE_MAX:
            _cache.popitem(last=False)
        _cache[key] = AssembledForm(grid, table, sigma, weight)
    _cache.move_to_end(key)
    return _cache[key]


def _check_table(grid, table, sigma, energy_table):
    """Raise unless table was built for grid and sigma, with p = n + 2*sigma
    if energy_table, else p = n + 2*sigma + 2."""
    if table.grid_hash != grid_signature(grid):
        raise GridMismatch("kernel table was built for a different grid")
    if abs(sigma - table.params.sigma) > 1e-12:
        raise InvalidParams(f"sigma {sigma} differs from the table's sigma")
    if table.params.is_energy != energy_table:
        kind = "n + 2*sigma" if energy_table else "n + 2*sigma + 2"
        raise TableExponentMismatch(f"operation needs a table with p = {kind}")


def _ball_sel(form, lam):
    return (form.r_flat ** 2 + form.z_flat ** 2 <= lam * lam).astype(float)


_TAIL_ROWS = 64  # tail-grid rows per kernel call in _tail_energy


def _tail_energy(field, params):
    """Energy the attached tail model adds beyond the truncation box.

    On a coarse combined grid (subsampled interior plus geometric exterior
    up to 24 R_max) the node-product rule sums, over the pairs touching the
    exterior, w_i w_j K [(u_i - u_j)^2 - (ub_i - ub_j)^2], where ub is the
    field without its tail (u inside the box, 0 outside).  The coupling of
    the interior to a zero exterior is already inside the assembled form.
    """
    grid = field.grid
    R = grid.R_max
    sub = max(1, (grid.r_nodes.size - 1) // 16)
    ext = R * np.geomspace(1.0, 24.0, 15)[1:]
    # every sub-th node and the last one, then the exterior
    r_ax, z_ax = (
        np.concatenate([np.unique(np.append(x[::sub], x[-1])), ext])
        for x in (grid.r_nodes, grid.z_nodes)
    )
    rr, zz, wf = _node_rule(r_ax, z_ax, grid.n)
    inner = (rr <= R) & (zz <= R)
    uf = eval_u(field, rr, zz)
    ub = np.where(inner, uf, 0.0)
    ri, zi = np.unravel_index(np.arange(rr.size), (r_ax.size, z_ax.size))
    # blocks of rows bound the memory; one sum in row-major order keeps the bits
    terms = []
    for s in range(0, ri.size, _TAIL_ROWS):
        rows = slice(s, s + _TAIL_ROWS)
        ok = (np.abs(ri[rows, None] - ri) > 1) | (np.abs(zi[rows, None] - zi) > 1)
        # only pairs with at least one exterior point contribute to the tail
        ok &= ~(inner[rows, None] & inner)
        ii, jj = np.where(ok)
        ii += s
        KV = kernel_values(rr[ii], rr[jj], zz[ii] - zz[jj], params)
        diffs = (uf[ii] - uf[jj]) ** 2 - (ub[ii] - ub[jj]) ** 2
        terms.append(wf[ii] * wf[jj] * KV * diffs)
    energy_tail = float(np.sum(np.concatenate(terms)))
    return energy_tail * sphere_surface(grid.n - 2)


def seminorm(field, table):
    """Nonlocal energy of the field, split far/near/tail: the total is the
    "none" weighted_seminorm plus the energy of the tail model beyond the
    box (0 without a tail model), the near part the per-pair near forms
    summed over every pair and the far part the rest of the assembled
    energy.  Its quadrature error estimate, the near part at the fine less
    the coarse orders, is the one read of the coarse forms."""
    form = assemble(field.grid, table, field.sigma)
    vt = field.regular_values
    e = form.energy(vt)
    near = _pair_sum(vt.ravel(), form.maps, form.ga, form.gb, form.L) * form.sphere
    nearc = _pair_sum(vt.ravel(), form.maps, form.ga, form.gb, form.L_coarse)
    tail = _tail(field, table.params)
    return EnergyBreakdown(
        total=e + tail,
        far_part=e - near,
        near_part=near,
        tail_estimate=tail,
        quad_error_estimate=abs(near - nearc * form.sphere),
    )


def _seminorm_total(field, table):
    """seminorm(field, table).total, bit for bit, without the coarse near
    forms."""
    return weighted_seminorm(field, table, "none") + _tail(field, table.params)


def _tail(field, params):
    return 0.0 if field.tail is None else _tail_energy(field, params)


def weighted_seminorm(field, table, weight, lam=None, exterior=False):
    """Energy with a pair weight; optional truncation to B_lambda pairs.

    weight is "none", "gamma0" (which needs the curvature table) or
    ("power", gamma) with gamma finite and >= 0; any other spec raises
    InvalidParams.  With lam, finite and > 0, only the B_lambda x B_lambda
    pairs count, and with exterior=True, which needs lam, the complement of
    that pair set.  No tail model enters.  Returns the total as a float:
    energy() without lam, ball() with it and energy() - ball() with
    exterior=True; the far/near split and the quadrature error estimate are
    seminorm's.
    """
    if lam is not None:
        check_real(lam, "lam", gt=0)
    elif exterior:
        raise InvalidParams("exterior=True needs lam")
    form = assemble(field.grid, table, field.sigma, weight)
    vt = field.regular_values
    if lam is None:
        return form.energy(vt)
    ball = form.ball(vt, _ball_sel(form, lam))
    return form.energy(vt) - ball if exterior else ball


def _mass_rule(grid, sigma, p):
    """Critical-mass rule of grid, built once: (mass, mass_grad), mass(vt)
    the integral of |u|^p over the truncation box and mass_grad(vt) that
    mass with its exact gradient in vt.  Cell-wise tensor Gauss on the
    interpolant Br @ vt @ Bz.T (the _hat rows of the points over each axis's
    nodes), the z^((2*sigma-1)*p) factor in wz by _z_rule (Jacobi, cell 0)."""
    ra, rb = grid.r_nodes[:-1], grid.r_nodes[1:]
    rq, wr = gauss_nodes(ra, rb - ra, _MASS_ORDER, power=grid.n - 2)
    za, zb = grid.z_nodes[:-1], grid.z_nodes[1:]
    zq, wz = _z_rule(za, zb, np.zeros(za.size), (2 * sigma - 1) * p, 0.0, _MASS_ORDER)
    wr, wz = wr.ravel(), wz.ravel()
    Br, Bz = (
        _hat(*cell_of(nodes, x.ravel()), nodes.size)
        for nodes, x in ((grid.r_nodes, rq), (grid.z_nodes, zq))
    )

    def mass(vt):
        return float(wr @ np.abs(Br @ vt @ Bz.T) ** p @ wz)

    def mass_grad(vt):
        vals = Br @ vt @ Bz.T
        G = p * wr[:, None] * wz * np.abs(vals) ** (p - 1) * np.sign(vals)
        return float(wr @ np.abs(vals) ** p @ wz), Br.T @ G @ Bz

    return mass, mass_grad


def _exterior_mass(field, p):
    """Integral of |u|^p outside the truncation box through the tail model."""
    grid = field.grid
    R = grid.R_max
    ext = R * np.geomspace(1.0, 32.0, 60)[1:]
    r_ax = np.concatenate([grid.r_nodes, ext])
    z_ax = np.concatenate([grid.z_nodes, ext])
    rr, zz, W = _node_rule(r_ax, z_ax, grid.n)
    U = eval_u(field, rr, zz)
    outer = (rr > R) | (zz > R)
    return float(np.sum(W[outer] * np.abs(U[outer]) ** p))


def lp_norm(field, p):
    """L^p norm of u over the half-space, angular factor and any tail included."""
    check_real(p, "p", gt=0)
    grid = field.grid
    mass = _mass_rule(grid, field.sigma, p)[0](field.regular_values)
    if field.tail is not None:
        mass += _exterior_mass(field, p)
    return (sphere_surface(grid.n - 2) * mass) ** (1.0 / p)


def critical_p(n, sigma):
    return 2.0 * n / (n - 2.0 * sigma)


def rayleigh_quotient(field, table):
    """Energy over the squared critical norm."""
    if not np.any(field.regular_values):
        raise ZeroField("quotient undefined for the zero field")
    den = lp_norm(field, critical_p(field.grid.n, field.sigma))
    return _seminorm_total(field, table) / den ** 2


def _test_bank(grid):
    """Fixed bank of regular-factor blobs at three dyadic scales.

    Scales run from a third of the domain down to R_max/30 so the bank
    probes both the core region of a pinned minimizer and the midrange,
    not only the domain scale.
    """
    R = grid.R_max
    RR, ZZ = np.meshgrid(grid.r_nodes, grid.z_nodes, indexing="ij")
    bank = []
    for s in (R / 3.0, R / 10.0, R / 30.0):
        for (cr, cz, w) in [
            (0.0, 0.6, 0.3),
            (0.6, 0.3, 0.3),
            (0.25, 1.2, 0.45),
        ]:
            vals = np.exp(
                -(((RR - cr * s) ** 2 + (ZZ - cz * s) ** 2) / (w * s) ** 2)
            )
            bank.append(vals)
    return bank


def el_residual(field, table):
    """Sup over a test bank of the weak-form defect, normalized by the
    energy norms of both the test function and the field itself, so the
    result is dimensionless and dilation invariant.  The mass and its
    variation are mass_grad of _mass_rule, the quadrature of the norm."""
    grid = field.grid
    form = assemble(grid, table, field.sigma)
    if not np.any(field.regular_values):
        return 0.0
    p = critical_p(grid.n, field.sigma)
    e_u = form.energy(field.regular_values)
    mass, gmass = _mass_rule(grid, field.sigma, p)[1](field.regular_values)
    if mass <= 0:
        return 0.0
    mu = e_u / (sphere_surface(grid.n - 2) * mass)
    worst = 0.0
    for phi in _test_bank(grid):
        a_up = form.bilinear(field.regular_values, phi)
        rhs = mu * sphere_surface(grid.n - 2) / p * float(np.vdot(gmass, phi))
        norm = np.sqrt(max(form.energy(phi), 1e-300))
        worst = max(worst, abs(a_up - rhs) / norm)
    return worst / np.sqrt(max(e_u, 1e-300))


def brute_force_seminorm(
    u, n, sigma, support_radius, samples=2_000_000, seed=0, rho0=None, chunk=250_000
):
    """Monte Carlo oracle for the full 2n-dimensional double integral.

    u maps an (m, n) array of half-space points to values and must be
    compactly supported within |x| < support_radius.  Pair sampling: x uniform
    in the support box, the separation from an isotropic two-piece radial
    mixture matched to the kernel singularity; returns (estimate, stderr).
    """
    rng = np.random.default_rng(seed)
    Rb = float(support_radius)
    probe = rng.uniform(-3 * Rb, 3 * Rb, size=(200, n))
    probe[:, -1] = np.abs(probe[:, -1])
    far = np.linalg.norm(probe, axis=1) > 1.2 * Rb
    if np.any(np.abs(u(probe[far])) > 0):
        raise NonCompactSupport("oracle requires compact support")
    if rho0 is None:
        rho0 = 0.5 * Rb
    vol_box = (2.0 * Rb) ** (n - 1) * Rb
    sph = sphere_surface(n - 1)
    p_exp = n + 2 * sigma
    total, total2, m_done = 0.0, 0.0, 0

    while m_done < samples:
        m = min(chunk, samples - m_done)
        x = rng.uniform(-Rb, Rb, size=(m, n))
        x[:, -1] = 0.5 * (x[:, -1] + Rb)  # uniform in (0, Rb)
        w = rng.normal(size=(m, n))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        pick = rng.random(m) < 0.5
        uu = rng.random(m)
        rho = np.where(
            pick,
            rho0 * uu ** (1.0 / (2.0 - 2.0 * sigma)),
            rho0 * np.maximum(uu, 1e-300) ** (-1.0 / (2.0 * sigma)),
        )
        pdf = 0.5 * np.where(
            rho <= rho0,
            (2.0 - 2.0 * sigma) * rho ** (1.0 - 2.0 * sigma) / rho0 ** (2.0 - 2.0 * sigma),
            2.0 * sigma * rho0 ** (2.0 * sigma) * rho ** (-1.0 - 2.0 * sigma),
        )
        y = x + rho[:, None] * w
        in_half = y[:, -1] > 0
        in_box = in_half & np.all(np.abs(y[:, :-1]) <= Rb, axis=1) & (y[:, -1] <= Rb)
        uy = np.zeros(m)
        if np.any(in_half):
            uy[in_half] = u(y[in_half])
        du = u(x) - uy
        f = du * du * rho ** (-p_exp)
        wgt = vol_box * sph * rho ** (n - 1) / pdf
        est = np.where(in_half, f * wgt * (2.0 - in_box), 0.0)
        total += est.sum()
        total2 += (est ** 2).sum()
        m_done += m
    mean = total / m_done
    var = max(total2 / m_done - mean ** 2, 0.0)
    return mean, np.sqrt(var / m_done)
