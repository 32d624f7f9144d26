"""Retarded-integral representation of the fields on the backward light cone.

The fields of the planar relativistic Vlasov-Maxwell system admit an exact
decomposition E = E_data + E_T + E_S (same for B), where E_T integrates an
explicit kernel against f over the backward cone with the singular measure
dp dy ds / ((t-s) sqrt((t-s)^2 - |y-x|^2)), and E_S integrates momentum
derivatives of a second kernel against the Lorentz force times f with the
measure dp dy ds / sqrt((t-s)^2 - |y-x|^2).

This module evaluates the 3-momentum kernels (the planar ones are their
p3 = 0 slice), provides the light-cone wave inverse with the edge
singularity removed analytically, and reconstructs fields from a recorded
particle/field history for comparison against the grid solver.

Kernel conventions: xi = (y-x)/(t-s) with |xi| <= 1; the in-plane pairing
phat.xi uses only the first two momentum components; a ^ b = a1 b2 - a2 b1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import maxwell as mx
from . import pic
from .phase import embed3, p0_of, unit_direction

__all__ = [
    "kernel_arrays_25d",
    "gauss_rule",
    "box_inverse",
    "RepresentationReport",
    "field_from_representation",
    "relative_l2_error",
    "slab_weights",
]

# a probe time is matched to a stored time of the history within this
TIME_MATCH = 1e-9


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


def _s_matrices(p0, phat, xi3, kappa):
    """Momentum-derivative matrices of the S primitives (vectorized, (..., 3, 3)).

    deS[i, j] = d/dp_j [ -2 (xi_i + phat_i) / (1 + kappa) ]
    dbS[i, j] = d/dp_j [  2 (xi x phat)_i  / (1 + kappa) ]

    using d(phat_a)/dp_j = (delta_aj - phat_a phat_j)/p0 and
    d(kappa)/dp_j = (xi_j - kappa phat_j)/p0 with xi_3 = 0.
    """
    one = 1.0 + kappa
    inv1 = 1.0 / (p0 * one)
    inv2 = 1.0 / (p0 * one * one)
    eye = np.eye(3)
    dkap = xi3 - kappa[..., None] * phat     # (..., 3) times 1/p0 implied
    # deS
    proj = eye - phat[..., :, None] * phat[..., None, :]
    deS = (-2.0 * proj * inv1[..., None, None]
           + 2.0 * (xi3 + phat)[..., :, None] * dkap[..., None, :]
           * inv2[..., None, None])
    # dbS: (xi x e_j)_i for j = 1..3 is a constant matrix in xi
    xicross = np.zeros(kappa.shape + (3, 3))
    xicross[..., 0, 2] = xi3[..., 1]
    xicross[..., 1, 2] = -xi3[..., 0]
    xicross[..., 2, 0] = -xi3[..., 1]
    xicross[..., 2, 1] = xi3[..., 0]
    xp = np.cross(xi3, phat)
    dbS = (2.0 * (xicross - xp[..., :, None] * phat[..., None, :])
           * inv1[..., None, None]
           - 2.0 * xp[..., :, None] * dkap[..., None, :] * inv2[..., None, None])
    return deS, dbS


def kernel_arrays_25d(p: np.ndarray, xi: np.ndarray):
    """Vectorized 3-momentum kernels at momenta p (..., 3) and cone
    directions xi (..., 2), |xi| <= 1: (eT (..., 3), bT (..., 3),
    deS (..., 3, 3), dbS (..., 3, 3)). The planar kernels are the p3 = 0
    slice: eT[..., :2], bT[..., 2], deS[..., :2, :2] and dbS[..., 2, :2]."""
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("3-momentum kernels require 3-component momenta")
    if np.any(np.sum(xi * xi, axis=-1) > 1.0 + 1e-9):
        raise ValueError("|xi| must not exceed 1")
    p0 = p0_of(p)
    phat = p / p0[..., None]
    xi3 = embed3(xi)
    kappa = phat[..., 0] * xi[..., 0] + phat[..., 1] * xi[..., 1]
    one2 = (1.0 + kappa) ** 2
    # 1 - phat1^2 - phat2^2 without its cancellation at large |p|
    flat = (1.0 + p[..., 2] ** 2) / (p0 * p0)
    wedge = xi3[..., 0] * phat[..., 1] - xi3[..., 1] * phat[..., 0]
    xp = xi3 + phat
    c3 = 2.0 * phat[..., 2] / one2
    eT = np.empty(p.shape[:-1] + (3,))
    eT[..., :2] = -2.0 * (flat / one2)[..., None] * xp[..., :2]
    eT[..., 2] = c3 * (phat[..., 0] * xp[..., 0] + phat[..., 1] * xp[..., 1])
    bT = np.empty(p.shape[:-1] + (3,))
    bT[..., 0] = c3 * ((1.0 + xi3[..., 0] * phat[..., 0]) * xp[..., 1]
                       - xi3[..., 1] * phat[..., 0] * xp[..., 0])
    bT[..., 1] = c3 * (xi3[..., 0] * phat[..., 1] * xp[..., 1]
                       - (1.0 + xi3[..., 1] * phat[..., 1]) * xp[..., 0])
    bT[..., 2] = 2.0 * flat * wedge / one2
    deS, dbS = _s_matrices(p0, phat, xi3, kappa)
    return eT, bT, deS, dbS


# --------------------------------------------------------------------------
# Light-cone wave inverse
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], built once, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_rule(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = _legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def box_inverse(F, t: float, x, n_s: int, n_phi: int) -> float:
    """Backward-cone integral of F with the retarded kernel:

        integral over 0 < s < t, |y - x| <= t - s of
        F(s, y) / sqrt((t-s)^2 - |y-x|^2) dy ds.

    (The zero-data solution of the planar wave equation box u = g is 1/(2 pi)
    times this with F = g.) F is called as F(s, y) with y of shape (m, 2).

    With r = (t-s) sin(phi) the integrand becomes (t-s) sin(phi) F, smooth up
    to the cone edge, so the tensor Gauss-Legendre rule (``n_s`` nodes in s,
    ``n_phi`` in phi, 64 in the polar angle) converges at spectral rate for
    smooth F.
    """
    x = np.asarray(x, dtype=float)
    s_nodes, s_wts = gauss_rule(n_s, 0.0, t)
    phi_nodes, phi_wts = gauss_rule(n_phi, 0.0, 0.5 * np.pi)
    th_nodes, th_wts = gauss_rule(64, 0.0, 2.0 * np.pi)
    om = np.stack([np.cos(th_nodes), np.sin(th_nodes)], axis=-1)   # (nt, 2)
    total = 0.0
    for s, ws in zip(s_nodes, s_wts):
        tau = t - s
        r = tau * np.sin(phi_nodes)                                # (np,)
        pts = x[None, None, :] + r[:, None, None] * om[None, :, :]  # (np, nt, 2)
        vals = np.asarray(F(s, pts.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(len(phi_nodes), len(th_nodes))
        inner = np.sum(vals * th_wts[None, :], axis=1)
        total += ws * tau * float(np.sum(inner * np.sin(phi_nodes) * phi_wts))
    return total


# --------------------------------------------------------------------------
# Particle cone sums
# --------------------------------------------------------------------------


def slab_weights(r: np.ndarray, tau_lo: float, tau_hi: float):
    """Exact time-slab integrals of the two singular cone measures for a
    source frozen at distance r from the probe over s in the slab
    [t - tau_hi, t - tau_lo]:

      W1 = integral of d tau / (tau sqrt(tau^2 - r^2))
         = (1/r) [arccos(r/tau_hi) - arccos(r/max(tau_lo, r))]
      W2 = integral of d tau / sqrt(tau^2 - r^2)
         = log(tau + sqrt(tau^2 - r^2)) differences,

    with both tau bounds raised to r, so that both are exactly 0 when
    r >= tau_hi. The r -> 0 limits are 1/tau_lo - 1/tau_hi and
    log(tau_hi/tau_lo).
    """
    r = np.asarray(r, dtype=float)
    lo = np.maximum(r, tau_lo)
    hi = np.maximum(r, tau_hi)
    small = r < 1e-12
    safe_r = np.where(small, 1.0, r)
    a_hi = np.arccos(np.clip(safe_r / hi, -1.0, 1.0))
    a_lo = np.arccos(np.clip(safe_r / lo, -1.0, 1.0))
    w1 = np.where(small, 1.0 / np.maximum(lo, 1e-300) - 1.0 / hi,
                  (a_hi - a_lo) / safe_r)
    s_hi = np.sqrt(np.maximum(hi ** 2 - r ** 2, 0.0))
    s_lo = np.sqrt(np.maximum(lo ** 2 - r ** 2, 0.0))
    w2 = np.log(hi + s_hi) - np.log(lo + s_lo)
    return w1, w2


def _min_image(d: np.ndarray, box: np.ndarray) -> np.ndarray:
    return d - box * np.rint(d / box)


def _cone_slabs(times, t: float):
    """Per-step slab boundaries (tau_lo, tau_hi) covering [0, t] with each
    stored step owning the half-intervals to its neighbors."""
    out = []
    for k, s in enumerate(times):
        if s > t + 1e-12:
            break
        lo_s = 0.0 if k == 0 else 0.5 * (times[k - 1] + s)
        hi_s = t if k + 1 >= len(times) else min(t, 0.5 * (s + times[k + 1]))
        if hi_s <= lo_s:
            continue
        out.append((k, t - hi_s, t - lo_s))
    return out


class _ConeRows(NamedTuple):
    """The rows of one stored step inside a slab of the backward cones of a
    probe stack, in probe order: the segment of each probe holds its rows
    ascending (see ``_cone_rows`` for the segments' bounds)."""

    idx: np.ndarray     # (h,) row indices into the step's particle arrays
    d: np.ndarray       # (h, 2) minimum-image offsets y - x
    r: np.ndarray       # (h,) distances |y - x|
    w1: np.ndarray      # (h,) slab weights of the two cone measures
    w2: np.ndarray
    xi: np.ndarray      # (h, 2) d over the slab's mid tau, clipped to |xi| <= 1


def _strip_index(X: np.ndarray):
    """The x-sorted index of positions X (n, 2) that ``_cone_rows`` searches:
    the row order by x1 and the sorted x1."""
    order = np.argsort(X[:, 0])
    return order, X[order, 0]


def _strip_rows(strip, c: np.ndarray, half: float, lx: float):
    """Rows of the ``_strip_index`` ``strip`` whose x1 lies within ``half``
    of a probe's x1 in c (m,) under the period lx, and more: the strip is
    widened by 1e-9 of the magnitudes involved, far above the rounding of
    the minimum image, so every row inside the cone is found. The strip's
    images [c - h, c + h] + k lx that meet the sorted x1 are found by
    bisection. A probe takes every row when its strip is as wide as the box,
    or when x1 is not finite or spans more than the box (a history from
    ``pic.run`` lies in [0, lx), which needs at most four images).

    Returns the rows of all probes in probe order, each probe's rows in
    the strip's x1 order, and the probe of each row."""
    order, xs = strip
    n = xs.size
    if not n:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    h = half + 1e-9 * (half + lx + np.abs(c) + max(-xs[0], xs[-1]))
    m_lo = np.floor((xs[0] - c - h) / lx)
    m_hi = np.ceil((xs[-1] - c + h) / lx)
    narrow = (2.0 * h < lx) & (m_hi - m_lo <= 3.0)
    img = m_lo[:, None] + np.arange(4.0)                # (m, 4) images
    lo = np.searchsorted(xs, (c - h)[:, None] + img * lx, side="left")
    hi = np.searchsorted(xs, (c + h)[:, None] + img * lx, side="right")
    hi = np.where(narrow[:, None] & (img <= m_hi[:, None]), hi, lo)
    lo[~narrow, 0], hi[~narrow, 0] = 0, n
    lens = (hi - lo).ravel()
    start = lo.ravel() - (np.cumsum(lens) - lens)
    pos = np.arange(lens.sum()) + np.repeat(start, lens)
    return order[pos], np.repeat(np.repeat(np.arange(len(c)), 4), lens)


def _cone_rows(X, strip, t: float, probes, box, tau_lo: float,
               tau_hi: float):
    """Rows of positions X (n, 2) inside the cones of the probe stack
    (t, probes (m, 2)) over the slab tau in [tau_lo, tau_hi]: those with
    r < tau_hi, where both slab weights are positive (beyond it both are 0).
    Returns the ``_ConeRows`` of all probes and their bounds (m + 1,): the
    rows of probe i are ``bounds[i]:bounds[i + 1]``.

    Only the rows of X's ``_strip_index`` ``strip`` within tau_hi of a probe
    in x1 are taken, and of those only the rows with |d2| < tau_hi, d2 the
    minimum image in x2: r = sqrt(fl(d1^2 + fl(d2^2))) >= |d2| in binary64,
    so no cone row is lost. Every per-row step is elementwise, so each
    probe's rows, their order and their bits are those of a scan of all of
    X for that probe alone. Every later per-particle step works on these
    rows only.

    A particle within 1e-12 of a probe in the newest slab (tau_lo = 0) is
    rejected, naming the first such probe of the stack: the point-particle
    T integral diverges like 1/r there.
    """
    rows, owner = _strip_rows(strip, probes[:, 0], tau_hi, box[0])
    d2 = _min_image(X[rows, 1] - probes[owner, 1], box[1])
    near = np.abs(d2) < tau_hi
    # rows ascending within each probe, whose keys lie in [owner n, owner n + n)
    n = len(X)
    owner = owner[near]
    rows = np.sort(rows[near] + owner * n) - owner * n
    d = _min_image(X[rows] - probes[owner], box)
    r = np.sqrt(np.sum(d * d, axis=1))
    inside = r < tau_hi
    idx, owner, d, r = rows[inside], owner[inside], d[inside], r[inside]
    on = r < 1e-12
    if tau_lo <= 0.0 and np.any(on):
        probe = probes[owner[np.argmax(on)]]
        raise ValueError(f"probe t={t} x={probe.tolist()} sits on a particle; "
                         "its cone integral diverges there")
    w1, w2 = slab_weights(r, tau_lo, tau_hi)
    denom = np.maximum(0.5 * (tau_lo + tau_hi), np.maximum(r, 1e-300))
    xi = d / denom[:, None]
    nrm = np.sqrt(np.sum(xi * xi, axis=1))
    over = nrm > 1.0
    if np.any(over):
        xi[over] /= nrm[over, None]
    bounds = np.searchsorted(owner, np.arange(len(probes) + 1))
    return _ConeRows(idx, d, r, w1, w2, xi), bounds


def _slab_sums(mode: str, c: _ConeRows, bounds, P, wp, eb) -> np.ndarray:
    """The cone sums of one slab's rows ``c`` as one (m, 14) array, a row
    per probe segment ``bounds[i]:bounds[i + 1]``: E_T, B_T, E_S and B_S
    (3 components each), then the majorants ks1 and ks2. P, wp and the
    gathered fields ``eb`` = (E, B) hold those rows only; with ``eb`` None
    (the force-free flow) only the T sums are taken. A planar history is
    the p3 = 0 case of the same sums.

    Each per-row term is made once for the stack, and each probe's sum is
    ``np.sum`` over its own segment: the reduction a probe alone would take.
    """
    p3 = embed3(P)
    eT, bT, deS, dbS = kernel_arrays_25d(p3, c.xi)
    wt = (wp * c.w1)[:, None]
    terms = [(slice(0, 3), wt * eT), (slice(3, 6), wt * bT)]
    if eb is not None:
        E, B = eb
        p0 = p0_of(p3)
        force = E + np.cross(p3 / p0[:, None], B)
        kg = np.sqrt(mx.good_component_sq(E, B, unit_direction(c.d, c.r),
                                          mode))
        ww = wp * c.w2
        kappa = (p3[:, 0] * c.xi[:, 0] + p3[:, 1] * c.xi[:, 1]) / p0
        bp3 = 1.0 + p3[:, 2] ** 2
        wk = ww * np.sqrt(np.sum(force ** 2, axis=1))
        terms += [
            (slice(6, 9), ww[:, None] * np.einsum("nij,nj->ni", deS, force)),
            (slice(9, 12), ww[:, None] * np.einsum("nij,nj->ni", dbS, force)),
            (12, wk / p0 if mode == "2d" else
             wk * (1.0 / p0 + bp3 / (p0 ** 3 * (1.0 + kappa)))),
            (13, ww * kg * bp3 / ((1.0 + kappa) * p0)),
        ]
    out = np.zeros((len(bounds) - 1, 14))
    for row, a, b in zip(out, bounds[:-1], bounds[1:]):
        if a < b:
            for cols, term in terms:
                row[cols] = np.sum(term[a:b], axis=0)
    return out


def _history_index(history: "pic.RunHistory", t: float) -> int:
    k = int(np.argmin(np.abs(history.times - t)))
    if abs(history.times[k] - t) > TIME_MATCH:
        raise ValueError(f"history does not store the probe time t={t}")
    return k


def _free_positions(history: "pic.RunHistory", phat: np.ndarray, j: int,
                    box: np.ndarray) -> np.ndarray:
    """Stored step j of the force-free flow of the initial ensemble: the
    straight lines with the initial in-plane velocities ``phat`` (n, 2),
    wrapped into the box: (n, 2). One step at a time, so that the flow is
    never held whole; each element takes the operations of a broadcast over
    all steps, so the bits are the same."""
    return pic.wrap_box(history.part_x[0] + history.times[j] * phat, box)


def _gather_eb(grid: mx.Grid, E: np.ndarray, B: np.ndarray, xs: np.ndarray):
    """CIC gather of E and B (3, nx, ny) at positions (n, 2): two (n, 3)."""
    eb = pic.gather_cic(grid, np.concatenate([E, B]), xs).T
    return eb[:, :3], eb[:, 3:]


@dataclass
class RepresentationReport:
    t: float
    x: np.ndarray
    data_E: np.ndarray     # (3,) data term (grid wave re-run minus free T term)
    data_B: np.ndarray
    E_T: np.ndarray
    B_T: np.ndarray
    E_S: np.ndarray
    B_S: np.ndarray
    ks1_bound: float       # scalar majorant cone integral dominating |K_S,1|
    ks2_bound: float       # scalar majorant cone integral dominating |K_S,2|
    grid_E: np.ndarray     # (3,) the history's grid fields at the probe
    grid_B: np.ndarray

    @property
    def total_E(self) -> np.ndarray:
        return self.data_E + self.E_T + self.E_S

    @property
    def total_B(self) -> np.ndarray:
        return self.data_B + self.B_T + self.B_S

    def to_dict(self) -> dict:
        """The fields and the totals as JSON-native values."""
        vals = {**vars(self), "total_E": self.total_E, "total_B": self.total_B}
        return {k: np.asarray(v).tolist() for k, v in vals.items()}


def relative_l2_error(reports) -> float:
    """|total - grid| over |grid| in the l2 norm of E and B over all the
    reports, summed in their order; 0 when every grid field is 0."""
    err_sq = ref_sq = 0.0
    for rep in reports:
        d = np.concatenate([rep.total_E - rep.grid_E, rep.total_B - rep.grid_B])
        r = np.concatenate([rep.grid_E, rep.grid_B])
        err_sq += float(d @ d)
        ref_sq += float(r @ r)
    return math.sqrt(err_sq / ref_sq) if ref_sq > 0 else 0.0


def field_from_representation(history: "pic.RunHistory", t: float,
                              x) -> list[RepresentationReport]:
    """Reconstruct (E, B) at the probe (t, x) from the recorded history.

    The data term is built without a closed form for the free-wave part of
    the decomposition: the grid Maxwell solver is re-run from the stored
    initial fields with the currents of the force-free flow of the initial
    ensemble, and the T cone sum of that force-free flow is subtracted. The
    force-free flow shares f(0) with the interacting run, so the difference
    isolates the contribution determined purely by the initial data, with
    the particle-discretization error cancelling between the two T sums.

    ``x`` is a stack (m, 2) of probes at the same t, which gives a list of m
    reports. The stored steps are walked once, in order, for the whole
    stack: at each step the force-free positions are made, their current
    advances the grid re-run (half a step with the last step's current, half
    with this one's, as in the PIC loop), and, for each flow, the cone rows
    of all probes are found together (an x1 strip, then the x2 cut of
    ``_cone_rows``), gathered and put through the kernels once, and then
    summed per probe. Beside the history, only one step of the force-free
    flow is held. Each report also holds the history's grid fields at its
    probe at t, ``grid_E`` and ``grid_B``, gathered for the whole stack in
    one call: ``relative_l2_error`` compares them with the totals. Raises
    ``ValueError`` when a probe lies outside [0, lx) x [0, ly) or sits on a
    particle (see ``_cone_rows``).
    """
    probes = np.asarray(x, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != 2:
        raise ValueError(f"x must have shape (m, 2), got {probes.shape}")
    k = _history_index(history, t)
    mode, grid, times, w = history.mode, history.grid, history.times, history.w
    box = np.array([grid.lx, grid.ly])
    out = np.flatnonzero(~np.all((probes >= 0.0) & (probes < box), axis=1))
    if out.size:
        raise ValueError(f"probe t={t} x={probes[out[0]].tolist()} lies "
                         f"outside the box [0, {grid.lx}) x [0, {grid.ly})")
    p_free = history.part_p[0]
    phat = p_free[:, :2] / p0_of(p_free)[:, None]
    g_fields = mx.FieldState(mode, grid, history.E[0], history.B[0])
    work = pic.deposit_work(len(w))
    # the cone ends at the stored time the probe t was matched to
    slabs = {j: tau for j, *tau in _cone_slabs(times, float(times[k]))}
    sums = np.zeros((len(probes), 14))
    free_sums = np.zeros((len(probes), 14))
    for j in range(k + 1):
        free_x = _free_positions(history, phat, j, box)
        new = pic.deposit(pic.ParticleEnsemble(x=free_x, w=w, p=p_free,
                                               box=box), grid, work)[1]
        if j:
            half = 0.5 * (times[j] - times[j - 1])
            g_fields = mx.step_maxwell(mx.step_maxwell(g_fields, cur, half),
                                       new, half)
        cur = new
        if j not in slabs:
            continue
        tau_lo, tau_hi = slabs[j]
        X = history.part_x[j]
        c, bounds = _cone_rows(X, _strip_index(X), t, probes, box, tau_lo,
                               tau_hi)
        if c.idx.size:
            eb = _gather_eb(grid, history.E[j], history.B[j], X[c.idx])
            sums += _slab_sums(mode, c, bounds, history.part_p[j][c.idx],
                               w[c.idx], eb)
        c, bounds = _cone_rows(free_x, _strip_index(free_x), t, probes, box,
                               tau_lo, tau_hi)
        if c.idx.size:
            free_sums += _slab_sums(mode, c, bounds, p_free[c.idx], w[c.idx],
                                    None)

    g_E, g_B = _gather_eb(grid, g_fields.E, g_fields.B, probes)
    data_E = g_E - free_sums[:, 0:3]
    data_B = g_B - free_sums[:, 3:6]
    h_E, h_B = _gather_eb(grid, history.E[k], history.B[k], probes)
    # the slab sums are laid out in the report's field order from E_T on
    return [RepresentationReport(t, probe, data_E[i], data_B[i],
                                 *sums[i, :12].reshape(4, 3), *sums[i, 12:],
                                 h_E[i], h_B[i])
            for i, probe in enumerate(probes)]
