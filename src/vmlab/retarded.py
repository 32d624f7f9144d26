"""Retarded-integral representation of the fields on the backward light cone.

The fields of the planar relativistic Vlasov-Maxwell system admit an exact
decomposition E = E_data + E_T + E_S (same for B), where E_T integrates an
explicit kernel against f over the backward cone with the singular measure
dp dy ds / ((t-s) sqrt((t-s)^2 - |y-x|^2)), and E_S integrates momentum
derivatives of a second kernel against the Lorentz force times f with the
measure dp dy ds / sqrt((t-s)^2 - |y-x|^2).

This module evaluates the kernels (both planar-momentum and 3-momentum
variants), checks them against their singular majorants, provides the
light-cone wave inverse with the edge singularity removed analytically, and
reconstructs fields from a recorded particle/field history for comparison
against the grid solver.

Kernel conventions: xi = (y-x)/(t-s) with |xi| <= 1; the in-plane pairing
phat.xi uses only the first two momentum components; a ^ b = a1 b2 - a2 b1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import maxwell as mx
from . import pic
from .phase import Momentum, embed3, p0_of, unit_direction

__all__ = [
    "KernelSet2D",
    "KernelSet25D",
    "RetardedQuadrature",
    "kernel_eval_2d",
    "kernel_eval_25d",
    "kernel_arrays_2d",
    "kernel_arrays_25d",
    "KernelBoundReport",
    "kernel_bound_check",
    "box_inverse",
    "RepresentationReport",
    "field_from_representation",
    "grid_field_at",
    "EpsilonSplitReport",
    "epsilon_split_eval",
    "slab_weights",
]


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSet2D:
    """Planar kernels at one (p, xi): eT (2,), bT scalar, esMatrix (2, 2)
    with esMatrix[i, j] = d(eS primitive_i)/dp_j, bsVector (2,)."""

    eT: np.ndarray
    bT: float
    esMatrix: np.ndarray
    bsVector: np.ndarray


@dataclass(frozen=True)
class KernelSet25D:
    """3-momentum kernels at one (p, xi): eT, bT, and the S primitives
    eS = -2(xi + phat)/(1 + phat.xi) (third slot -2 phat_3 / (1 + phat.xi)),
    bS = 2 (xi x phat)/(1 + phat.xi), plus their momentum-derivative
    matrices deS, dbS with [i, j] = d(primitive_i)/dp_j."""

    eT: np.ndarray
    bT: np.ndarray
    eS: np.ndarray
    bS: np.ndarray
    deS: np.ndarray
    dbS: np.ndarray


def _prep(p: np.ndarray, xi: np.ndarray):
    """Common kinematic factors; p is (n, 2) or (n, 3), xi is (n, 2)."""
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(np.sum(xi * xi, axis=-1) > 1.0 + 1e-9):
        raise ValueError("|xi| must not exceed 1")
    p0 = p0_of(p)
    phat = embed3(p) / p0[..., None]
    xi3 = embed3(xi)
    kappa = phat[..., 0] * xi[..., 0] + phat[..., 1] * xi[..., 1]
    return p0, phat, xi3, kappa


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


def kernel_arrays_2d(p: np.ndarray, xi: np.ndarray):
    """Vectorized planar kernels, the p3 = 0 slice of ``kernel_arrays_25d``:
    returns (eT (..., 2), bT (...,), es (..., 2, 2), bs (..., 2))."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise ValueError("planar kernels require 2-component momenta")
    eT, bT, _, _, deS, dbS = kernel_arrays_25d(embed3(p), xi)
    return eT[..., :2], bT[..., 2], deS[..., :2, :2], dbS[..., 2, :2]


def kernel_arrays_25d(p: np.ndarray, xi: np.ndarray):
    """Vectorized 3-momentum kernels: (eT (..., 3), bT (..., 3),
    eS (..., 3), bS (..., 3), deS (..., 3, 3), dbS (..., 3, 3))."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("3-momentum kernels require 3-component momenta")
    p0, phat, xi3, kappa = _prep(p, xi)
    one = 1.0 + kappa
    one2 = one ** 2
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
    eS = -2.0 * xp / one[..., None]
    bS = 2.0 * np.cross(xi3, phat) / one[..., None]
    deS, dbS = _s_matrices(p0, phat, xi3, kappa)
    return eT, bT, eS, bS, deS, dbS


def kernel_eval_2d(mom: Momentum, xi) -> KernelSet2D:
    """Planar kernel set at a single (p, xi)."""
    if mom.dim != 2:
        raise ValueError("planar kernels require 2-component momenta")
    xi = np.asarray(xi, dtype=float)
    eT, bT, es, bs = kernel_arrays_2d(mom.p[None, :], xi[None, :])
    return KernelSet2D(eT=eT[0], bT=float(bT[0]), esMatrix=es[0], bsVector=bs[0])


def kernel_eval_25d(mom: Momentum, xi) -> KernelSet25D:
    """3-momentum kernel set at a single (p, xi)."""
    if mom.dim != 3:
        raise ValueError("3-momentum kernels require 3-component momenta")
    xi = np.asarray(xi, dtype=float)
    eT, bT, eS, bS, deS, dbS = kernel_arrays_25d(mom.p[None, :], xi[None, :])
    return KernelSet25D(eT=eT[0], bT=bT[0], eS=eS[0], bS=bS[0],
                        deS=deS[0], dbS=dbS[0])


# --------------------------------------------------------------------------
# Majorant checks
# --------------------------------------------------------------------------


@dataclass
class KernelBoundReport:
    mode: str
    n_samples: int
    constants: dict          # component -> sup |kernel| / majorant
    witnesses: dict          # component -> (p, xi) attaining the sup

    @property
    def all_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.constants.values())


def kernel_bound_check(p: np.ndarray, xi: np.ndarray, mode: str) -> KernelBoundReport:
    """Empirical constants sup |kernel component| / majorant over samples.

    Planar majorants: T kernels against 1/(p0^2 (1+phat.xi)^(3/2)); S-matrix
    entries against 1/(p0 (1+phat.xi)). 3-momentum majorants: T kernels
    against <p3>^3/(p0 (1+phat.xi)); S-derivative entries against
    1/p0 + <p3>^2/(p0 (1+phat.xi)).
    """
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=float)
    p0, _, _, kappa = _prep(p, xi)
    one = 1.0 + kappa
    constants = {}
    witnesses = {}

    def record(name, vals, major):
        ratio = vals / major
        k = int(np.argmax(ratio))
        constants[name] = float(ratio[k])
        witnesses[name] = (p[k].copy(), xi[k].copy())

    if mode == "2d":
        eT, bT, es, bs = kernel_arrays_2d(p, xi)
        maj_t = 1.0 / (p0 ** 2 * one ** 1.5)
        maj_s = 1.0 / (p0 * one)
        record("eT", np.abs(eT).max(axis=-1), maj_t)
        record("bT", np.abs(bT), maj_t)
        record("eS", np.abs(es).max(axis=(-2, -1)), maj_s)
        record("bS", np.abs(bs).max(axis=-1), maj_s)
    elif mode == "2.5d":
        eT, bT, _, _, deS, dbS = kernel_arrays_25d(p, xi)
        bp3 = 1.0 + p[:, 2] ** 2          # <p3>^2
        maj_t = bp3 ** 1.5 / (p0 * one)
        maj_s = 1.0 / p0 + bp3 / (p0 * one)
        record("eT", np.abs(eT).max(axis=-1), maj_t)
        record("bT", np.abs(bT).max(axis=-1), maj_t)
        record("eS", np.abs(deS).max(axis=(-2, -1)), maj_s)
        record("bS", np.abs(dbS).max(axis=(-2, -1)), maj_s)
    else:
        raise ValueError(f"mode must be one of {mx.MODES}, got {mode!r}")
    return KernelBoundReport(mode=mode, n_samples=p.shape[0],
                             constants=constants, witnesses=witnesses)


# --------------------------------------------------------------------------
# Light-cone wave inverse
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RetardedQuadrature:
    """Tensor Gauss-Legendre rule for backward-cone integrals after the
    radial substitution |y - x| = (t - s) sin(phi), which removes the
    inverse-square-root edge singularity exactly."""

    n_s: int = 64
    n_phi: int = 32
    n_theta: int = 64

    def __post_init__(self):
        for name in ("n_s", "n_phi", "n_theta"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _gauss(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def box_inverse(F, t: float, x, quad: RetardedQuadrature | None = None) -> float:
    """Backward-cone integral of F with the retarded kernel:

        integral over 0 < s < t, |y - x| <= t - s of
        F(s, y) / sqrt((t-s)^2 - |y-x|^2) dy ds.

    (The zero-data solution of the planar wave equation box u = g is 1/(2 pi)
    times this with F = g.) F is called as F(s, y) with y of shape (m, 2).

    With r = (t-s) sin(phi) the integrand becomes (t-s) sin(phi) F, smooth up
    to the cone edge, so tensor Gauss quadrature converges at spectral rate
    for smooth F.
    """
    if quad is None:
        quad = RetardedQuadrature()
    x = np.asarray(x, dtype=float)
    s_nodes, s_wts = _gauss(quad.n_s, 0.0, t)
    phi_nodes, phi_wts = _gauss(quad.n_phi, 0.0, 0.5 * np.pi)
    th_nodes, th_wts = _gauss(quad.n_theta, 0.0, 2.0 * np.pi)
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

    both vanishing when r >= tau_hi. The r -> 0 limits are 1/tau_lo - 1/tau_hi
    and log(tau_hi/tau_lo).
    """
    r = np.asarray(r, dtype=float)
    w1 = np.zeros_like(r)
    w2 = np.zeros_like(r)
    inside = r < tau_hi
    if not np.any(inside):
        return w1, w2
    rr = r[inside]
    lo = np.maximum(rr, tau_lo)
    small = rr < 1e-12
    safe_r = np.where(small, 1.0, rr)
    a_hi = np.arccos(np.clip(safe_r / tau_hi, -1.0, 1.0))
    a_lo = np.arccos(np.clip(safe_r / lo, -1.0, 1.0))
    w1_in = np.where(small,
                     1.0 / np.maximum(tau_lo, 1e-300) - 1.0 / tau_hi,
                     (a_hi - a_lo) / safe_r)
    s_hi = np.sqrt(np.maximum(tau_hi ** 2 - rr ** 2, 0.0))
    s_lo = np.sqrt(np.maximum(lo ** 2 - rr ** 2, 0.0))
    w2_in = np.log(tau_hi + s_hi) - np.log(lo + s_lo)
    w1[inside] = w1_in
    w2[inside] = w2_in
    return w1, w2


def _min_image(d: np.ndarray, box: np.ndarray) -> np.ndarray:
    return d - box * np.rint(d / box)


def _cone_slabs(times, t: float):
    """Per-step slab boundaries (tau_lo, tau_hi) covering [0, t] with each
    stored step owning the half-intervals to its neighbors."""
    times = np.asarray(times, dtype=float)
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
    """The rows of one stored step inside a slab of a probe's backward cone."""

    idx: np.ndarray     # (h,) row indices into the step's particle arrays
    d: np.ndarray       # (h, 2) minimum-image offsets y - x
    r: np.ndarray       # (h,) distances |y - x|
    w1: np.ndarray      # (h,) slab weights of the two cone measures
    w2: np.ndarray
    xi: np.ndarray      # (h, 2) d over the slab's mid tau, clipped to |xi| <= 1


def _cone_rows(X, t: float, probe, box, tau_lo: float, tau_hi: float) -> _ConeRows:
    """Rows of positions X (n, 2) inside the cone of the probe (t, x) over
    the slab tau in [tau_lo, tau_hi]: those with r < tau_hi, where both slab
    weights are positive (beyond it both are 0). Every later per-particle
    step works on these rows only.

    A particle within 1e-12 of the probe in the newest slab (tau_lo = 0) is
    rejected: the point-particle T integral diverges like 1/r there.
    """
    d = _min_image(X - probe[None, :], box)
    r = np.sqrt(np.sum(d * d, axis=1))
    idx = np.flatnonzero(r < tau_hi)
    d = d[idx]
    r = r[idx]
    if tau_lo <= 0.0 and np.any(r < 1e-12):
        raise ValueError(f"probe t={t} x={probe.tolist()} sits on a particle; "
                         "its cone integral diverges there")
    w1, w2 = slab_weights(r, tau_lo, tau_hi)
    denom = np.maximum(0.5 * (tau_lo + tau_hi), np.maximum(r, 1e-300))
    xi = d / denom[:, None]
    nrm = np.sqrt(np.sum(xi * xi, axis=1))
    over = nrm > 1.0
    if np.any(over):
        xi[over] /= nrm[over, None]
    return _ConeRows(idx, d, r, w1, w2, xi)


class _ConeSums:
    """Accumulates all particle cone sums at a probe in one history pass."""

    def __init__(self, mode: str):
        self.mode = mode
        self.E_T = np.zeros(3)
        self.B_T = np.zeros(3)
        self.E_S = np.zeros(3)
        self.B_S = np.zeros(3)
        self.ks1 = 0.0
        self.ks2 = 0.0

    def add_step(self, c: _ConeRows, P, wp, force=None, kg=None):
        """Add one slab's cone rows ``c``; P, wp, force (3 components) and
        kg hold those rows only. Without ``force`` only the T sums are
        taken. A planar history is the p3 = 0 case of the same sums."""
        w1, w2, xi = c.w1, c.w2, c.xi
        p3 = embed3(P)
        eT, bT, _, _, deS, dbS = kernel_arrays_25d(p3, xi)
        self.E_T += np.sum((wp * w1)[:, None] * eT, axis=0)
        self.B_T += np.sum((wp * w1)[:, None] * bT, axis=0)
        if force is None:
            return
        self.E_S += np.sum(
            (wp * w2)[:, None] * np.einsum("nij,nj->ni", deS, force), axis=0)
        self.B_S += np.sum(
            (wp * w2)[:, None] * np.einsum("nij,nj->ni", dbS, force), axis=0)
        p0 = p0_of(p3)
        kappa = (p3[:, 0] * xi[:, 0] + p3[:, 1] * xi[:, 1]) / p0
        bp3 = 1.0 + p3[:, 2] ** 2
        wk = wp * w2 * np.sqrt(np.sum(force ** 2, axis=1))
        if self.mode == "2d":
            self.ks1 += float(np.sum(wk / p0))
        else:
            self.ks1 += float(np.sum(
                wk * (1.0 / p0 + bp3 / (p0 ** 3 * (1.0 + kappa)))))
        self.ks2 += float(np.sum(wp * w2 * kg * bp3 / ((1.0 + kappa) * p0)))


def _history_index(history: "pic.RunHistory", t: float) -> int:
    times = np.asarray(history.times)
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9:
        raise ValueError(f"history does not store the probe time t={t}")
    return k


def _free_positions(history: "pic.RunHistory", k: int, box: np.ndarray):
    """Force-free trajectories from the initial ensemble: straight lines with
    the initial velocities, wrapped into the box."""
    x0 = history.part_x[0]
    p = history.part_p[0]
    phat = p[:, :2] / p0_of(p)[:, None]
    out = []
    for j in range(k + 1):
        out.append(pic.wrap_box(x0 + history.times[j] * phat, box))
    return out


def _free_field_rerun(history: "pic.RunHistory", k: int, free_x, w):
    """Grid Maxwell evolution from the stored initial fields with the currents
    of the force-free flow, using the same split-step structure as the PIC
    loop (half step with the old current, half step with the new one)."""
    grid = history.grid
    dim_p = history.part_p[0].shape[1]
    box = np.array([grid.lx, grid.ly])
    fields = history.fields[0].copy()

    def src_at(j):
        ens = pic.ParticleEnsemble(dim_p=dim_p, x=free_x[j],
                                   p=history.part_p[0], w=w, box=box)
        return pic.deposit(ens, grid)

    src = src_at(0)
    for j in range(k):
        dt = history.times[j + 1] - history.times[j]
        fields = mx.step_maxwell(fields, src, 0.5 * dt)
        src = src_at(j + 1)
        fields = mx.step_maxwell(fields, src, 0.5 * dt)
    return fields


def _gather_eb(st: mx.FieldState, xs: np.ndarray):
    """CIC gather of E and B at positions (n, 2) in one call: two (n, 3)."""
    eb = pic.gather_cic(st.grid, np.concatenate([st.E, st.B]), xs).T
    return eb[:, :3], eb[:, 3:]


def grid_field_at(history: "pic.RunHistory", t: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Grid-solver fields (E, B) at a probe, interpolated from the history."""
    st = history.fields[_history_index(history, t)]
    E, B = _gather_eb(st, np.asarray(x, dtype=float).reshape(1, 2))
    return E[0], B[0]


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

    @property
    def total_E(self) -> np.ndarray:
        return self.data_E + self.E_T + self.E_S

    @property
    def total_B(self) -> np.ndarray:
        return self.data_B + self.B_T + self.B_S

    def to_dict(self) -> dict:
        return {
            "t": self.t, "x": list(map(float, self.x)),
            "data_E": list(map(float, self.data_E)),
            "data_B": list(map(float, self.data_B)),
            "E_T": list(map(float, self.E_T)),
            "B_T": list(map(float, self.B_T)),
            "E_S": list(map(float, self.E_S)),
            "B_S": list(map(float, self.B_S)),
            "total_E": list(map(float, self.total_E)),
            "total_B": list(map(float, self.total_B)),
            "ks1_bound": self.ks1_bound, "ks2_bound": self.ks2_bound,
        }


def field_from_representation(history: "pic.RunHistory", t: float, x):
    """Reconstruct (E, B) at the probe (t, x) from the recorded history.

    The data term is built without a closed form for the free-wave part of
    the decomposition: the grid Maxwell solver is re-run from the stored
    initial fields with the currents of the force-free flow of the initial
    ensemble, and the T cone sum of that force-free flow is subtracted. The
    force-free flow shares f(0) with the interacting run, so the difference
    isolates the contribution determined purely by the initial data, with
    the particle-discretization error cancelling between the two T sums.

    ``x`` is one probe point (2,), which gives one report, or a stack (m, 2)
    of probes at the same t, which gives a list of m reports; the force-free
    flow and its grid re-run are built once for the stack. Raises
    ``ValueError`` when a probe sits on a particle (see ``_cone_rows``).
    """
    probes = np.asarray(x, dtype=float)
    if probes.ndim not in (1, 2) or probes.shape[-1] != 2:
        raise ValueError(f"x must have shape (2,) or (m, 2), got {probes.shape}")
    k = _history_index(history, t)
    box = np.array([history.grid.lx, history.grid.ly])
    free_x = _free_positions(history, k, box)
    g_fields = _free_field_rerun(history, k, free_x, history.w)
    # the cone ends at the stored time the probe t was matched to
    slabs = _cone_slabs(history.times, float(history.times[k]))
    reports = [_probe_report(history, t, probe, box, slabs, free_x, g_fields)
               for probe in probes.reshape(-1, 2)]
    return reports[0] if probes.ndim == 1 else reports


def _probe_report(history, t, probe, box, slabs, free_x, g_fields):
    """One probe of ``field_from_representation``: the cone sums of the
    interacting and the force-free flow over the slabs, on cone rows only."""
    mode = history.mode
    w = history.w
    sums = _ConeSums(mode)
    free_sums = _ConeSums(mode)
    for j, tau_lo, tau_hi in slabs:
        X = history.part_x[j]
        c = _cone_rows(X, t, probe, box, tau_lo, tau_hi)
        if c.idx.size:
            P = history.part_p[j][c.idx]
            E, B = _gather_eb(history.fields[j], X[c.idx])
            p3 = embed3(P)
            force = E + np.cross(p3 / p0_of(p3)[:, None], B)
            kg = np.sqrt(mx.good_component_sq(E, B, unit_direction(c.d, c.r),
                                              mode))
            sums.add_step(c, P, w[c.idx], force=force, kg=kg)
        c = _cone_rows(free_x[j], t, probe, box, tau_lo, tau_hi)
        if c.idx.size:
            free_sums.add_step(c, history.part_p[0][c.idx], w[c.idx])

    g_E, g_B = _gather_eb(g_fields, probe.reshape(1, 2))
    return RepresentationReport(
        t=t, x=probe,
        data_E=g_E[0] - free_sums.E_T, data_B=g_B[0] - free_sums.B_T,
        E_T=sums.E_T, B_T=sums.B_T, E_S=sums.E_S, B_S=sums.B_S,
        ks1_bound=sums.ks1, ks2_bound=sums.ks2)


# --------------------------------------------------------------------------
# Epsilon split of the singular T integral
# --------------------------------------------------------------------------


@dataclass
class EpsilonSplitReport:
    eps: float
    lhs: float             # full singular cone integral of the T majorant
    lhs_interior: float    # contribution with |xi| <= 1 - eps
    lhs_collar: float      # contribution with |xi| > 1 - eps
    rhs: float             # eps^(-1/10) G^(2/5) + eps^(3/10) H^(2/5)
    term_g: float          # cone integral of the p0^2 moment
    term_h: float          # cone integral of the p0^4 moment

    @property
    def ratio(self) -> float:
        return 0.0 if self.rhs == 0.0 else self.lhs / self.rhs


def epsilon_split_eval(history: "pic.RunHistory", t: float, x,
                       eps: float) -> EpsilonSplitReport:
    """Evaluate both sides of the eps-split bound for the singular T integral:

      integral of F / ((t-s) sqrt(...))  <=  C [ eps^(-1/10) (integral of
      G / sqrt(...))^(2/5) + eps^(3/10) (integral of H / sqrt(...))^(2/5) ]

    with F the momentum integral of f <p3>^3(3-mom.) or f (planar) over
    p0 (1 + phat.xi), G and H the p0^2 and p0^4 moments of f. All cone
    integrals are particle sums with the exact slab weights.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    t = float(history.times[_history_index(history, t)])
    box = np.array([history.grid.lx, history.grid.ly])
    probe = np.asarray(x, dtype=float)
    w = history.w

    lhs_int = 0.0
    lhs_col = 0.0
    term_g = 0.0
    term_h = 0.0
    for j, tau_lo, tau_hi in _cone_slabs(history.times, t):
        c = _cone_rows(history.part_x[j], t, probe, box, tau_lo, tau_hi)
        wp = w[c.idx]
        P = history.part_p[j][c.idx]
        p3 = embed3(P)
        p0 = p0_of(p3)
        kappa = (p3[:, 0] * c.xi[:, 0] + p3[:, 1] * c.xi[:, 1]) / p0
        maj = (1.0 + p3[:, 2] ** 2) ** 1.5 / (p0 * (1.0 + kappa))
        interior = np.sqrt(np.sum(c.xi * c.xi, axis=1)) <= 1.0 - eps
        lhs_int += float(np.sum((wp * maj * c.w1)[interior]))
        lhs_col += float(np.sum((wp * maj * c.w1)[~interior]))
        term_g += float(np.sum(wp * p0 ** 2 * c.w2))
        term_h += float(np.sum(wp * p0 ** 4 * c.w2))
    rhs = eps ** (-0.1) * term_g ** 0.4 + eps ** 0.3 * term_h ** 0.4
    return EpsilonSplitReport(eps=eps, lhs=lhs_int + lhs_col,
                              lhs_interior=lhs_int, lhs_collar=lhs_col,
                              rhs=rhs, term_g=term_g, term_h=term_h)
