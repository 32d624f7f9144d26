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

import numpy as np

from . import maxwell as mx
from . import pic
from .phase import Momentum

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


def _embed3(v: np.ndarray) -> np.ndarray:
    if v.shape[-1] == 3:
        return v
    out = np.zeros(v.shape[:-1] + (3,))
    out[..., :2] = v
    return out


def _prep(p: np.ndarray, xi: np.ndarray):
    """Common kinematic factors; p is (n, 2) or (n, 3), xi is (n, 2)."""
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(np.sum(xi * xi, axis=-1) > 1.0 + 1e-9):
        raise ValueError("|xi| must not exceed 1")
    p3 = _embed3(p)
    p0 = np.sqrt(1.0 + np.sum(p3 * p3, axis=-1))
    phat = p3 / p0[..., None]
    xi3 = _embed3(xi)
    kappa = phat[..., 0] * xi[..., 0] + phat[..., 1] * xi[..., 1]
    return p3, p0, phat, xi3, kappa


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
    zeros = np.zeros_like(kappa)
    xicross = np.empty(kappa.shape + (3, 3))
    xicross[..., 0, 0] = zeros
    xicross[..., 0, 1] = zeros
    xicross[..., 0, 2] = xi3[..., 1]
    xicross[..., 1, 0] = zeros
    xicross[..., 1, 1] = zeros
    xicross[..., 1, 2] = -xi3[..., 0]
    xicross[..., 2, 0] = -xi3[..., 1]
    xicross[..., 2, 1] = xi3[..., 0]
    xicross[..., 2, 2] = zeros
    xp = np.cross(xi3, phat)
    dbS = (2.0 * (xicross - xp[..., :, None] * phat[..., None, :])
           * inv1[..., None, None]
           - 2.0 * xp[..., :, None] * dkap[..., None, :] * inv2[..., None, None])
    return deS, dbS


def kernel_arrays_2d(p: np.ndarray, xi: np.ndarray):
    """Vectorized planar kernels: returns (eT (..., 2), bT (...,),
    es (..., 2, 2), bs (..., 2))."""
    _, p0, phat, xi3, kappa = _prep(p, xi)
    one = 1.0 + kappa
    flat = 1.0 / (p0 * p0)                     # 1 - |phat|^2
    wedge = xi3[..., 0] * phat[..., 1] - xi3[..., 1] * phat[..., 0]
    eT = -2.0 * (flat / one ** 2)[..., None] * (xi3 + phat)[..., :2]
    bT = 2.0 * flat * wedge / one ** 2
    deS, dbS = _s_matrices(p0, phat, xi3, kappa)
    return eT, bT, deS[..., :2, :2], dbS[..., 2, :2]


def kernel_arrays_25d(p: np.ndarray, xi: np.ndarray):
    """Vectorized 3-momentum kernels: (eT (..., 3), bT (..., 3),
    eS (..., 3), bS (..., 3), deS (..., 3, 3), dbS (..., 3, 3))."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("3-momentum kernels require 3-component momenta")
    _, p0, phat, xi3, kappa = _prep(p, xi)
    one = 1.0 + kappa
    flat = 1.0 - phat[..., 0] ** 2 - phat[..., 1] ** 2
    xp = xi3 + phat
    eT = np.empty(p.shape[:-1] + (3,))
    eT[..., 0] = -2.0 * flat * xp[..., 0] / one ** 2
    eT[..., 1] = -2.0 * flat * xp[..., 1] / one ** 2
    eT[..., 2] = (2.0 * phat[..., 2]
                  * (phat[..., 0] * xp[..., 0] + phat[..., 1] * xp[..., 1])
                  / one ** 2)
    bT = np.empty(p.shape[:-1] + (3,))
    bT[..., 0] = (2.0 * phat[..., 2]
                  * ((1.0 + xi3[..., 0] * phat[..., 0]) * xp[..., 1]
                     - xi3[..., 1] * phat[..., 0] * xp[..., 0]) / one ** 2)
    bT[..., 1] = (2.0 * phat[..., 2]
                  * (xi3[..., 0] * phat[..., 1] * xp[..., 1]
                     - (1.0 + xi3[..., 1] * phat[..., 1]) * xp[..., 0]) / one ** 2)
    rho2 = phat[..., 0] ** 2 + phat[..., 1] ** 2
    bT[..., 2] = (2.0 * ((phat[..., 1] + xi3[..., 1] * rho2) * xp[..., 0]
                         - (phat[..., 0] + xi3[..., 0] * rho2) * xp[..., 1])
                  / one ** 2)
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
    _, p0, phat, _, kappa = _prep(p, xi)
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


class _ConeSums:
    """Accumulates all particle cone sums at a probe in one history pass."""

    def __init__(self, mode: str, dim_p: int):
        self.mode = mode
        self.dim_p = dim_p
        self.E_T = np.zeros(3)
        self.B_T = np.zeros(3)
        self.E_S = np.zeros(3)
        self.B_S = np.zeros(3)
        self.ks1 = 0.0
        self.ks2 = 0.0

    def add_step(self, X, P, w, probe, box, tau_lo, tau_hi, force=None,
                 kg=None, t_terms=True, s_terms=True):
        d = _min_image(X - probe[None, :], box)
        r = np.sqrt(np.sum(d * d, axis=1))
        w1, w2 = slab_weights(r, tau_lo, tau_hi)
        mask = w1 > 0
        if not np.any(mask):
            return
        d = d[mask]
        r = r[mask]
        w1 = w1[mask]
        w2 = w2[mask]
        wp = w[mask]
        P = P[mask]
        tau_mid = 0.5 * (tau_lo + tau_hi)
        denom = np.maximum(tau_mid, np.maximum(r, 1e-300))
        xi = d / denom[:, None]
        nrm = np.sqrt(np.sum(xi * xi, axis=1))
        over = nrm > 1.0
        if np.any(over):
            xi[over] /= nrm[over, None]

        p3 = _embed3(P)
        p0 = np.sqrt(1.0 + np.sum(p3 * p3, axis=1))
        kappa = (p3[:, 0] * xi[:, 0] + p3[:, 1] * xi[:, 1]) / p0

        if self.mode == "2d":
            eT, bT, es, bs = kernel_arrays_2d(P, xi)
            if t_terms:
                self.E_T[:2] += np.sum((wp * w1)[:, None] * eT, axis=0)
                self.B_T[2] += float(np.sum(wp * w1 * bT))
            if s_terms and force is not None:
                K = force[mask][:, :2]
                self.E_S[:2] += np.sum(
                    (wp * w2)[:, None] * np.einsum("nij,nj->ni", es, K), axis=0)
                self.B_S[2] += float(np.sum(wp * w2 * np.sum(bs * K, axis=1)))
                kmag = np.sqrt(np.sum(force[mask] ** 2, axis=1))
                self.ks1 += float(np.sum(wp * w2 * kmag / p0))
                if kg is not None:
                    self.ks2 += float(np.sum(
                        wp * w2 * kg[mask] / ((1.0 + kappa) * p0)))
        else:
            eT, bT, _, _, deS, dbS = kernel_arrays_25d(P, xi)
            if t_terms:
                self.E_T += np.sum((wp * w1)[:, None] * eT, axis=0)
                self.B_T += np.sum((wp * w1)[:, None] * bT, axis=0)
            if s_terms and force is not None:
                K = force[mask]
                self.E_S += np.sum(
                    (wp * w2)[:, None] * np.einsum("nij,nj->ni", deS, K), axis=0)
                self.B_S += np.sum(
                    (wp * w2)[:, None] * np.einsum("nij,nj->ni", dbS, K), axis=0)
                bp3 = 1.0 + P[:, 2] ** 2
                kmag = np.sqrt(np.sum(K ** 2, axis=1))
                self.ks1 += float(np.sum(
                    wp * w2 * kmag * (1.0 / p0 + bp3 / (p0 ** 3 * (1.0 + kappa)))))
                if kg is not None:
                    self.ks2 += float(np.sum(
                        wp * w2 * kg[mask] * bp3 / ((1.0 + kappa) * p0)))


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
    p0vec = history.part_p[0]
    p3 = _embed3(p0vec)
    phat = (p3 / np.sqrt(1.0 + np.sum(p3 * p3, axis=1))[:, None])[:, :2]
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


def field_from_representation(history: "pic.RunHistory", t: float, x,
                              _cache: dict | None = None) -> RepresentationReport:
    """Reconstruct (E, B) at the probe (t, x) from the recorded history.

    The data term is built without a closed form for the free-wave part of
    the decomposition: the grid Maxwell solver is re-run from the stored
    initial fields with the currents of the force-free flow of the initial
    ensemble, and the T cone sum of that force-free flow is subtracted. The
    force-free flow shares f(0) with the interacting run, so the difference
    isolates the contribution determined purely by the initial data, with
    the particle-discretization error cancelling between the two T sums.

    ``_cache`` (optional dict, reused across probes of the same (history, t))
    stores the free trajectories and the re-run fields.
    """
    k = _history_index(history, t)
    grid = history.grid
    box = np.array([grid.lx, grid.ly])
    probe = np.asarray(x, dtype=float)
    mode = history.mode
    dim_p = history.part_p[0].shape[1]
    w = history.w

    if _cache is None:
        _cache = {}
    if _cache.get("k") != k:
        free_x = _free_positions(history, k, box)
        _cache.clear()
        _cache.update(k=k, free_x=free_x,
                      g_fields=_free_field_rerun(history, k, free_x, w))
    free_x = _cache["free_x"]
    g_fields = _cache["g_fields"]

    slabs = _cone_slabs(history.times, t)
    sums = _ConeSums(mode, dim_p)
    free_sums = _ConeSums(mode, dim_p)
    for j, tau_lo, tau_hi in slabs:
        X = history.part_x[j]
        P = history.part_p[j]
        st = history.fields[j]
        E, B = _gather_eb(st, X)
        p3 = _embed3(P)
        p0 = np.sqrt(1.0 + np.sum(p3 * p3, axis=1))
        phat = p3 / p0[:, None]
        force3 = E + np.cross(phat, B)
        force = force3[:, :dim_p]
        d = _min_image(X - probe[None, :], box)
        r = np.sqrt(np.sum(d * d, axis=1))
        om = np.where(r[:, None] > 0, d / np.maximum(r, 1e-300)[:, None],
                      np.array([1.0, 0.0]))
        kg = np.sqrt(mx.good_component_sq(E, B, om, mode))
        sums.add_step(X, P, w, probe, box, tau_lo, tau_hi, force=force, kg=kg)
        free_sums.add_step(free_x[j], history.part_p[0], w, probe, box,
                           tau_lo, tau_hi, s_terms=False)

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
    k = _history_index(history, t)
    grid = history.grid
    box = np.array([grid.lx, grid.ly])
    probe = np.asarray(x, dtype=float)
    mode = history.mode
    w = history.w

    lhs_int = 0.0
    lhs_col = 0.0
    term_g = 0.0
    term_h = 0.0
    for j, tau_lo, tau_hi in _cone_slabs(history.times, t):
        X = history.part_x[j]
        P = history.part_p[j]
        d = _min_image(X - probe[None, :], box)
        r = np.sqrt(np.sum(d * d, axis=1))
        w1, w2 = slab_weights(r, tau_lo, tau_hi)
        mask = (w1 > 0) | (w2 > 0)
        if not np.any(mask):
            continue
        d = d[mask]
        r = r[mask]
        w1 = w1[mask]
        w2 = w2[mask]
        wp = w[mask]
        P = P[mask]
        tau_mid = 0.5 * (tau_lo + tau_hi)
        denom = np.maximum(tau_mid, np.maximum(r, 1e-300))
        xi = d / denom[:, None]
        nrm = np.sqrt(np.sum(xi * xi, axis=1))
        over = nrm > 1.0
        if np.any(over):
            xi[over] /= nrm[over, None]
            nrm[over] = 1.0
        p3 = _embed3(P)
        p0 = np.sqrt(1.0 + np.sum(p3 * p3, axis=1))
        kappa = (p3[:, 0] * xi[:, 0] + p3[:, 1] * xi[:, 1]) / p0
        maj = 1.0 / (p0 * (1.0 + kappa))
        if mode == "2.5d":
            maj = maj * (1.0 + P[:, 2] ** 2) ** 1.5
        interior = nrm <= 1.0 - eps
        lhs_int += float(np.sum((wp * maj * w1)[interior]))
        lhs_col += float(np.sum((wp * maj * w1)[~interior]))
        term_g += float(np.sum(wp * p0 ** 2 * w2))
        term_h += float(np.sum(wp * p0 ** 4 * w2))
    rhs = eps ** (-0.1) * term_g ** 0.4 + eps ** 0.3 * term_h ** 0.4
    return EpsilonSplitReport(eps=eps, lhs=lhs_int + lhs_col,
                              lhs_interior=lhs_int, lhs_collar=lhs_col,
                              rhs=rhs, term_g=term_g, term_h=term_h)
