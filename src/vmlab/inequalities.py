"""Property-based verification of the standalone identities and inequalities
underlying the field and moment estimates: the energy-flux identity, the
light-cone geometry bounds (with their explicit constants), the singular
momentum-integral lemmas, interpolation inequalities, a Gronwall-type lemma,
and the wave-equation Strichartz admissibility arithmetic.

Identities are asserted at tight tolerances; inequalities with explicit
printed constants are asserted with those constants; inequalities that hold
only up to an unspecified constant report an empirical constant instead.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

from .maxwell import flux_identity_lhs, good_component_sq
from .phase import (IneqReport, _blocks, interpolation_check, p0_of,
                    unit_direction)
from .retarded import gauss_rule

__all__ = [
    "sample_momenta_xi",
    "flux_identity_suite",
    "null_coordinate_identity",
    "geometry_bounds_check",
    "singular_integral_lemma_check",
    "interpolation_suite",
    "gronwall_check",
    "strichartz_admissible",
]


def sample_momenta_xi(seed: int, n: int):
    """``n`` random 3-momenta p (n, 3) and cone directions xi (n, 2) from
    ``seed``, with heavy momentum tails and the stress regimes mixed in: a
    slice with |phat| > 1 - 1e-6, a slice with |xi| > 1 - 1e-6, and a slice
    with xi nearly antiparallel to phat (1 + phat.xi -> 0), each an eighth
    of the draws. Row norms are summed one column at a time, to the bits of
    ``np.linalg.norm(..., axis=1)``. Each draw is whole and freed after its
    last use; p and xi are built from them ``_BLOCK`` rows at a time, the
    rest in place, so at most 56 bytes per sample are held."""
    rng = np.random.default_rng(seed)
    k = n // 8
    mag = rng.uniform(-3.0, 9.0, n)
    np.exp(mag, out=mag)
    mag[:k] = np.exp(rng.uniform(7.0, 20.0, k))   # |phat| > 1 - 1e-6
    p = rng.standard_normal((n, 3))                # directions, then p
    for s in _blocks(n):
        q = p[s]
        q /= np.sqrt((q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1])
                     + q[:, 2] * q[:, 2])[:, None]
        q *= mag[s, None]
    del mag

    xi_mag = rng.random(n)
    np.sqrt(xi_mag, out=xi_mag)
    xi_mag[n - k:] = 1.0 - np.exp(rng.uniform(math.log(1e-9), math.log(1e-6), k))
    phi = rng.random(n)
    phi *= 2.0
    phi *= np.pi
    xi = np.empty((n, 2))
    for s in _blocks(n):
        np.multiply(xi_mag[s], np.cos(phi[s]), out=xi[s, 0])
        np.multiply(xi_mag[s], np.sin(phi[s]), out=xi[s, 1])
    del phi
    sl = slice(n // 2, n // 2 + k)
    ph0, ph1 = p[sl, 0], p[sl, 1]
    nrm = np.maximum(np.sqrt(ph0 * ph0 + ph1 * ph1), 1e-300)
    xi[sl, 0] = -(ph0 / nrm) * xi_mag[sl]
    xi[sl, 1] = -(ph1 / nrm) * xi_mag[sl]
    return p, xi


# --------------------------------------------------------------------------
# Flux identity
# --------------------------------------------------------------------------


def _flux_residual(E, B, phi, mode: str) -> float:
    """Max over the rows of E, B (n, 3) and the angles phi (n,) of the
    residual |lhs - rhs| / (1 + |E|^2 + |B|^2) of the energy-flux identity
    at the unit w = (cos phi, sin phi)

      1/2 (|E|^2 + |B|^2) + w.(E x B)
        = 1/4 (|E.w|^2 + |B.w|^2 + |E - w x B|^2 + |B + w x E|^2),

    with rhs the ``mode`` good square, ``_BLOCK`` rows at a time, w built
    per block. NaN if any row is NaN, as ``np.max`` of the whole array
    gives."""
    tops = []
    for s in _blocks(len(E)):
        e, b = E[s], B[s]
        w = np.stack([np.cos(phi[s]), np.sin(phi[s])], axis=-1)
        # in place: an array still bound when the next block starts adds to
        # the peak
        res = flux_identity_lhs(e, b, w)
        res -= 0.25 * good_component_sq(e, b, w, mode)
        np.abs(res, out=res)
        res /= 1.0 + ((e[:, 0] * e[:, 0] + b[:, 0] * b[:, 0])
                      + (e[:, 1] * e[:, 1] + b[:, 1] * b[:, 1])
                      + (e[:, 2] * e[:, 2] + b[:, 2] * b[:, 2]))
        tops.append(np.max(res))
    return float(np.max(tops))


def flux_identity_suite(seed: int, n: int) -> IneqReport:
    """Residuals of the flux identity (and its planar reduction, which halves
    the component list) over ``n`` >= 3 random triples from ``seed``, a third
    of them planar-ansatz ones. Only the draws E, B and phi are whole (56
    bytes per sample); ``_flux_residual`` builds the directions per block,
    for the full check and then for the planar subset."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((n, 3))
    u = rng.uniform(-3, 6, (n, 1))
    E *= np.exp(u, out=u)
    del u                                  # before B is drawn
    B = rng.standard_normal((n, 3))
    u = rng.uniform(-3, 6, (n, 1))
    B *= np.exp(u, out=u)
    del u
    # planar-ansatz subset: E in-plane, B out-of-plane
    k = n // 3
    E[:k, 2] = 0.0
    B[:k, :2] = 0.0
    phi = rng.random(n)
    phi *= 2.0
    phi *= np.pi

    res = _flux_residual(E, B, phi, "2.5d")
    # planar reduction on the ansatz subset
    res2 = _flux_residual(E[:k], B[:k], phi[:k], "2d")
    worst = max(res, res2)
    return IneqReport(name="flux_identity", n_samples=n, max_ratio=worst,
                      witness=None, passed=worst < 1e-12,
                      details={"full": res, "planar_reduction": res2})


def null_coordinate_identity(seed: int, n: int) -> IneqReport:
    """Residual of the null-coordinate identity

      1 - |xi|^2 = 4 psi (t - s - psi) / (t - s)^2,

    xi = (y - x)/(t - s) and psi = (t - s - |y - x|)/2, at ``n`` random
    backward-cone points from ``seed`` + 1: the max of the absolute
    residual, ``_BLOCK`` rows at a time."""
    rng = np.random.default_rng(seed + 1)
    u_t, u_s, frac = rng.random(n), rng.random(n), rng.random(n)
    tops = []
    for b in _blocks(n):
        t = 1.0 + u_t[b] * 9.0
        s = u_s[b] * t * 0.999
        r = frac[b] * (t - s)
        psi = 0.5 * (t - s - r)
        rhs = 4.0 * psi * (t - s - psi) / (t - s) ** 2
        tops.append(np.max(np.abs((1.0 - frac[b] ** 2) - rhs)))
    res = float(np.max(tops))
    return IneqReport(name="null_coordinate_identity", n_samples=n,
                      max_ratio=res, witness=None, passed=res < 1e-12)


# --------------------------------------------------------------------------
# Geometry bounds
# --------------------------------------------------------------------------

_GEOMETRY_CONSTANTS = {
    "xi_plus_phat": math.sqrt(2.0),
    "phat_cross_omega": math.sqrt(2.0),
    "xi_minus_omega": 1.0,
    "one_plus_phat_omega": 4.0,
    "inv_p0": math.sqrt(2.0),
    "xik_kappa_minus_phatk": math.sqrt(8.0),
}


def _geometry_ratios(p, xi) -> dict:
    """lhs / (constant * rhs) of each geometry bound at the rows of p (m, 3)
    and xi (m, 2), one component at a time: each norm, dot and cross product
    to the bits of its ``np.linalg.norm``, ``np.sum`` or ``np.cross`` form
    with omega and xi padded by a zero third component."""
    p0 = p0_of(p)
    h0, h1, h2 = p[:, 0] / p0, p[:, 1] / p0, p[:, 2] / p0
    x0, x1 = xi[:, 0], xi[:, 1]
    xi_mag = np.sqrt(x0 * x0 + x1 * x1)
    om = unit_direction(xi, xi_mag)
    o0, o1 = om[:, 0], om[:, 1]
    kappa = h0 * x0 + h1 * x1
    one = 1.0 + kappa
    half = np.sqrt(one)

    a0, a1 = x0 + h0, x1 + h1                      # xi + phat
    c0 = h1 * 0.0 - h2 * o1                        # phat x omega
    c1 = h2 * o0 - h0 * 0.0
    c2 = h0 * o1 - h1 * o0
    lhs_rhs = {
        "xi_plus_phat": (np.sqrt((a0 * a0 + a1 * a1) + h2 * h2), half),
        "phat_cross_omega": (np.sqrt((c0 * c0 + c1 * c1) + c2 * c2), half),
        "xi_minus_omega": (1.0 - xi_mag, one),
        "one_plus_phat_omega": (1.0 + ((h0 * o0 + h1 * o1) + h2 * 0.0), one),
        "inv_p0": (1.0 / p0, half),
        "xik_kappa_minus_phatk": (np.maximum(np.abs(x0 * kappa - h0),
                                             np.abs(x1 * kappa - h1)), half),
    }
    return {name: lhs / (_GEOMETRY_CONSTANTS[name] * np.maximum(rhs, 1e-300))
            for name, (lhs, rhs) in lhs_rhs.items()}


def geometry_bounds_check(seed: int, n: int) -> dict:
    """The six light-cone geometry bounds with their explicit constants,
    for omega = xi/|xi| (arbitrary unit direction when xi = 0):

      |xi + phat|        <= sqrt(2) (1 + phat.xi)^(1/2)
      |phat x omega|     <= sqrt(2) (1 + phat.xi)^(1/2)
      |xi - omega|        = 1 - |xi| <= 1 + phat.xi
      1 + phat.omega     <= 4 (1 + phat.xi)
      1/p0               <= sqrt(2) (1 + phat.xi)^(1/2)
      |xi_k (phat.xi) - phat_k| <= sqrt(8) (1 + phat.xi)^(1/2),  k = 1, 2.

    Returns {name: IneqReport}; ``max_ratio`` is lhs / (constant * rhs), so
    every bound holds iff every max_ratio <= 1. The ``n`` samples are the
    3-momenta ``sample_momenta_xi(seed, n)``, checked ``_BLOCK`` rows at a
    time. The witness is the first row of the largest ratio, or of the
    first NaN, as ``np.argmax`` over all rows picks it.
    """
    p, xi = sample_momenta_xi(seed, n)
    # per block, each check's largest ratio and its row; np.argmax over the
    # block tops then picks the first block holding the overall one
    tops = {name: [] for name in _GEOMETRY_CONSTANTS}
    rows = {name: [] for name in _GEOMETRY_CONSTANTS}
    for s in _blocks(n):
        for name, ratio in _geometry_ratios(p[s], xi[s]).items():
            k = int(np.argmax(ratio))
            tops[name].append(ratio[k])
            rows[name].append(s.start + k)
    out = {}
    for name, c in _GEOMETRY_CONSTANTS.items():
        b = int(np.argmax(tops[name]))
        k, top = rows[name][b], float(tops[name][b])
        out[name] = IneqReport(
            name=f"geometry.{name}", n_samples=n, max_ratio=top,
            witness={"p": p[k].tolist(), "xi": xi[k].tolist()},
            passed=top <= 1.0 + 1e-12, details={"constant": c})
    return out


# --------------------------------------------------------------------------
# Singular momentum-integral lemmas
# --------------------------------------------------------------------------


def _mapped_nodes(n: int):
    """Gauss-Legendre nodes mapped from (0, 1) to (0, inf) via
    rho = u / (1 - u); returns (rho, weights including the Jacobian)."""
    u, w = gauss_rule(n, 0.0, 1.0)
    return u / (1.0 - u), w * (1.0 / (1.0 - u) ** 2)


def singular_integral_lemma_check(profile, xi_mags, mode: str,
                                  n_nodes: int = 800) -> IneqReport:
    """Both singular momentum-integral estimates over a |xi| sweep.

    Planar mode, ``profile`` a radial density g(|p|):

      lhs = integral of g / (p0 (1 + phat.xi)) dp
          = 2 pi * integral of g(rho) rho / sqrt(1 + rho^2 (1-|xi|^2)) d rho

    (the angular integral is closed-form), compared against
    rhs1 = (integral p0^2 g dp)^(2/5) / (1-|xi|^2)^(2/5) and
    rhs2 = (integral p0^4 g dp)^(2/5).

    3-momentum mode, ``profile`` a pair (g(r), h(p3)) of separable factors:
    the lhs carries the weight <p3>^3 and reduces to a 2D (r, p3) quadrature
    by the same closed-form angular integral; the rhs moments are 3D. The
    implied constant depends on the p3-line bound, so h must make
    integral of <p3>^(5+delta) h dp3 finite, delta = 1 (else ValueError).

    Returns an IneqReport whose details carry the per-|xi| ratios; ratios are
    reported, not asserted against a constant.
    """
    xi_mags = np.asarray(xi_mags, dtype=float)
    if np.any(xi_mags >= 1.0) or np.any(xi_mags < 0.0):
        raise ValueError("|xi| sweep must lie in [0, 1)")

    if mode not in ("2d", "2.5d"):
        raise ValueError(f"mode must be '2d' or '2.5d', got {mode!r}")
    rho, wr = _mapped_nodes(n_nodes)
    eps2 = 1.0 - xi_mags ** 2
    if mode == "2d":
        gv = np.asarray(profile(rho), dtype=float)
        p0sq = 1.0 + rho ** 2
        mom2 = 2.0 * np.pi * float(np.sum(wr * gv * p0sq * rho))
        mom4 = 2.0 * np.pi * float(np.sum(wr * gv * p0sq ** 2 * rho))
        lhs = 2.0 * np.pi * np.sum(
            wr[None, :] * gv[None, :] * rho[None, :]
            / np.sqrt(1.0 + rho[None, :] ** 2 * eps2[:, None]), axis=1)
    else:
        g, h = profile
        p3, wp = _mapped_nodes(n_nodes // 2)
        gv = np.asarray(g(rho), dtype=float)
        hv = np.asarray(h(p3), dtype=float)     # even extension in p3
        bp3 = 1.0 + p3 ** 2
        line = 2.0 * float(np.sum(wp * hv * bp3 ** 3.0))  # <p3>^(5+delta), delta = 1
        # the mapped quadrature is finite even for divergent integrals, so
        # test integrability of <p3>^(5+delta) h directly: the integrand must
        # decay strictly faster than 1/p3 in the far tail
        big = 1.0e4
        t_r = float(h(big)) * (1.0 + big ** 2) ** 3.0
        t_2r = float(h(2.0 * big)) * (1.0 + (2.0 * big) ** 2) ** 3.0
        if not math.isfinite(line) or (t_r > 0.0 and 2.0 * t_2r >= t_r):
            raise ValueError("profile violates the <p3>^(5+delta) line bound")
        p0sq = 1.0 + rho[:, None] ** 2 + p3[None, :] ** 2
        meas = (wr[:, None] * wp[None, :] * gv[:, None] * hv[None, :]
                * rho[:, None] * 2.0)           # even in p3
        mom2 = 2.0 * np.pi * float(np.sum(meas * p0sq))
        mom4 = 2.0 * np.pi * float(np.sum(meas * p0sq ** 2))
        # loop invariants; den keeps the order (1 + p3^2) + rho^2 e2
        meas_w3 = meas * bp3[None, :] ** 1.5
        rho2 = rho[:, None] ** 2
        lhs = np.empty(len(xi_mags))
        for i, e2 in enumerate(eps2):
            den = np.sqrt(bp3[None, :] + rho2 * e2)
            lhs[i] = 2.0 * np.pi * float(np.sum(meas_w3 / den))
    if not (math.isfinite(mom2) and math.isfinite(mom4)):
        raise ValueError("profile lacks the required p0 moments")

    rhs1 = mom2 ** 0.4 / np.maximum(eps2, 1e-300) ** 0.4
    rhs2 = mom4 ** 0.4
    ratio1 = lhs / rhs1
    ratio2 = lhs / rhs2
    k1 = int(np.argmax(ratio1))
    k2 = int(np.argmax(ratio2))
    worst = max(float(ratio1[k1]), float(ratio2[k2]))
    return IneqReport(
        name=f"singular_lemma.{mode}", n_samples=len(xi_mags),
        max_ratio=worst,
        witness={"xi_mag_collar": float(xi_mags[k1]),
                 "xi_mag_flat": float(xi_mags[k2])},
        passed=math.isfinite(worst),
        details={"ratio_collar": float(ratio1[k1]),
                 "ratio_flat": float(ratio2[k2]),
                 "ratios_collar": ratio1, "ratios_flat": ratio2,
                 "mom2": mom2, "mom4": mom4})


# --------------------------------------------------------------------------
# Interpolation suite
# --------------------------------------------------------------------------


def interpolation_suite(profiles, configs) -> list:
    """Run interpolation_check over a battery; one report per (profile,
    config) combination, named by their indices, with the config as its
    witness. ``configs`` entries are dicts of keyword arguments for
    interpolation_check."""
    return [dataclasses.replace(interpolation_check(density, **cfg),
                                name=f"interpolation.p{pi}.c{ci}", witness=cfg)
            for pi, density in enumerate(profiles)
            for ci, cfg in enumerate(configs)]


# --------------------------------------------------------------------------
# Gronwall-type lemma
# --------------------------------------------------------------------------


def _saturate(M, p: float, T: float, n_grid: int):
    """The saturated g(t) = M(t) (1 + ||g||_{L^p([0,t))}) on n_grid steps of
    [0, T]: (t, M(t), g). The trapezoid discretization of I(t) = integral
    of g^p is marched one step at a time, each step solving its scalar
    fixed point. From the first power that overflows on, g is inf."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    t = np.linspace(0.0, T, n_grid + 1)
    h = T / n_grid
    Mv = np.array([float(M(tk)) for tk in t])
    if np.any(Mv < 0) or np.any(np.diff(Mv) < -1e-12):
        raise ValueError("M must be nonnegative and nondecreasing")
    Ms = Mv.tolist()   # Python floats: float64's bits, twice as fast
    g = [Ms[0]]
    integral = 0.0   # integral of g^p up to t_k
    try:
        for k in range(1, len(Ms)):
            if p == 1.0:
                denom = 1.0 - 0.5 * h * Ms[k]
                if denom <= 0:
                    raise ValueError("grid too coarse for this M (step fixed "
                                     "point not contractive)")
                gk = Ms[k] * (1.0 + integral + 0.5 * h * g[k - 1]) / denom
            else:
                base = integral + 0.5 * h * g[k - 1] ** p
                gk = g[k - 1]
                for _ in range(100):
                    new = Ms[k] * (1.0 + (base + 0.5 * h * gk ** p)
                                   ** (1.0 / p))
                    if abs(new - gk) <= 1e-14 * max(1.0, abs(new)):
                        gk = new
                        break
                    gk = new
            g.append(gk)
            integral += 0.5 * h * (g[k - 1] ** p + gk ** p)
    except OverflowError:   # a float64 power is inf here, and g inf after it
        g += [math.inf] * (len(Ms) - len(g))
    return t, Mv, np.array(g)


def gronwall_check(M, p: float, T: float, n_grid: int = 10_000) -> IneqReport:
    """Saturate g(t) = M(t) (1 + ||g||_{L^p([0,t))}) on a time grid and check
    the closed-form bound g(t) <= 2 M(t) exp(4^p t M(t)^p).

    ``M`` is a callable positive nondecreasing function of t. The saturated
    g is the maximal function satisfying the hypothesis, so the bound
    holding for it implies it for the whole class. ``details["bound"]``
    caps the exponent at 700; past the cap each point is decided in
    logarithms, log g <= log 2M + 4^p t M^p. Where 4^p itself overflows
    (p >= 512), the exponent (4M)^p t is taken from its logarithm. A g
    that overflows float64 raises ValueError naming the first t at which
    it does.
    """
    t, Mv, g = _saturate(M, p, T, n_grid)
    over = np.flatnonzero(np.isinf(g))
    if over.size:
        raise ValueError(f"the saturated g overflows float64 at "
                         f"t = {float(t[over[0]])!r} (p = {p!r}, T = {T!r})")
    try:
        expo = 4.0 ** p * t * Mv ** p
    except OverflowError:       # 4^p past float64 (p >= 512): (4M)^p t
        with np.errstate(divide="ignore", over="ignore"):
            expo = np.exp(p * np.log(4.0 * Mv) + np.log(t))
    bound = 2.0 * Mv * np.exp(np.minimum(expo, 700.0))
    ratio = g / np.maximum(bound, 1e-300)
    cap = expo > 700.0
    ratio[cap] = np.exp(np.log(g[cap]) - np.log(2.0 * Mv[cap]) - expo[cap])
    k = int(np.argmax(ratio))
    monotone = bool(np.all(np.diff(g) >= -1e-12 * np.abs(g[1:])))
    return IneqReport(
        name="gronwall", n_samples=len(t), max_ratio=float(ratio[k]),
        witness={"t": float(t[k])},
        passed=bool(ratio[k] <= 1.0) and monotone,
        details={"t": t, "g": g, "bound": bound, "monotone": monotone})


# --------------------------------------------------------------------------
# Strichartz admissibility
# --------------------------------------------------------------------------


def _as_inv(e) -> Fraction:
    """1/e as an exact Fraction, with 1/inf = 0."""
    if e == math.inf:
        return Fraction(0)
    return 1 / Fraction(e)


def strichartz_admissible(q1, r1, q2, r2):
    """Exact-arithmetic admissibility of wave-equation mixed-norm exponents.

    Inputs are the unprimed exponents (ints, Fractions, or math.inf for the
    r's); Hoelder conjugates are computed internally. The conditions are

      1/q1 + 2/r1 = 1/q2' + 2/r2' - 2          (scaling identity)
      1/q1 < 1/2 - 1/r1
      3/2 - 1/r2' < 1/q2'
      1/3 <= 1/r1 + 1/r2 < 1/2
      1 <= q1, q2 < inf,   2 <= r1, r2 <= inf.

    The strict upper bound 1/r1 + 1/r2 < 1/2 never fails alone: with q1
    and q2 finite the scaling identity gives 1/q1 + 1/q2 = 1 - 2 (1/r1 +
    1/r2) > 0. Returns (bool, violated-condition names).
    """
    violated = []
    for name, q in (("q1_range", q1), ("q2_range", q2)):
        if q == math.inf or not (Fraction(q) >= 1):
            violated.append(name)
    for name, r in (("r1_range", r1), ("r2_range", r2)):
        if r != math.inf and not (Fraction(r) >= 2):
            violated.append(name)
    if violated:
        return False, violated

    iq1, ir1 = _as_inv(q1), _as_inv(r1)
    iq2, ir2 = _as_inv(q2), _as_inv(r2)
    iq2p = 1 - iq2
    ir2p = 1 - ir2
    if iq1 + 2 * ir1 != iq2p + 2 * ir2p - 2:
        violated.append("scaling_identity")
    if not (iq1 < Fraction(1, 2) - ir1):
        violated.append("q1_strict")
    if not (Fraction(3, 2) - ir2p < iq2p):
        violated.append("q2_strict")
    if not (Fraction(1, 3) <= ir1 + ir2):
        violated.append("r_sum_lower")
    if not (ir1 + ir2 < Fraction(1, 2)):
        violated.append("r_sum_upper")
    return not violated, violated
