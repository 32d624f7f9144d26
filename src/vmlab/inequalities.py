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

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .maxwell import flux_identity_lhs, good_component_sq
from .phase import embed3, interpolation_check, p0_of, unit_direction
from .retarded import RetardedQuadrature, box_inverse

__all__ = [
    "IneqReport",
    "SamplerConfig",
    "sample_momenta_xi",
    "flux_identity_check",
    "flux_identity_suite",
    "geometry_bounds_check",
    "singular_integral_lemma_check",
    "interpolation_suite",
    "gronwall_check",
    "strichartz_admissible",
    "strichartz_empirical",
    "cone_split_check",
]


@dataclass
class IneqReport:
    """Outcome of one inequality/identity check.

    ``max_ratio`` is sup over samples of lhs/rhs (or the max residual for an
    identity); ``witness`` reproduces it; ``passed`` means the hard bound
    held (for identity/explicit-constant checks) or the ratio is finite."""

    name: str
    n_samples: int
    max_ratio: float
    witness: object
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, (list, tuple)):
                return [clean(u) for u in v]
            if isinstance(v, dict):
                return {k: clean(u) for k, u in v.items()}
            return v
        return {"name": self.name, "n_samples": self.n_samples,
                "max_ratio": clean(self.max_ratio),
                "witness": clean(self.witness), "passed": bool(self.passed),
                "details": clean(self.details)}


@dataclass(frozen=True)
class SamplerConfig:
    """Random sampling plan with toggles for the singular stress regimes."""

    seed: int = 0
    count: int = 100_000
    stress_xi: bool = True          # |xi| -> 1 (cone-boundary collar)
    stress_phat: bool = True        # |phat| -> 1 (large momenta)
    stress_collision: bool = True   # 1 + phat.xi -> 0 (kernel singularity)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


def sample_momenta_xi(cfg: SamplerConfig, d_p: int = 3):
    """Random (p, xi) with heavy momentum tails and the stress regimes mixed
    in: a slice with |phat| > 1 - 1e-6, a slice with |xi| > 1 - 1e-6, and a
    slice with xi nearly antiparallel to phat."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.count
    mag = np.exp(rng.uniform(-3.0, 9.0, n))
    if cfg.stress_phat:
        k = n // 8
        mag[:k] = np.exp(rng.uniform(7.0, 20.0, k))   # |phat| > 1 - 1e-6
    direc = rng.standard_normal((n, d_p))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    p = mag[:, None] * direc

    u = rng.random(n)
    xi_mag = np.sqrt(u)
    if cfg.stress_xi:
        k = n // 8
        xi_mag[-k:] = 1.0 - np.exp(rng.uniform(math.log(1e-9), math.log(1e-6), k))
    phi = rng.random(n) * 2.0 * np.pi
    xi = xi_mag[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    if cfg.stress_collision:
        k = n // 8
        sl = slice(n // 2, n // 2 + k)
        ph = p[sl, :2]
        nrm = np.maximum(np.linalg.norm(ph, axis=1, keepdims=True), 1e-300)
        xi[sl] = -(ph / nrm) * xi_mag[sl, None]
    return p, xi


# --------------------------------------------------------------------------
# Flux identity
# --------------------------------------------------------------------------


def flux_identity_check(E, B, omega) -> float:
    """Normalized residual of the energy-flux identity

      1/2 (|E|^2 + |B|^2) + omega.(E x B)
        = 1/4 (|E.w|^2 + |B.w|^2 + |E - w x B|^2 + |B + w x E|^2)

    for a unit in-plane omega. Vectorized over leading axes; returns the max
    of |lhs - rhs| / (1 + |E|^2 + |B|^2).
    """
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    omega = np.asarray(omega, dtype=float)
    nrm = np.sqrt(np.sum(omega[..., :2] ** 2, axis=-1))
    if np.any(np.abs(nrm - 1.0) > 1e-9):
        raise ValueError("omega must be a unit vector")
    lhs = flux_identity_lhs(E, B, omega)
    rhs = 0.25 * good_component_sq(E, B, omega, "2.5d")
    scale = 1.0 + np.sum(E * E + B * B, axis=-1)
    return float(np.max(np.abs(lhs - rhs) / scale))


def flux_identity_suite(cfg: SamplerConfig) -> IneqReport:
    """Residuals of the flux identity (and its planar reduction, which halves
    the component list) over random triples including planar-ansatz ones."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.count
    E = rng.standard_normal((n, 3)) * np.exp(rng.uniform(-3, 6, (n, 1)))
    B = rng.standard_normal((n, 3)) * np.exp(rng.uniform(-3, 6, (n, 1)))
    # planar-ansatz subset: E in-plane, B out-of-plane
    k = n // 3
    E[:k, 2] = 0.0
    B[:k, :2] = 0.0
    phi = rng.random(n) * 2.0 * np.pi
    om = np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    res = flux_identity_check(E, B, om)
    # planar reduction on the ansatz subset
    lhs = flux_identity_lhs(E[:k], B[:k], om[:k])
    rhs2 = 0.25 * good_component_sq(E[:k], B[:k], om[:k], "2d")
    scale = 1.0 + np.sum(E[:k] ** 2 + B[:k] ** 2, axis=-1)
    res2 = float(np.max(np.abs(lhs - rhs2) / scale))
    worst = max(res, res2)
    return IneqReport(name="flux_identity", n_samples=n, max_ratio=worst,
                      witness=None, passed=worst < 1e-12,
                      details={"full": res, "planar_reduction": res2})


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


def geometry_bounds_check(cfg: SamplerConfig, d_p: int = 3) -> dict:
    """The six light-cone geometry bounds with their explicit constants,
    for omega = xi/|xi| (arbitrary unit direction when xi = 0):

      |xi + phat|        <= sqrt(2) (1 + phat.xi)^(1/2)
      |phat x omega|     <= sqrt(2) (1 + phat.xi)^(1/2)
      |xi - omega|        = 1 - |xi| <= 1 + phat.xi
      1 + phat.omega     <= 4 (1 + phat.xi)
      1/p0               <= sqrt(2) (1 + phat.xi)^(1/2)
      |xi_k (phat.xi) - phat_k| <= sqrt(8) (1 + phat.xi)^(1/2),  k = 1, 2.

    Returns {name: IneqReport}; ``max_ratio`` is lhs / (constant * rhs), so
    every bound holds iff every max_ratio <= 1.
    """
    p, xi = sample_momenta_xi(cfg, d_p=d_p)
    p0 = p0_of(p)
    phat = embed3(p) / p0[:, None]
    xi_mag = np.sqrt(np.sum(xi * xi, axis=1))
    om3 = embed3(unit_direction(xi, xi_mag))
    kappa = phat[:, 0] * xi[:, 0] + phat[:, 1] * xi[:, 1]
    one = 1.0 + kappa
    half = np.sqrt(one)

    xi3 = embed3(xi)
    checks = {
        "xi_plus_phat": (np.linalg.norm(xi3 + phat, axis=1), half),
        "phat_cross_omega": (np.linalg.norm(np.cross(phat, om3), axis=1), half),
        "xi_minus_omega": (1.0 - xi_mag, one),
        "one_plus_phat_omega": (1.0 + np.sum(phat * om3, axis=1), one),
        "inv_p0": (1.0 / p0, half),
        "xik_kappa_minus_phatk": (
            np.abs(xi * kappa[:, None] - phat[:, :2]).max(axis=1), half),
    }
    out = {}
    for name, (lhs, rhs) in checks.items():
        c = _GEOMETRY_CONSTANTS[name]
        ratio = lhs / (c * np.maximum(rhs, 1e-300))
        k = int(np.argmax(ratio))
        out[name] = IneqReport(
            name=f"geometry.{name}", n_samples=p.shape[0],
            max_ratio=float(ratio[k]),
            witness={"p": p[k].copy(), "xi": xi[k].copy()},
            passed=bool(ratio[k] <= 1.0 + 1e-12),
            details={"constant": c})
    return out


# --------------------------------------------------------------------------
# Singular momentum-integral lemmas
# --------------------------------------------------------------------------


def _mapped_nodes(n: int, scale: float = 1.0):
    """Gauss-Legendre nodes mapped from (0, 1) to (0, inf) via
    rho = scale * u / (1 - u); returns (rho, weights including the Jacobian)."""
    u, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    rho = scale * u / (1.0 - u)
    jac = scale / (1.0 - u) ** 2
    return rho, w * jac


def singular_integral_lemma_check(profile, xi_mags, mode: str = "2d",
                                  delta: float = 1.0, n_nodes: int = 800) -> IneqReport:
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
    integral of <p3>^(5+delta) h dp3 finite (checked, error otherwise).

    Returns an IneqReport whose details carry the per-|xi| ratios; ratios are
    reported, not asserted against a constant.
    """
    xi_mags = np.asarray(xi_mags, dtype=float)
    if np.any(xi_mags >= 1.0) or np.any(xi_mags < 0.0):
        raise ValueError("|xi| sweep must lie in [0, 1)")

    if mode == "2d":
        g = profile
        rho, wr = _mapped_nodes(n_nodes)
        gv = np.asarray(g(rho), dtype=float)
        p0sq = 1.0 + rho ** 2
        mom2 = 2.0 * np.pi * float(np.sum(wr * gv * p0sq * rho))
        mom4 = 2.0 * np.pi * float(np.sum(wr * gv * p0sq ** 2 * rho))
        if not (math.isfinite(mom2) and math.isfinite(mom4)):
            raise ValueError("profile lacks the required p0 moments")
        eps2 = 1.0 - xi_mags ** 2
        lhs = 2.0 * np.pi * np.sum(
            wr[None, :] * gv[None, :] * rho[None, :]
            / np.sqrt(1.0 + rho[None, :] ** 2 * eps2[:, None]), axis=1)
    elif mode == "2.5d":
        g, h = profile
        rho, wr = _mapped_nodes(n_nodes)
        p3, wp = _mapped_nodes(n_nodes // 2)
        gv = np.asarray(g(rho), dtype=float)
        hv = np.asarray(h(p3), dtype=float)     # even extension in p3
        bp3 = 1.0 + p3 ** 2
        line = 2.0 * float(np.sum(wp * hv * bp3 ** ((5.0 + delta) / 2.0)))
        # the mapped quadrature is finite even for divergent integrals, so
        # test integrability of <p3>^(5+delta) h directly: the integrand must
        # decay strictly faster than 1/p3 in the far tail
        big = 1.0e4
        t_r = float(h(big)) * (1.0 + big ** 2) ** ((5.0 + delta) / 2.0)
        t_2r = float(h(2.0 * big)) * (1.0 + (2.0 * big) ** 2) ** ((5.0 + delta) / 2.0)
        if not math.isfinite(line) or (t_r > 0.0 and 2.0 * t_2r >= t_r):
            raise ValueError("profile violates the <p3>^(5+delta) line bound")
        p0sq = 1.0 + rho[:, None] ** 2 + p3[None, :] ** 2
        meas = (wr[:, None] * wp[None, :] * gv[:, None] * hv[None, :]
                * rho[:, None] * 2.0)           # even in p3
        mom2 = 2.0 * np.pi * float(np.sum(meas * p0sq))
        mom4 = 2.0 * np.pi * float(np.sum(meas * p0sq ** 2))
        if not (math.isfinite(mom2) and math.isfinite(mom4)):
            raise ValueError("profile lacks the required p0 moments")
        eps2 = 1.0 - xi_mags ** 2
        w3 = bp3[None, :] ** 1.5
        lhs = np.empty(len(xi_mags))
        for i, e2 in enumerate(eps2):
            den = np.sqrt(1.0 + p3[None, :] ** 2 + rho[:, None] ** 2 * e2)
            lhs[i] = 2.0 * np.pi * float(np.sum(meas * w3 / den))
    else:
        raise ValueError(f"mode must be '2d' or '2.5d', got {mode!r}")

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
    config) combination. ``configs`` entries are dicts of keyword arguments
    for interpolation_check."""
    reports = []
    for pi, density in enumerate(profiles):
        for ci, cfg in enumerate(configs):
            rep = interpolation_check(density, **cfg)
            reports.append(IneqReport(
                name=f"interpolation.p{pi}.c{ci}", n_samples=1,
                max_ratio=rep.ratio, witness=cfg,
                passed=math.isfinite(rep.ratio),
                details={"lhs": rep.lhs, "rhs": rep.rhs,
                         "S": rep.S, "M": rep.M, "q": rep.q,
                         "variant": rep.variant}))
    return reports


# --------------------------------------------------------------------------
# Gronwall-type lemma
# --------------------------------------------------------------------------


def gronwall_check(M, p: float, T: float, n_grid: int = 10_000) -> IneqReport:
    """Saturate g(t) = M(t) (1 + ||g||_{L^p([0,t))}) on a time grid and check
    the closed-form bound g(t) <= 2 M(t) exp(4^p t M(t)^p).

    ``M`` is a callable positive nondecreasing function of t. The saturated
    solution is built by marching the trapezoid discretization of
    I(t) = integral of g^p, solving the per-step scalar fixed point. The
    saturated g is the maximal function satisfying the hypothesis, so the
    bound holding for it implies it for the whole class.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    t = np.linspace(0.0, T, n_grid + 1)
    h = T / n_grid
    Mv = np.array([float(M(tk)) for tk in t])
    if np.any(Mv < 0) or np.any(np.diff(Mv) < -1e-12):
        raise ValueError("M must be nonnegative and nondecreasing")
    g = np.empty_like(t)
    g[0] = Mv[0]
    integral = 0.0   # integral of g^p up to t_k
    for k in range(1, len(t)):
        if p == 1.0:
            denom = 1.0 - 0.5 * h * Mv[k]
            if denom <= 0:
                raise ValueError("grid too coarse for this M (step fixed point "
                                 "not contractive)")
            g[k] = Mv[k] * (1.0 + integral + 0.5 * h * g[k - 1]) / denom
        else:
            base = integral + 0.5 * h * g[k - 1] ** p
            gk = g[k - 1]
            for _ in range(100):
                new = Mv[k] * (1.0 + (base + 0.5 * h * gk ** p) ** (1.0 / p))
                if abs(new - gk) <= 1e-14 * max(1.0, abs(new)):
                    gk = new
                    break
                gk = new
            g[k] = gk
        integral += 0.5 * h * (g[k - 1] ** p + g[k] ** p)
    bound = 2.0 * Mv * np.exp(np.minimum(4.0 ** p * t * Mv ** p, 700.0))
    ratio = g / np.maximum(bound, 1e-300)
    k = int(np.argmax(ratio))
    monotone = bool(np.all(np.diff(g) >= -1e-12 * np.abs(g[1:])))
    return IneqReport(
        name="gronwall", n_samples=len(t), max_ratio=float(ratio[k]),
        witness={"t": float(t[k])},
        passed=bool(ratio[k] <= 1.0) and monotone,
        details={"t": t, "g": g, "bound": bound, "monotone": monotone})


# --------------------------------------------------------------------------
# Strichartz admissibility and empirical sampling
# --------------------------------------------------------------------------


def _as_inv(e) -> Fraction:
    """1/e as an exact Fraction, with 1/inf = 0."""
    if e == math.inf:
        return Fraction(0)
    return 1 / Fraction(e)


def strichartz_admissible(q1, r1, q2, r2, drop_redundant_upper: bool = False):
    """Exact-arithmetic admissibility of wave-equation mixed-norm exponents.

    Inputs are the unprimed exponents (ints, Fractions, or math.inf for the
    r's); Hoelder conjugates are computed internally. The conditions are

      1/q1 + 2/r1 = 1/q2' + 2/r2' - 2          (scaling identity)
      1/q1 < 1/2 - 1/r1
      3/2 - 1/r2' < 1/q2'
      1/3 <= 1/r1 + 1/r2 < 1/2
      1 <= q1, q2 < inf,   2 <= r1, r2 <= inf.

    The strict upper bound 1/r1 + 1/r2 < 1/2 is implied by the others;
    ``drop_redundant_upper`` skips it. Returns (bool, violated-condition
    names).
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
    if not drop_redundant_upper and not (ir1 + ir2 < Fraction(1, 2)):
        violated.append("r_sum_upper")
    return not violated, violated


def _cone_mixed_norm(vals: np.ndarray, t_nodes, t_wts, cell: float,
                     q: float, r: float) -> float:
    """||vals||_{L^q_t L^r_x} on a (n_t, n_x) sample with Gauss t-weights."""
    if math.isinf(r):
        inner = np.abs(vals).max(axis=1)
    else:
        inner = (np.sum(np.abs(vals) ** r, axis=1) * cell) ** (1.0 / r)
    if math.isinf(q):
        return float(inner.max())
    return float(np.sum(inner ** q * t_wts) ** (1.0 / q))


def strichartz_empirical(sources, exponents, T: float = 1.0,
                         extent: float = 3.0, nx: int = 128, nt: int = 64,
                         substeps: int = 4) -> IneqReport:
    """Sampled version of the wave-equation mixed-norm estimate

        ||u||_{L^q1_t L^r1_x} <= C ||F||_{L^q2'_t L^r2'_x},

    u the zero-data solution of box u = F. Each source in ``sources`` is
    F(s, y) (y of shape (m, 2), centered coordinates) and must be supported
    within |y| < extent. u is computed with the exact per-mode spectral wave
    solver on a periodic box padded so that nothing wraps around within time
    T; time norms use midpoint Riemann sums on nt samples. This samples the
    inequality on a truncated battery, it does not prove it. Returns the max
    ratio over the battery.
    """
    q1, r1, q2, r2 = exponents
    ok, bad = strichartz_admissible(q1, r1, q2, r2)
    if not ok:
        raise ValueError(f"inadmissible exponents, violated: {bad}")
    q2p = math.inf if q2 == 1 else float(Fraction(q2) / (Fraction(q2) - 1))
    if r2 == math.inf:
        r2p = 1.0
    else:
        r2p = math.inf if r2 == 1 else float(Fraction(r2) / (Fraction(r2) - 1))

    from .maxwell import Grid, SpectralWave
    L = 2.0 * (extent + T)
    grid = Grid(nx=nx, ny=nx, lx=L, ly=L)
    xg, yg = grid.mesh()
    pts = np.stack([xg.ravel() - 0.5 * L, yg.ravel() - 0.5 * L], axis=-1)
    cell = grid.cell
    dt = T / (nt * substeps)
    t_smp = (np.arange(nt) + 1.0) * (T / nt)   # right-edge Riemann samples
    t_wts = np.full(nt, T / nt)

    worst = 0.0
    wit = None
    ratios = []
    for si, F in enumerate(sources):
        wave = SpectralWave(grid, np.zeros((nx, nx)), np.zeros((nx, nx)))
        u = np.empty((nt, pts.shape[0]))
        fv = np.empty((nt, pts.shape[0]))
        tcur = 0.0
        for it in range(nt):
            for _ in range(substeps):
                g_mid = np.asarray(F(tcur + 0.5 * dt, pts),
                                   dtype=float).reshape(nx, nx)
                wave.step(g_mid, dt)
                tcur += dt
            u[it] = wave.u.ravel()
            fv[it] = np.asarray(F(t_smp[it], pts), dtype=float)
        lhs = _cone_mixed_norm(u, t_smp, t_wts, cell, float(q1), float(r1))
        rhs = _cone_mixed_norm(fv, t_smp, t_wts, cell, q2p, r2p)
        ratio = 0.0 if rhs == 0.0 else lhs / rhs
        ratios.append(ratio)
        if ratio > worst:
            worst, wit = ratio, si
    return IneqReport(name="strichartz_empirical", n_samples=len(sources),
                      max_ratio=worst, witness={"source_index": wit},
                      passed=math.isfinite(worst),
                      details={"ratios": ratios,
                               "exponents": [str(e) for e in exponents]})


# --------------------------------------------------------------------------
# Epsilon-split cone inequality (function-sampler form)
# --------------------------------------------------------------------------


def cone_split_check(G, H, F, t: float, x, eps_list,
                     quad: RetardedQuadrature | None = None,
                     hypothesis_samples: int = 2000,
                     hypothesis_constant: float = 1.0,
                     seed: int = 0) -> IneqReport:
    """Check the eps-split bound for the singular cone integral:

    for F(s, y; t, x) <= C G(s, y)^(2/5) / (1-|xi|^2)^(2/5) and
    F <= C H(s, y)^(2/5) on the cone,

      integral of F / ((t-s) sqrt(...))  <=  C' [ eps^(-1/10) (integral of
      G / sqrt(...))^(2/5) + eps^(3/10) (integral of H / sqrt(...))^(2/5) ]

    for every eps in (0, 1]. The hypotheses are sampled first (with the
    given constant); a violation raises with the witness point. G, H are
    samplers (s, y) -> values; F is (s, y, xi_sq) -> values where xi_sq is
    |xi|^2 at those points. Returns the max lhs/rhs ratio over eps_list.
    """
    if quad is None:
        quad = RetardedQuadrature()
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    s = rng.random(hypothesis_samples) * t
    rr = (t - s) * np.sqrt(rng.random(hypothesis_samples))
    phi = rng.random(hypothesis_samples) * 2.0 * np.pi
    y = x[None, :] + rr[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    xi_sq = (rr / np.maximum(t - s, 1e-300)) ** 2
    fv = np.asarray([float(F(sk, yk[None, :], np.array([xk]))[0])
                     for sk, yk, xk in zip(s, y, xi_sq)])
    gv = np.asarray([float(G(sk, yk[None, :])[0]) for sk, yk in zip(s, y)])
    hv = np.asarray([float(H(sk, yk[None, :])[0]) for sk, yk in zip(s, y)])
    tol = hypothesis_constant * (1.0 + 1e-9)
    bad1 = fv > tol * gv ** 0.4 / np.maximum(1.0 - xi_sq, 1e-300) ** 0.4
    bad2 = fv > tol * hv ** 0.4
    if np.any(bad1 & bad2):
        k = int(np.argmax(bad1 & bad2))
        raise ValueError(f"hypothesis violated at s={s[k]}, y={y[k]}")

    def with_measure(extra_inv_ts: bool):
        def integrand(sk, pts):
            d = pts - x[None, :]
            xi2 = np.sum(d * d, axis=1) / max((t - sk) ** 2, 1e-300)
            v = np.asarray(F(sk, pts, xi2), dtype=float)
            if extra_inv_ts:
                v = v / max(t - sk, 1e-300)
            return v
        return integrand

    lhs = box_inverse(with_measure(True), t, x, quad)
    g_int = box_inverse(lambda sk, pts: G(sk, pts), t, x, quad)
    h_int = box_inverse(lambda sk, pts: H(sk, pts), t, x, quad)
    worst = 0.0
    wit = None
    ratios = {}
    for eps in eps_list:
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        rhs = eps ** (-0.1) * g_int ** 0.4 + eps ** 0.3 * h_int ** 0.4
        ratio = 0.0 if rhs == 0.0 else lhs / rhs
        ratios[eps] = ratio
        if ratio > worst:
            worst, wit = ratio, eps
    return IneqReport(name="cone_split", n_samples=len(list(eps_list)),
                      max_ratio=worst, witness={"eps": wit},
                      passed=math.isfinite(worst),
                      details={"lhs": lhs, "g_int": g_int, "h_int": h_int,
                               "ratios": ratios})
