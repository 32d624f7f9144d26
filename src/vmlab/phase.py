"""Phase-space primitives: momentum kinematics, weights, cone geometry,
particle ensembles, moments and mixed Lebesgue norms.

Units are dimensionless with the speed of light c = 1, so the energy of a
momentum p is p0 = sqrt(1 + |p|^2) and the velocity is phat = p / p0 with
|phat| < 1 always.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Momentum",
    "ParticleEnsemble",
    "embed3",
    "p0_of",
    "unit_direction",
    "ConeGeometry",
    "MomentSpec",
    "NormSpec",
    "InterpolationReport",
    "momentum_derived",
    "weight_w",
    "cone_coords",
    "momentum_cone_angle",
    "moment",
    "mixed_norm",
    "interpolation_check",
    "save_ensemble",
    "load_ensemble",
]


@dataclass(frozen=True)
class Momentum:
    """Momentum vector with derived energy and velocity.

    p:    (d_p,) momentum components, d_p in {2, 3}
    p0:   energy sqrt(1 + |p|^2) >= 1
    phat: velocity p / p0, |phat| < 1
    """

    p: np.ndarray
    p0: float
    phat: np.ndarray

    @property
    def dim(self) -> int:
        return self.p.shape[-1]


def embed3(v: np.ndarray) -> np.ndarray:
    """Pad (..., 2) vectors with a zero third component; pass (..., 3) through."""
    if v.shape[-1] == 3:
        return v
    out = np.zeros(v.shape[:-1] + (3,))
    out[..., :2] = v
    return out


def p0_of(p: np.ndarray) -> np.ndarray:
    """Energies sqrt(1 + |p|^2) of momenta p (..., d_p)."""
    return np.sqrt(1.0 + np.sum(p * p, axis=-1))


def momentum_derived(p) -> Momentum:
    """Build a Momentum from raw components, computing p0 and phat."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] not in (2, 3):
        raise ValueError(f"momentum must be a 2- or 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"non-finite momentum components: {p}")
    p0 = math.sqrt(1.0 + float(p @ p))
    return Momentum(p=p, p0=p0, phat=p / p0)


def weight_w(mom: Momentum, d_p: int | None = None) -> float:
    """Momentum weight p0^(d_p/2) * log(1 + p0).

    Equals log 2 at p = 0 and is strictly positive everywhere.
    """
    if d_p is None:
        d_p = mom.dim
    if d_p not in (2, 3):
        raise ValueError(f"d_p must be 2 or 3, got {d_p}")
    return mom.p0 ** (d_p / 2.0) * math.log1p(mom.p0)


# --------------------------------------------------------------------------
# Light-cone geometry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeGeometry:
    """Backward-cone variables at a spacetime pair ((t, x), (s, y)).

    xi:              (y - x) / (t - s), |xi| <= 1
    omega:           unit direction (y - x)/|y - x| (e_1 on the cone axis)
    psi:             null coordinate (t - s - |y - x|) / 2 >= 0
    one_minus_xi_sq: 1 - |xi|^2, equal to 4 psi (t - s - psi) / (t - s)^2
    theta:           polar angle of omega in (-pi, pi]
    """

    xi: np.ndarray
    omega: np.ndarray
    psi: float
    one_minus_xi_sq: float
    theta: float


def cone_coords(t: float, s: float, x, y) -> ConeGeometry:
    """Cone variables for the point (s, y) inside the backward cone of (t, x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (0.0 <= s < t):
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    dt = t - s
    d = y - x
    r = float(np.hypot(d[0], d[1]))
    if r > dt * (1.0 + 1e-12):
        raise ValueError(f"point outside the backward cone: |y-x|={r} > t-s={dt}")
    r = min(r, dt)
    xi = d / dt
    omega = unit_direction(d, np.asarray(r))
    psi = 0.5 * (dt - r)
    one_minus_xi_sq = max(0.0, 1.0 - float(xi @ xi))
    theta = math.atan2(omega[1], omega[0])
    return ConeGeometry(xi=xi, omega=omega, psi=psi,
                        one_minus_xi_sq=one_minus_xi_sq, theta=theta)


def unit_direction(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unit directions d / r of in-plane offsets d (..., 2) with lengths r
    (...), and e_1 where r = 0 (on the cone axis)."""
    return np.where(r[..., None] > 0, d / np.maximum(r, 1e-300)[..., None],
                    np.array([1.0, 0.0]))


def momentum_cone_angle(phat, xi) -> float:
    """Angle theta in (-pi, pi] between phat and the inward direction -xi,
    defined by -phat . xi = |phat| |xi| cos(theta).

    Used by the singular momentum-integral estimates; zero when either
    vector vanishes.
    """
    phat = np.asarray(phat, dtype=float)[:2]
    xi = np.asarray(xi, dtype=float)
    a = float(np.hypot(phat[0], phat[1]))
    b = float(np.hypot(xi[0], xi[1]))
    if a == 0.0 or b == 0.0:
        return 0.0
    c = float(-phat @ xi) / (a * b)
    return math.acos(min(1.0, max(-1.0, c)))


# --------------------------------------------------------------------------
# Particle ensembles
# --------------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """Weighted macro-particles sampling f(t, x, p).

    x:   (n, 2) positions inside the periodic box [0, box[0]) x [0, box[1])
    p:   (n, dim_p) momenta
    w:   (n,) strictly positive weights; sum(w) approximates the total mass
         of f (integral over x and p)
    """

    dim_p: int
    x: np.ndarray
    p: np.ndarray
    w: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        self.w = np.asarray(self.w, dtype=float).ravel()
        self.box = np.asarray(self.box, dtype=float).ravel()
        if self.dim_p not in (2, 3):
            raise ValueError(f"dim_p must be 2 or 3, got {self.dim_p}")
        n = self.x.shape[0]
        if self.x.shape != (n, 2):
            raise ValueError(f"positions must have shape (n, 2), got {self.x.shape}")
        if self.p.shape != (n, self.dim_p):
            raise ValueError(
                f"momenta must have shape (n, {self.dim_p}), got {self.p.shape}")
        if self.w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {self.w.shape}")
        if n and not np.all(self.w > 0):
            raise ValueError("all particle weights must be strictly positive")
        if self.box.shape != (2,) or not np.all(self.box > 0):
            raise ValueError(f"box extents must be two positive reals, got {self.box}")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def p0(self) -> np.ndarray:
        return p0_of(self.p)

    @property
    def phat(self) -> np.ndarray:
        return self.p / self.p0[:, None]


def moment(ens: ParticleEnsemble, spec: "MomentSpec") -> float:
    """Particle estimate of || p0^N f ||_{L1_x L1_p} = sum_i w_i p0_i^N."""
    if spec.d_p != ens.dim_p:
        raise ValueError(f"spec d_p={spec.d_p} does not match ensemble dim_p={ens.dim_p}")
    if len(ens) == 0:
        return 0.0
    with np.errstate(over="raise"):
        try:
            vals = ens.p0 ** spec.N
            out = float(np.sum(ens.w * vals))
        except FloatingPointError as exc:
            raise OverflowError(
                f"moment of order N={spec.N} overflows for this ensemble") from exc
    if not math.isfinite(out):
        raise OverflowError(f"moment of order N={spec.N} is not finite")
    return out


@dataclass(frozen=True)
class MomentSpec:
    """Order N >= 0 of the momentum moment p0^N, with momentum dimension d_p."""

    N: float
    d_p: int

    def __post_init__(self):
        if not (math.isfinite(self.N) and self.N >= 0):
            raise ValueError(f"moment order must be finite and nonnegative, got {self.N}")
        if self.d_p not in (2, 3):
            raise ValueError(f"d_p must be 2 or 3, got {self.d_p}")


# --------------------------------------------------------------------------
# Mixed norms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NormSpec:
    """Exponents (s, q, r) of the mixed norm L^s_t L^q_x L^r_p.

    Each exponent is a real >= 1 or math.inf (computed as a discrete max).
    """

    s: float = 1.0
    q: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        for name, e in (("s", self.s), ("q", self.q), ("r", self.r)):
            if not (e >= 1.0):
                raise ValueError(f"exponent {name} must be >= 1 or inf, got {e}")


def _lp_reduce(g: np.ndarray, axes: tuple, exponent: float, cell: float) -> np.ndarray:
    """Discrete L^p norm over the given axes with constant cell measure."""
    if not axes:
        return g
    g = np.abs(g)
    if math.isinf(exponent):
        return g.max(axis=axes)
    return (np.sum(g ** exponent, axis=axes) * cell) ** (1.0 / exponent)


def mixed_norm(g, spec: NormSpec, dt: float | None = None,
               dx=None, dp=None) -> float:
    """Nested discrete Lebesgue norm of a gridded scalar.

    The array axes are ordered (t, x..., p...): the leading axis is time when
    ``dt`` is given, the next ``len(dx)`` axes are space, and the trailing
    ``len(dp)`` axes are momentum. Cell measures are the grid spacings
    (midpoint Riemann sums); infinite exponents become discrete maxima.
    """
    g = np.asarray(g, dtype=float)
    nt = 1 if dt is not None else 0
    nx = len(dx) if dx is not None else 0
    npp = len(dp) if dp is not None else 0
    if g.ndim != nt + nx + npp:
        raise ValueError(
            f"grid has {g.ndim} axes but spacings describe {nt + nx + npp}")
    # innermost: momentum
    if npp:
        axes = tuple(range(nt + nx, nt + nx + npp))
        g = _lp_reduce(g, axes, spec.r, float(np.prod(np.asarray(dp, dtype=float))))
    if nx:
        axes = tuple(range(nt, nt + nx))
        g = _lp_reduce(g, axes, spec.q, float(np.prod(np.asarray(dx, dtype=float))))
    if nt:
        g = _lp_reduce(g, (0,), spec.s, float(dt))
    return float(g)


# --------------------------------------------------------------------------
# Interpolation inequality check
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationReport:
    lhs: float
    rhs: float
    ratio: float
    S: float
    M: float
    q: float
    d_p: int
    variant: str


def _p_grid(d_p: int, p_max: float, n: int):
    """Midpoint momentum grid over [-p_max, p_max]^d_p; returns (points, cell)."""
    edges = np.linspace(-p_max, p_max, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    cell = (mids[1] - mids[0]) ** d_p
    grids = np.meshgrid(*([mids] * d_p), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=-1)
    return pts, cell


def interpolation_check(density, S: float, M: float, q: float, d_p: int,
                        x_extent: float = 4.0, p_max: float = 8.0,
                        nx: int = 24, n_p: int = 48,
                        delta: float | None = None,
                        variant: str = "general") -> InterpolationReport:
    """Numerically evaluate both sides of a p0-moment interpolation inequality.

    ``density`` is a callable g(x, p) accepting x of shape (m, 2) and p of
    shape (k, d_p) and returning nonnegative values of shape (m, k).

    variant "general":   || p0^S g ||_{Lq_x L1_p}
                         <= C || p0^M g ||_{L^{q(S+d_p)/(M+d_p)}_x L1_p}^{(S+d_p)/(M+d_p)}
                         for 1 <= q < inf, M >= S > -d_p.
    variant "linebound": the d_p = 3 strengthening with exponents
                         (S+2)/(M+2) and q = (M+2)/(S+2), valid when
                         min(M, 5+delta) >= S > -2 and the p3-line integrals
                         of g <p3>^{5+delta} are uniformly bounded.

    Returns the two sides and their ratio (defined as 0 when both vanish).
    """
    if variant not in ("general", "linebound"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "general":
        if not (M >= S):
            raise ValueError(f"need M >= S, got S={S}, M={M}")
        if not (S > -d_p):
            raise ValueError(f"need S > -d_p = {-d_p}, got S={S}")
        if not (1.0 <= q < math.inf):
            raise ValueError(f"need 1 <= q < inf, got q={q}")
        beta = (S + d_p) / (M + d_p)
        q_rhs = q * beta
    else:
        if d_p != 3:
            raise ValueError("linebound variant requires d_p = 3")
        if delta is None:
            raise ValueError("linebound variant requires delta")
        if not (min(M, 5.0 + delta) >= S):
            raise ValueError(f"need min(M, 5+delta) >= S, got S={S}, M={M}, delta={delta}")
        if not (S > -2.0):
            raise ValueError(f"need S > -2, got S={S}")
        beta = (S + 2.0) / (M + 2.0)
        q = (M + 2.0) / (S + 2.0)
        q_rhs = 1.0

    # midpoint grids
    xe = np.linspace(-x_extent, x_extent, nx + 1)
    xm = 0.5 * (xe[:-1] + xe[1:])
    hx = xm[1] - xm[0]
    xg = np.stack([a.ravel() for a in np.meshgrid(xm, xm, indexing="ij")], axis=-1)
    pts, p_cell = _p_grid(d_p, p_max, n_p)
    p0 = p0_of(pts)

    lhs_x = np.empty(xg.shape[0])
    rhs_x = np.empty(xg.shape[0])
    chunk = max(1, 2 * 10**6 // pts.shape[0])
    for i0 in range(0, xg.shape[0], chunk):
        vals = np.asarray(density(xg[i0:i0 + chunk], pts), dtype=float)
        lhs_x[i0:i0 + chunk] = np.sum(vals * p0 ** S, axis=1) * p_cell
        rhs_x[i0:i0 + chunk] = np.sum(vals * p0 ** M, axis=1) * p_cell

    lhs = float(np.sum(lhs_x ** q) * hx * hx) ** (1.0 / q)
    rhs_norm = float(np.sum(rhs_x ** q_rhs) * hx * hx) ** (1.0 / q_rhs)
    rhs = rhs_norm ** beta
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return InterpolationReport(lhs=lhs, rhs=rhs, ratio=ratio, S=S, M=M, q=q,
                               d_p=d_p, variant=variant)


# --------------------------------------------------------------------------
# Ensemble snapshots
# --------------------------------------------------------------------------
#
# Snapshot format (documented byte-exact):
#   line 1: "# dim_p=<d> box=<bx>,<by>"   with repr() floats
#   line 2: header "x1,x2,p1,...,p<d>,w"
#   rows:   one particle per row, fields via repr() (shortest round-trip)
# Newlines are "\n"; encoding is ASCII.


def save_ensemble(ens: ParticleEnsemble, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# dim_p={ens.dim_p} "
                 f"box={float(ens.box[0])!r},{float(ens.box[1])!r}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2"] + [f"p{i+1}" for i in range(ens.dim_p)] + ["w"])
        for i in range(len(ens)):
            row = [repr(float(v)) for v in ens.x[i]]
            row += [repr(float(v)) for v in ens.p[i]]
            row.append(repr(float(ens.w[i])))
            writer.writerow(row)


def load_ensemble(path) -> ParticleEnsemble:
    with open(path, newline="") as fh:
        head = fh.readline().strip()
        if not head.startswith("# dim_p="):
            raise ValueError(f"{path}: missing ensemble snapshot header")
        fields = dict(tok.split("=", 1) for tok in head[2:].split())
        dim_p = int(fields["dim_p"])
        box = [float(v) for v in fields["box"].split(",")]
        reader = csv.reader(fh)
        next(reader)  # column header
        rows = [[float(v) for v in row] for row in reader if row]
    if rows:
        arr = np.asarray(rows)
    else:
        arr = np.zeros((0, 3 + dim_p))
    return ParticleEnsemble(dim_p=dim_p, x=arr[:, :2], p=arr[:, 2:2 + dim_p],
                            w=arr[:, 2 + dim_p], box=np.asarray(box))
