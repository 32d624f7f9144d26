"""Phase-space primitives: momentum kinematics, cone geometry, particle
ensembles and their p0 moments, the record every paper estimate returns,
the moment interpolation check, and ensemble snapshots.

Units are dimensionless with the speed of light c = 1, so the energy of a
momentum p is p0 = sqrt(1 + |p|^2) and the velocity is phat = p / p0 with
|phat| < 1 always.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "ParticleEnsemble",
    "embed3",
    "p0_of",
    "unit_direction",
    "IneqReport",
    "moment",
    "interpolation_check",
    "save_ensemble",
    "load_ensemble",
]


def embed3(v: np.ndarray) -> np.ndarray:
    """Pad (..., 2) vectors with a zero third component; pass (..., 3) through."""
    if v.shape[-1] == 3:
        return v
    out = np.zeros(v.shape[:-1] + (3,))
    out[..., :2] = v
    return out


def p0_of(p: np.ndarray) -> np.ndarray:
    """Energies sqrt(1 + |p|^2) of momenta p (..., d_p).

    |p|^2 is summed one component at a time, in the order of
    ``np.sum(p * p, axis=-1)`` and to the same bits, but without a reduction
    over an axis of length 2 or 3, which is several times slower.
    """
    sq = p[..., 0] * p[..., 0]
    for i in range(1, p.shape[-1]):
        sq += p[..., i] * p[..., i]
    return np.sqrt(1.0 + sq)


# Rows handled at a time by the particle step and the sampled checks. A
# block's temporaries stay in cache and are reused from the allocator's heap,
# where whole-array ones take fresh pages from the OS. Five interleaved
# golden_2d runs per size (2 cores, Python 3.11.7, NumPy 2.4.6) had median
# wall times of 3.95 s at 4,096 rows, 3.70 s at 8,192 and 3.96 s at 16,384,
# each with 25,000 to 35,000 minor page faults (406,000 unblocked). Five
# interleaved in-process ``verify all --count 1000000`` runs per size had
# medians of 0.89 s at 4,096 rows, 0.79 s at 8,192, 0.83 s at 16,384,
# 0.82 s at 65,536 and 1.22 s unblocked.
_BLOCK = 8192


def _blocks(n: int) -> list:
    """Slices of ``_BLOCK`` rows covering ``range(n)``."""
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


# --------------------------------------------------------------------------
# Light-cone geometry
# --------------------------------------------------------------------------


def unit_direction(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unit directions d / r of in-plane offsets d (..., 2) with lengths r
    (...), and e_1 where r = 0 (on the cone axis); by columns, which is
    faster than a broadcast over the length-2 inner axis."""
    on, rr = r > 0, np.maximum(r, 1e-300)
    return np.stack([np.where(on, d[..., 0] / rr, 1.0),
                     np.where(on, d[..., 1] / rr, 0.0)], axis=-1)


# --------------------------------------------------------------------------
# Particle ensembles
# --------------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """Weighted macro-particles sampling f(t, x, p).

    x:   (n, 2) positions inside the periodic box [0, box[0]) x [0, box[1])
    p:   (n, dim_p) momenta, dim_p 2 (planar) or 3
    w:   (n,) strictly positive weights; sum(w) approximates the total mass
         of f (integral over x and p)

    An ensemble is not modified after construction: the energies ``p0`` are
    computed once, on first use.
    """

    x: np.ndarray
    p: np.ndarray
    w: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        self.w = np.asarray(self.w, dtype=float).ravel()
        self.box = np.asarray(self.box, dtype=float).ravel()
        n = self.x.shape[0]
        if self.x.shape != (n, 2):
            raise ValueError(f"positions must have shape (n, 2), got {self.x.shape}")
        if self.p.shape not in ((n, 2), (n, 3)):
            raise ValueError(f"momenta must have shape (n, 2) or (n, 3), "
                             f"got {self.p.shape}")
        if self.w.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {self.w.shape}")
        if n and not np.all(self.w > 0):
            raise ValueError("all particle weights must be strictly positive")
        if self.box.shape != (2,) or not np.all(self.box > 0):
            raise ValueError(f"box extents must be two positive reals, got {self.box}")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim_p(self) -> int:
        return self.p.shape[1]

    @cached_property
    def p0(self) -> np.ndarray:
        return p0_of(self.p)


def moment(ens: ParticleEnsemble, N: float) -> float:
    """Particle estimate of || p0^N f ||_{L1_x L1_p} = sum_i w_i p0_i^N.

    Raises FloatingPointError, naming the order, if the sum overflows.
    """
    with np.errstate(over="ignore"):
        out = float(np.sum(ens.w * ens.p0 ** N))
    if not math.isfinite(out):
        raise FloatingPointError(f"moment of order N={N:g} is not finite")
    return out


# --------------------------------------------------------------------------
# Estimate records and the interpolation inequality check
# --------------------------------------------------------------------------


@dataclass
class IneqReport:
    """Outcome of one inequality/identity check, the record ``verify`` prints.

    ``max_ratio`` is sup over samples of lhs/rhs (or the max residual for an
    identity); ``witness`` reproduces it, in JSON values; ``passed`` means
    the hard bound held (for identity/explicit-constant checks) or the ratio
    is finite. ``to_dict`` leaves ``details`` out."""

    name: str
    n_samples: int
    max_ratio: float
    witness: object
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "n_samples": self.n_samples,
                "max_ratio": self.max_ratio, "witness": self.witness,
                "passed": bool(self.passed)}


def _p_grid(d_p: int, p_max: float, n: int):
    """Midpoint momentum grid over [-p_max, p_max]^d_p; returns (points, cell)."""
    edges = np.linspace(-p_max, p_max, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    cell = (mids[1] - mids[0]) ** d_p
    grids = np.meshgrid(*([mids] * d_p), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=-1)
    return pts, cell


def interpolation_check(density, S: float, M: float, q: float,
                        d_p: int) -> IneqReport:
    """Numerically evaluate both sides of the p0-moment interpolation inequality

      || p0^S g ||_{Lq_x L1_p}
        <= C || p0^M g ||_{L^{q(S+d_p)/(M+d_p)}_x L1_p}^{(S+d_p)/(M+d_p)}

    for 1 <= q < inf, M >= S > -d_p.

    ``density`` is a callable g(x, p) accepting x of shape (m, 2) and p of
    shape (k, d_p) and returning nonnegative values of shape (m, k). Both
    sides are midpoint sums over 24 x 24 points of [-4, 4]^2 in x and 48
    points per axis of [-8, 8]^d_p in p.

    Returns an IneqReport named "interpolation" whose ``max_ratio`` is
    lhs / rhs (0 when both vanish).
    """
    if not (M >= S):
        raise ValueError(f"need M >= S, got S={S}, M={M}")
    if not (S > -d_p):
        raise ValueError(f"need S > -d_p = {-d_p}, got S={S}")
    if not (1.0 <= q < math.inf):
        raise ValueError(f"need 1 <= q < inf, got q={q}")
    beta = (S + d_p) / (M + d_p)
    q_rhs = q * beta

    # midpoint grids
    xe = np.linspace(-4.0, 4.0, 24 + 1)
    xm = 0.5 * (xe[:-1] + xe[1:])
    hx = xm[1] - xm[0]
    xg = np.stack([a.ravel() for a in np.meshgrid(xm, xm, indexing="ij")], axis=-1)
    pts, p_cell = _p_grid(d_p, 8.0, 48)
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
    return IneqReport(name="interpolation", n_samples=1, max_ratio=ratio,
                      witness=dict(S=S, M=M, q=q, d_p=d_p),
                      passed=math.isfinite(ratio))


# --------------------------------------------------------------------------
# Ensemble snapshots
# --------------------------------------------------------------------------
#
# Snapshot format (documented byte-exact):
#   line 1: "# dim_p=<d> box=<bx>,<by>"   with repr() floats
#   line 2: header "x1,x2,p1,...,p<d>,w"
#   rows:   one particle per row, fields via repr() (shortest round-trip)
# Newlines are "\n"; encoding is ASCII.

_SAVE_BLOCK = 4096  # rows formatted at a time


def save_ensemble(ens: ParticleEnsemble, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# dim_p={ens.dim_p} "
                 f"box={float(ens.box[0])!r},{float(ens.box[1])!r}\n")
        fh.write(",".join(["x1", "x2"] + [f"p{i+1}" for i in range(ens.dim_p)]
                          + ["w"]) + "\n")
        # a block at a time: as Python floats, every row at once would hold
        # about 250 bytes per row (25 MB for 100k particles); each block is
        # one % of its rows' "%r,...,%r\n" lines, and %r of a float is repr
        line = ",".join(["%r"] * (3 + ens.dim_p)) + "\n"
        for i in range(0, len(ens), _SAVE_BLOCK):
            rows = slice(i, i + _SAVE_BLOCK)
            block = np.column_stack([ens.x[rows], ens.p[rows], ens.w[rows]])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
    return ParticleEnsemble(x=arr[:, :2], p=arr[:, 2:2 + dim_p],
                            w=arr[:, 2 + dim_p], box=np.asarray(box))
