"""Particle-in-cell engine coupling the characteristic push to the grid
Maxwell solver, with conservation / monitoring diagnostics.

One step advances (ensemble, fields) from t to t + dt with a Strang split:
half Maxwell step with the current at t, full Boris particle step using the
time-centered fields, half Maxwell step with the current at t + dt. Charge
and current are deposited with a cloud-in-cell (CIC) kernel; the same kernel
gathers fields at particle positions in planar-momentum mode. In 3-momentum
mode the out-of-plane physics uses quadratic-spline (TSC) interpolation, and
the in-plane magnetic force is the analytic gradient of the TSC interpolant
of the gauge potential A3 — so the continuum cancellation
(phat x B)_3 = -phat . grad A3 holds at the interpolant level and the
invariant V3 + A3 drifts only through the time discretization. One
function, ``_stencil``, builds both shapes into caller buffers: the CIC
deposit and gather, and the TSC gathers with their derivative weights.

The particle half of a step (gather, push, wrap) and the deposit's stencil
run ``phase._BLOCK`` particles at a time, so no step allocates
whole-ensemble temporaries; the deposit writes its stencil into node-major
(4, n) buffers that a run allocates once (``deposit_work``) and sums each
grid array with one ``bincount`` over all of them. Every operation is
elementwise within a block, so the block size changes no bit of any result.
A run's positions and momenta are column-ordered after the first step, so
each block's columns are contiguous for the push, the stencil and the wrap.

Everything is deterministic for a fixed (config, seed): sampling uses a
seeded generator, reductions have fixed order.
"""

from __future__ import annotations

import json
import math
import sys
import zipfile
import zlib
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import characteristics as chars
from . import maxwell as mx
from . import phase
from .phase import ParticleEnsemble, moment

__all__ = [
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "finite_number",
    "sample_ensemble",
    "deposit_work",
    "deposit",
    "gather_cic",
    "gather_tsc",
    "wrap_box",
    "make_field_sampler",
    "DiagnosticSeries",
    "RunHistory",
    "RunResult",
    "run",
    "conservation_report",
    "moment_inequality_monitor",
]


# --------------------------------------------------------------------------
# Scenario configuration
# --------------------------------------------------------------------------

def finite_number(v) -> bool:
    """An int or float, not a bool, within float range: a number in a JSON
    input. An integer beyond float range is out of range; nothing raises."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_COUNT = (lambda v: _int(v) and v >= 0, "a nonnegative integer")
_POSITIVE_INT = (lambda v: _int(v) and v > 0, "a positive integer")
_POSITIVE = (lambda v: finite_number(v) and v > 0,
             "a positive finite number")
_FINITE = (finite_number, "a finite number")
_FLAG = (lambda v: isinstance(v, bool), "true or false")

# (check, requirement) for each scenario value, by key path; every f0 and
# fields0 member is optional, and these are all the members they may have
_RULES = {
    "grid_n": (lambda v: _int(v) and v > 0 and finite_number(v),
               "a positive integer within float range"),
    "diagnostic_every": _POSITIVE_INT,
    "n_particles": _COUNT, "seed": _COUNT, "n_tracers": _COUNT,
    "box": _POSITIVE, "dt": _POSITIVE, "t_final": _POSITIVE, "delta": _POSITIVE,
    "gauss_correction": _FLAG, "store_history": _FLAG,
    "moment_orders": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                      and all(finite_number(N) and N >= 0 for N in v),
                      "a nonempty list of nonnegative numbers"),
    "f0.sigma_x": _POSITIVE, "f0.p3_nu": _POSITIVE, "f0.mass": _POSITIVE,
    "f0.alpha": (lambda v: finite_number(v) and v > 2.0,
                 "a finite number above 2 for a normalizable profile"),
    "f0.beams": (lambda v: isinstance(v, list) and len(v) > 0
                 and all(isinstance(b, list) and len(b) == 2
                         and all(map(finite_number, b)) for b in v),
                 "a nonempty list of [p1, p2] pairs of finite numbers"),
    "fields0.poisson": _FLAG,
    "fields0.a3_amp": _FINITE, "fields0.a3_sigma": _POSITIVE,
    "fields0.e3_amp": _FINITE, "fields0.e3_sigma": _POSITIVE,
}

# the value of each f0 and fields0 member that a scenario leaves out, keyed
# as _RULES is; scenario.json holds only the members given
_DEFAULTS = {
    "f0.sigma_x": 1.0, "f0.p3_nu": 16.0, "f0.mass": 0.05, "f0.alpha": 18.0,
    "f0.beams": [[0.0, 0.0]],
    "fields0.poisson": False,
    "fields0.a3_amp": 0.0, "fields0.a3_sigma": 1.0,
    "fields0.e3_amp": 0.0, "fields0.e3_sigma": 1.0,
}


def _moment_columns(N: float, d_p: int) -> tuple[str, str]:
    """The diagnostics columns of moment order N: the moment of p0^N f and
    the field magnitude's L^(N + d_p) norm."""
    return f"moment_{N:g}", f"k_l{N + d_p:g}"


def _member(scn, key: str):
    """The f0 or fields0 member ``key`` of ``scn``, or its default."""
    head, _, leaf = key.partition(".")
    return getattr(scn, head).get(leaf, _DEFAULTS[key])


@dataclass
class Scenario:
    """Full run configuration.

    f0 parameters: ``sigma_x`` (Gaussian spatial blob width around the box
    center, at most ``box``), ``alpha`` (radial momentum decay exponent,
    density ~ p0^-alpha), ``beams`` (list of in-plane drift momenta;
    particles are split evenly), ``p3_nu`` (3-momentum mode: p3 ~
    t-distribution index, tail (1+p3^2) to the power -(nu+1)/2), ``mass``
    (total particle weight, sum of w).

    fields0 parameters: ``poisson`` (solve the curl-free E from the initial
    charge), ``a3_amp``/``a3_sigma`` (3-momentum mode: Gaussian gauge bump
    A3 = amp * exp(-|x-c|^2 / (2 sigma^2)) generating in-plane B),
    ``e3_amp``/``e3_sigma`` (Gaussian out-of-plane electric field). Each
    width that is given, or whose Gaussian is built, is at least the grid
    spacing ``box / grid_n``. A member left out takes its ``_DEFAULTS``
    value. ``box * box`` is finite and the cell area ``(box / grid_n) ** 2``
    is at least the smallest normal float.
    """

    mode: str
    grid_n: int
    box: float
    dt: float
    t_final: float
    seed: int
    n_particles: int
    f0: dict
    fields0: dict
    gauss_correction: bool = True
    diagnostic_every: int = 1
    moment_orders: tuple = (2.0, 4.0)
    delta: float = 1.0
    n_tracers: int = 0
    store_history: bool = False

    def __post_init__(self):
        if self.mode not in mx.MODES:
            raise ValueError(f"mode: must be one of {mx.MODES}, got {self.mode!r}")
        for name in ("f0", "fields0"):
            members = getattr(self, name)
            if not isinstance(members, dict):
                raise ValueError(f"{name}: must be an object, got {members!r}")
            bad = {f"{name}.{k}" for k in members} - set(_RULES)
            if bad:
                raise ValueError(f"{sorted(bad)[0]}: unknown key")
        for key, (ok, need) in _RULES.items():
            head, _, leaf = key.partition(".")
            if leaf and leaf not in getattr(self, head):
                continue
            v = getattr(self, head)[leaf] if leaf else getattr(self, key)
            if not ok(v):
                raise ValueError(f"{key}: must be {need}, got {v!r}")
        box = float(self.box)   # an int's square may pass float's range
        if not (math.isfinite(box * box)
                and (box / self.grid_n) ** 2 >= sys.float_info.min):
            raise ValueError(f"box: must be such that box * box is finite "
                             f"and the cell area (box / grid_n) ** 2 is at "
                             f"least {sys.float_info.min!r}, with grid_n = "
                             f"{self.grid_n!r}, got {self.box!r}")
        steps = self.t_final / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(f"t_final: must be a whole number of steps "
                             f"of dt = {self.dt!r}, got {self.t_final!r}")
        if self.n_steps < 1:
            raise ValueError(f"t_final: must be at least one step of "
                             f"dt = {self.dt!r}, got {self.t_final!r}")
        sigma_x = _member(self, "f0.sigma_x")
        if sigma_x > self.box:  # sample_ensemble redraws until inside
            raise ValueError(f"f0.sigma_x: must be at most box = {self.box!r}, "
                             f"got {sigma_x!r}")
        for name in ("a3", "e3"):  # the field Gaussians' widths
            given = f"{name}_sigma" in self.fields0
            built = (self.mode != "2d"
                     and _member(self, f"fields0.{name}_amp"))
            sig = _member(self, f"fields0.{name}_sigma")
            if (given or built) and sig < self.box / self.grid_n:
                raise ValueError(f"fields0.{name}_sigma: must be at least the "
                                 f"grid spacing box / grid_n = {self.box!r} / "
                                 f"{self.grid_n!r}, got "
                                 f"{sig!r}{'' if given else ' (the default)'}")
        self.moment_orders = tuple(float(N) for N in self.moment_orders)
        moments, norms = zip(*(_moment_columns(N, self.dim_p)
                               for N in self.moment_orders))
        names = moments + norms
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"moment_orders: must be orders with "
                                 f"distinct diagnostics columns, two are "
                                 f"{name}, got {list(self.moment_orders)!r}")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def dim_p(self) -> int:
        return 2 if self.mode == "2d" else 3

    @property
    def grid(self) -> mx.Grid:
        return mx.Grid(nx=self.grid_n, ny=self.grid_n, lx=self.box, ly=self.box)

    def to_canonical_dict(self) -> dict:
        """One key per field, as JSON values; f0 and fields0 are copies."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(f0=dict(sorted(self.f0.items())),
                   fields0=dict(sorted(self.fields0.items())),
                   moment_orders=list(self.moment_orders))
        return out


def scenario_from_dict(cfg: dict, path: str) -> Scenario:
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: scenario must be a JSON object")
    is_required = {f.name: f.default is MISSING for f in fields(Scenario)}
    bad = set(cfg) - set(is_required)
    if bad:
        raise ValueError(f"{path}: unknown key {sorted(bad)[0]!r}")
    missing = {k for k, req in is_required.items() if req} - set(cfg)
    if missing:
        raise ValueError(f"{path}: missing key {sorted(missing)[0]!r}")
    try:
        return Scenario(**cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(cfg, path=str(path))


# --------------------------------------------------------------------------
# Initial sampling
# --------------------------------------------------------------------------


def _sample_radial_p(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """In-plane momenta with isotropic density ~ (1 + |p|^2)^(-alpha/2).

    The radial CDF inverts in closed form:
    |p| = sqrt((1 - u)^(2/(2-alpha)) - 1) for u uniform on [0, 1).
    """
    u = rng.random(n)
    r = np.sqrt((1.0 - u) ** (2.0 / (2.0 - alpha)) - 1.0)
    phi = rng.random(n) * (2.0 * np.pi)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)


def sample_ensemble(scn: Scenario) -> ParticleEnsemble:
    """Draw the initial ensemble from the scenario's f0 profile.

    Positions are a Gaussian blob at the box center, resampled until inside
    the central half of the box (keeps support away from the periodic
    boundaries for the run duration). Momenta follow a polynomial-decay
    radial profile, optionally shifted by per-beam drift momenta.
    """
    rng = np.random.default_rng(scn.seed)
    n = scn.n_particles
    center = 0.5 * scn.box
    sigma_x = float(_member(scn, "f0.sigma_x"))
    alpha = float(_member(scn, "f0.alpha"))
    mass = float(_member(scn, "f0.mass"))
    beams = _member(scn, "f0.beams")

    x = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = center + sigma_x * rng.standard_normal((n - filled, 2))
        ok = np.all(np.abs(cand - center) < 0.25 * scn.box, axis=1)
        cand = cand[ok]
        x[filled:filled + cand.shape[0]] = cand
        filled += cand.shape[0]

    p_plane = _sample_radial_p(rng, n, alpha)
    drift = np.asarray(beams, dtype=float).reshape(-1, 2)
    p_plane += drift[np.arange(n) % drift.shape[0]]

    if scn.dim_p == 3:
        nu = float(_member(scn, "f0.p3_nu"))
        p3 = rng.standard_t(nu, size=n) / math.sqrt(nu)
        p = np.concatenate([p_plane, p3[:, None]], axis=1)
    else:
        p = p_plane
    w = np.full(n, mass / max(n, 1))
    return ParticleEnsemble(x=x, p=p, w=w, box=np.array([scn.box, scn.box]))


def initial_fields(scn: Scenario, rho: np.ndarray) -> tuple[mx.FieldState, np.ndarray | None]:
    """The t = 0 fields of ``scn.fields0`` and, in 3-momentum mode, the gauge
    potential A3 of their in-plane B (None in planar mode). ``rho`` is the
    deposited initial charge, which the Poisson solve reads."""
    grid = scn.grid
    fields = mx.FieldState.zeros(scn.mode, grid)
    if _member(scn, "fields0.poisson"):
        fields.E += mx.poisson_efield(rho, grid)
    if scn.mode == "2d":
        return fields, None
    xg, yg = grid.mesh()
    c = 0.5 * scn.box
    r2 = (xg - c) ** 2 + (yg - c) ** 2
    a3_amp = float(_member(scn, "fields0.a3_amp"))
    if a3_amp:
        sig = float(_member(scn, "fields0.a3_sigma"))
        a3 = a3_amp * np.exp(-r2 / (2.0 * sig * sig))
        fields.B[:2] = mx.curl_a3(a3, grid)
    e3_amp = float(_member(scn, "fields0.e3_amp"))
    if e3_amp:
        sig = float(_member(scn, "fields0.e3_sigma"))
        fields.E[2] = e3_amp * np.exp(-r2 / (2.0 * sig * sig))
    return fields, mx.gauge_a3(fields)


# --------------------------------------------------------------------------
# Deposit / gather
# --------------------------------------------------------------------------

def _wrap(v: np.ndarray, n) -> None:
    """Wrap v into [0, n) in place, to the bits of ``v % n``.

    One add or subtract of n wraps a value within one period of [0, n), as
    a position after a step or a node index at the grid's edge; only values
    beyond that take ``np.mod``, of the value itself. Either way a tiny
    negative value that rounds up to exactly n (``-1e-17 % 20.0 == 20.0``)
    is mapped to 0. NaN stays NaN, and an infinity becomes NaN.
    """
    far = (v < -n) | (v >= 2 * n)
    m = np.mod(v[far], n) if far.any() else None
    np.add(v, n, out=v, where=v < 0)
    np.subtract(v, n, out=v, where=v >= n)   # also a v + n that rounded to n
    if m is not None:
        v[far] = np.where(m >= n, 0.0, m)


def wrap_box(x: np.ndarray, box) -> np.ndarray:
    """Periodic wrap of positions (..., d) into [0, box), box (d,), to the
    bits of ``x % box`` (see ``_wrap``), one coordinate at a time, as a
    contiguous row."""
    y = np.empty_like(x)
    for c, b in enumerate(box):
        v = x[..., c] + 0.0              # -0.0 becomes +0.0, as in np.mod
        _wrap(v, b)
        y[..., c] = v
    return y


def _stencil(grid: mx.Grid, x: np.ndarray, idx: np.ndarray, w: np.ndarray,
             *dw: np.ndarray) -> None:
    """Write the particle-grid shape at positions x (n, 2) into (k, n)
    buffers: flat periodic node indices ``i*ny + j`` into ``idx``, weights
    into ``w``. The shape is the tensor product of 1D B-splines (Birdsall &
    Langdon), linear (CIC) for k = 4 and quadratic (TSC) for k = 9, with
    m = 2 or 3 nodes per axis: node m a + b is (i + a, j + b), weight
    wx_a * wy_b. CIC starts at the cell holding x, wx = (1 - tx, tx); TSC at
    the node before the nearest one, and writes the weights of the exact
    d/dx and d/dy of the interpolant into two more buffers ``dw``, if given.

    Node indices wrap by ``_wrap``, as positions do, on the floored index
    while it is a float: they are those of ``% n`` for |x / h| < 2**53, on
    every grid size. x is read one column at a time, so column-ordered
    positions are read contiguously.
    """
    m = {4: 2, 9: 3}[len(idx)]
    axes = []
    for c, (n, h) in enumerate(((grid.nx, grid.hx), (grid.ny, grid.hy))):
        f = x[:, c] / h
        i = np.floor(f) if m == 2 else np.rint(f)
        t = f - i                        # TSC: signed, from the nearest node
        if m == 3:
            i -= 1
        # i is below 0 at a half-drift position in (-h, 0), and x / h rounds
        # up to n just below the box
        _wrap(i, n)
        i = i.astype(np.intp)
        if i.size and (i.min() < 0 or i.max() >= n):  # not finite
            i %= n
        nodes = [i]
        for _ in range(1, m):
            i1 = nodes[-1] + 1
            i1[i1 == n] = 0
            nodes.append(i1)
        if m == 2:
            ws, ds = (1.0 - t, t), None
        else:
            ws = (0.5 * (0.5 - t) ** 2, 0.75 - t * t, 0.5 * (0.5 + t) ** 2)
            ds = ((t - 0.5) / h, (-2.0 * t) / h, (t + 0.5) / h)
        axes.append((nodes, ws, ds))
    (ix, wx, dx), (iy, wy, dy) = axes
    for a in range(m):
        ix[a] *= grid.ny
        for b in range(m):
            k = m * a + b
            np.add(ix[a], iy[b], out=idx[k])
            np.multiply(wx[a], wy[b], out=w[k])
            if dw:
                np.multiply(dx[a], wy[b], out=dw[0][k])
                np.multiply(wx[a], dy[b], out=dw[1][k])


def _gather(arr: np.ndarray, idx: np.ndarray, *weights) -> list:
    """Stencil sums of grid arrays (..., nx, ny) over the nodes idx (k, n):
    one (..., n) result per weight array (k, n). One contiguous grid
    component at a time, summed over the nodes in order."""
    flat = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])
    sums = np.empty((len(weights), len(flat), idx.shape[1]))
    term = np.empty(idx.shape[1])
    for c, comp in enumerate(flat):
        for k, nodes in enumerate(idx):
            v = comp.take(nodes)
            for acc, w in zip(sums[:, c], weights):
                if k:
                    acc += np.multiply(v, w[k], out=term)
                else:
                    np.multiply(v, w[k], out=acc)
    return [s.reshape(arr.shape[:-2] + (-1,)) for s in sums]


def deposit_work(n: int) -> tuple:
    """Buffers for ``deposit`` of n particles, to reuse over a run: the
    stencil's node indices and weights and the current weights, each (4, n)."""
    return np.empty((4, n), np.intp), np.empty((4, n)), np.empty((4, n))


def deposit(ens: ParticleEnsemble, grid: mx.Grid,
            work: tuple) -> tuple[np.ndarray, np.ndarray]:
    """CIC deposition of charge 4*pi*integral(f dp) and current
    4*pi*integral(phat f dp) onto the grid: (rho (nx, ny), j (3, nx, ny)).

    The stencil is built ``phase._BLOCK`` particles at a time into ``work``
    (from ``deposit_work``), and each grid sum is one ``bincount`` over all
    4n stencil entries, node by node."""
    x = ens.x
    if len(ens) and (x.min() < 0 or x[:, 0].max() >= grid.lx
                     or x[:, 1].max() >= grid.ly):
        raise ValueError("particle outside the periodic box")
    size = grid.nx * grid.ny
    rho = np.zeros(size)
    j = np.zeros((3, size))
    if len(ens):
        idx, q, qc = work
        scale = 4.0 * np.pi / grid.cell
        blocks = phase._blocks(len(ens))
        for s in blocks:
            _stencil(grid, x[s], idx[:, s], q[:, s])
            q[:, s] *= scale * ens.w[s]
        nodes = idx.ravel()
        rho = np.bincount(nodes, weights=q.ravel(), minlength=size)
        p, p0 = ens.p, ens.p0
        for c in range(ens.dim_p):
            for s in blocks:
                phat = p[s, c] / p0[s]
                np.multiply(q[:, s], phat, out=qc[:, s])
            j[c] = np.bincount(nodes, weights=qc.ravel(), minlength=size)
    return rho.reshape(grid.nx, grid.ny), j.reshape(3, grid.nx, grid.ny)


def gather_cic(grid: mx.Grid, arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear (CIC) gather of grid arrays (..., nx, ny) at positions (n, 2),
    with the stencil of ``deposit``; returns (..., n)."""
    idx, w = np.empty((4, len(x)), np.intp), np.empty((4, len(x)))
    _stencil(grid, x, idx, w)
    return _gather(arr, idx, w)[0]


def gather_tsc(grid: mx.Grid, arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Quadratic-spline gather of grid arrays (..., nx, ny) at positions (n, 2)."""
    idx, w = np.empty((9, len(x)), np.intp), np.empty((9, len(x)))
    _stencil(grid, x, idx, w)
    return _gather(arr, idx, w)[0]


def make_field_sampler(fields: mx.FieldState, a3: np.ndarray | None):
    """Field sampler x -> (E, B) for the particle push, frozen over the step,
    returning only the components the push reads.

    Planar-momentum mode gathers (E1, E2) (n, 2) and B3 (n,) with CIC.
    3-momentum mode gathers E (n, 3) and B3 with the quadratic spline and
    reconstructs the in-plane B = (d2 A3, -d1 A3) from the exact gradient of
    the interpolated gauge potential ``a3`` (nx, ny), all on one stencil.
    Planar mode does not read ``a3``; its callers pass None.
    """
    grid = fields.grid
    if fields.mode == "2d":
        live = np.stack([fields.E[0], fields.E[1], fields.B[2]])

        def sampler(x):
            g = gather_cic(grid, live, x)
            return g[:2].T, g[2]
        return sampler
    if a3 is None:
        raise ValueError("3-momentum mode requires the gauge potential A3")
    e_b3 = np.concatenate([fields.E, fields.B[2:]])

    def sampler(x):
        idx = np.empty((9, len(x)), np.intp)
        w, wdx, wdy = np.empty((3, 9, len(x)))
        _stencil(grid, x, idx, w, wdx, wdy)
        g = _gather(e_b3, idx, w)[0]
        gx, gy = _gather(a3, idx, wdx, wdy)
        return g[:3].T, np.stack([gy, -gx, g[3]]).T
    return sampler


# --------------------------------------------------------------------------
# Diagnostics containers
# --------------------------------------------------------------------------


@dataclass
class DiagnosticSeries:
    """Time series of monitored quantities; ``columns`` names the entries of
    each row of ``data`` (first column is always time)."""

    columns: list
    data: np.ndarray  # (n_samples, n_columns)

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.data.tolist():
                fh.write(",".join(map(repr, row)) + "\n")

    @classmethod
    def load_csv(cls, path) -> "DiagnosticSeries":
        with open(path) as fh:
            columns = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.strip().split(",")]
                    for line in fh if line.strip()]
        return cls(columns=columns, data=np.asarray(rows))


# keys of history.npz, in the order save_npz writes them
_HISTORY_KEYS = ("mode", "grid", "times", "E", "B", "part_x", "part_p", "w")


@dataclass
class RunHistory:
    """The stored steps of a run as in ``history.npz``, row k at ``times[k]``:
    ``times`` (k,), ``E`` and ``B`` (k, 3, nx, ny), ``part_x`` (k, n, 2),
    ``part_p`` (k, n, 2 in 2d mode, else 3) and the weights ``w`` (n,). With
    k and n read from ``times`` and ``w``, a misshapen array, or in 2d mode
    an E3, B1 or B2 that is nonzero at some step, raises ValueError naming
    the array."""

    mode: str
    grid: mx.Grid
    times: np.ndarray
    E: np.ndarray
    B: np.ndarray
    part_x: np.ndarray
    part_p: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.mode not in mx.MODES:
            raise ValueError(f"mode: must be one of {mx.MODES}, got {self.mode!r}")
        k, n, g = np.size(self.times), np.size(self.w), self.grid
        shapes = {"times": (k,), "E": (k, 3, g.nx, g.ny),
                  "B": (k, 3, g.nx, g.ny), "part_x": (k, n, 2),
                  "part_p": (k, n, 2 if self.mode == "2d" else 3), "w": (n,)}
        for key, shape in shapes.items():
            arr = np.asarray(getattr(self, key))
            if arr.shape != shape or arr.dtype.kind not in "iuf":
                raise ValueError(f"{key}: must be a numeric array of shape "
                                 f"{shape}, got {arr.dtype} {arr.shape}")
            setattr(self, key, arr)
        if self.mode == "2d":   # a planar run has no out-of-plane fields
            for key, comps, out in (("E", "E3", self.E[:, 2:]),
                                    ("B", "B1 = B2", self.B[:, :2])):
                bad = np.flatnonzero(out.any(axis=(1, 2, 3)))
                if bad.size:
                    raise ValueError(f"{key}: 2d mode requires {comps} = 0, "
                                     f"got a nonzero one at step {bad[0]}")

    def record(self, k: int, t: float, fields: mx.FieldState,
               ens: ParticleEnsemble) -> None:
        """Write the state at time t into row k."""
        self.times[k] = t
        self.E[k] = fields.E
        self.B[k] = fields.B
        self.part_x[k] = ens.x
        self.part_p[k] = ens.p

    def save_npz(self, path) -> None:
        """Write the archive that ``np.savez`` writes of C-contiguous arrays,
        member by member in ``_HISTORY_KEYS`` order, each from its array's
        own buffer: ``np.savez`` copies an array in chunks of up to 16 MiB,
        so ``part_x`` and ``part_p`` whole. Uncompressed: zlib would cost
        more time than the 22% of bytes it saves. ``load_npz`` reads either
        form."""
        g, fmt = self.grid, np.lib.format
        arrays = {**vars(self), "grid": np.array([g.nx, g.ny, g.lx, g.ly])}
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED,
                             allowZip64=True) as zf:
            for key in _HISTORY_KEYS:
                a = np.asarray(arrays[key], order="C")
                with zf.open(key + ".npy", "w", force_zip64=True) as fh:
                    fmt.write_array_header_1_0(
                        fh, fmt.header_data_from_array_1_0(a))
                    fh.write(a.reshape(-1).view(np.uint8))

    @classmethod
    def load_npz(cls, path) -> "RunHistory":
        """Read a ``save_npz`` archive, or the compressed form that older
        versions wrote; a file that is not one, a missing, unreadable or
        misshapen key, a ``grid`` that is not two positive integers and two
        positive finite lengths, ``times`` that are not finite, strictly
        increasing from 0, or that step by more than ``pic.run``'s bound
        min(hx, hy) (the grid re-run steps by their gaps), a non-finite
        ``E``, ``B``, ``part_x`` or ``part_p`` (naming the first bad step)
        or a ``w`` that is not positive and finite raise ValueError naming
        path and key, as does every check of the class itself. ``pic.run``'s
        own history is not checked: its steps already passed the loop's
        finiteness check."""
        a, key = {}, None
        try:
            with np.load(path) as z:
                for key in _HISTORY_KEYS:
                    a[key] = z[key]
            key = "grid"
            g = a.pop(key).astype(float)
        except KeyError:
            raise ValueError(f"{path}: missing key {key!r}") from None
        except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile,
                zlib.error) as exc:
            what = repr(key) if key else f"an .npz archive of {_HISTORY_KEYS}"
            raise ValueError(f"{path}: cannot read {what} ({exc})") from None
        if not (g.shape == (4,) and np.all(np.isfinite(g)) and np.all(g > 0)
                and np.all(g[:2] == np.round(g[:2]))):
            raise ValueError(f"{path}: grid: must be two positive integers and "
                             f"two positive finite lengths, got {g.tolist()}")
        grid = mx.Grid(nx=int(g[0]), ny=int(g[1]), lx=float(g[2]),
                       ly=float(g[3]))
        try:
            h = cls(mode=str(a.pop("mode")), grid=grid, **a)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        # comparisons only, so a NaN or inf raises no warning
        t = h.times
        ok = np.isfinite(t)
        ok[1:] &= t[1:] > t[:-1]
        ok[:1] &= t[:1] == 0.0
        bad = np.flatnonzero(~ok)
        if bad.size or not t.size:
            got = (f"times[{bad[0]}] = {float(t[bad[0]])!r}" if bad.size
                   else "no times")
            raise ValueError(f"{path}: times: must be finite, strictly "
                             f"increasing from 0, got {got}")
        # with pic.run's slack on dt, and the rounding of the stored times
        bound = min(grid.hx, grid.hy)
        bad = np.flatnonzero(np.diff(t) > bound * (1.0 + 1e-12)
                             + np.spacing(t[1:]))
        if bad.size:
            k = bad[0] + 1
            raise ValueError(f"{path}: times: must be at most min(hx, hy) "
                             f"= {bound!r} apart, got times[{k}] - "
                             f"times[{k - 1}] = {float(t[k] - t[k - 1])!r}")
        # one step at a time, so the mask is one step's size
        for key in ("E", "B", "part_x", "part_p"):
            for k, step in enumerate(getattr(h, key)):
                if not np.isfinite(step).all():
                    raise ValueError(f"{path}: {key}: must be finite, got a "
                                     f"non-finite value at step {k}")
        bad = np.flatnonzero(~((h.w > 0.0) & (h.w < np.inf)))
        if bad.size:
            raise ValueError(f"{path}: w: must be positive and finite, got "
                             f"w[{bad[0]}] = {float(h.w[bad[0]])!r}")
        return h


@dataclass
class RunResult:
    scenario: Scenario
    series: DiagnosticSeries
    ensemble: ParticleEnsemble
    fields: mx.FieldState
    history: RunHistory | None


# --------------------------------------------------------------------------
# Main loop
# --------------------------------------------------------------------------


def _diag_row(t, fields, ens, rho, scn, tracer_inv_drift) -> list:
    """One diagnostics row as (column name, value) pairs, time first."""
    resE, resB = mx.constraint_residual(fields, rho)
    kmag = np.sqrt(np.sum(fields.E ** 2 + fields.B ** 2, axis=0))
    kmax = float(kmag.max())
    row = [("time", t), ("energy", mx.energy(fields, ens)),
           ("field_energy", mx.field_energy(fields)),
           ("gauss_residual", resE), ("divb_residual", resB),
           ("total_charge", 4.0 * np.pi * float(np.sum(ens.w))),
           ("rho_max", float(rho.max())),
           ("k_linf", kmax)]
    for N in scn.moment_orders:
        q = N + scn.dim_p
        mom_name, norm_name = _moment_columns(N, scn.dim_p)
        row.append((mom_name, moment(ens, N)))
        lq = 0.0
        if kmax:  # scaled by k_linf, so that no power underflows or overflows
            lq = kmax * float((np.sum((kmag / kmax) ** q) * fields.grid.cell)
                              ** (1.0 / q))
        row.append((norm_name, lq))
    row.append(("tracer_invariant_drift", tracer_inv_drift))
    line_bound = 0.0
    if scn.dim_p == 3:
        # proxy for the heaviest out-of-plane line integral: the max over a
        # coarse spatial binning of sum w <p3>^(5+delta) / cell
        nb = 16
        ix = np.minimum((ens.x[:, 0] / scn.box * nb).astype(int), nb - 1)
        iy = np.minimum((ens.x[:, 1] / scn.box * nb).astype(int), nb - 1)
        p3w = ens.w * (1.0 + ens.p[:, 2] ** 2) ** ((5.0 + scn.delta) / 2.0)
        acc = np.bincount(ix * nb + iy, weights=p3w, minlength=nb * nb)
        cell = (scn.box / nb) ** 2
        line_bound = float(acc.max()) / cell
    row.append(("p3_line_bound", line_bound))
    return row


def run(scn: Scenario) -> RunResult:
    """Execute a scenario and return diagnostics plus final state."""
    grid = scn.grid
    if scn.dt > min(grid.hx, grid.hy) * (1.0 + 1e-12):
        raise ValueError(f"dt={scn.dt} violates the step bound "
                         f"dt <= h = {min(grid.hx, grid.hy)}")
    ens = sample_ensemble(scn)
    n = len(ens)
    work = deposit_work(n)
    rho, j = deposit(ens, grid, work)
    fields, a3 = initial_fields(scn, rho)
    box = np.array([scn.box, scn.box])

    n_steps = scn.n_steps
    history = None
    if scn.store_history:
        k, shape = n_steps + 1, (3, grid.nx, grid.ny)
        history = RunHistory(
            mode=scn.mode, grid=grid, times=np.zeros(k),
            E=np.zeros((k,) + shape), B=np.zeros((k,) + shape),
            part_x=np.zeros((k, n, 2)), part_p=np.zeros((k, n, scn.dim_p)),
            w=ens.w.copy())

    n_tr = min(scn.n_tracers, n) if a3 is not None else 0

    def tracer_invariant():
        return ens.p[:n_tr, 2] + gather_tsc(grid, a3, ens.x[:n_tr])

    t = 0.0
    if n_tr:
        inv0 = tracer_invariant()
    if history is not None:
        history.record(0, t, fields, ens)
    rows = [_diag_row(t, fields, ens, rho, scn, 0.0)]

    for step in range(n_steps):
        # half field step with the current at t
        fields_half = mx.step_maxwell(fields, j, 0.5 * scn.dt)
        # full particle step with the time-centered fields
        a3_half = None
        if a3 is not None:
            e3_mid = 0.5 * (fields.E[2] + fields_half.E[2])
            a3_half = mx.evolve_a3(a3, e3_mid, 0.5 * scn.dt)
        sampler = make_field_sampler(fields_half, a3_half)
        # column-ordered, so that each block's columns are contiguous
        x, p = np.empty((n, 2), order="F"), np.empty(ens.p.shape, order="F")
        p0 = np.empty(n)
        for s in phase._blocks(n):
            xn, p[s], p0[s] = chars.push_many(ens.x[s], ens.p[s], ens.p0[s],
                                              sampler, scn.dt)
            x[s] = wrap_box(xn, box)
        ens = ParticleEnsemble(x=x, p=p, w=ens.w, box=box)
        ens.p0 = p0                      # the push's p0 fills the cache
        # half field step with the current at t + dt
        rho, j = deposit(ens, grid, work)
        fields = mx.step_maxwell(fields_half, j, 0.5 * scn.dt)
        if scn.gauss_correction:
            mx.gauss_correct(fields, rho)
        if a3 is not None:
            e3_mid = 0.5 * (fields_half.E[2] + fields.E[2])
            a3 = mx.evolve_a3(a3_half, e3_mid, 0.5 * scn.dt)
        # one clock: step k is at k * dt, not at a sum of k increments
        t = (step + 1) * scn.dt
        state = {"x": ens.x, "p": ens.p, "E": fields.E, "B": fields.B}
        if a3 is not None:
            state["A3"] = a3
        bad = [name for name, a in state.items() if not np.isfinite(a).all()]
        if bad:
            raise FloatingPointError(f"non-finite {', '.join(bad)} at t={t}")

        if history is not None:
            history.record(step + 1, t, fields, ens)
        if (step + 1) % scn.diagnostic_every == 0 or step == n_steps - 1:
            drift = 0.0
            if n_tr:
                drift = float(np.abs(tracer_invariant() - inv0).max())
            rows.append(_diag_row(t, fields, ens, rho, scn, drift))

    series = DiagnosticSeries(columns=[name for name, _ in rows[0]],
                              data=np.asarray([[v for _, v in r] for r in rows]))
    return RunResult(scenario=scn, series=series, ensemble=ens, fields=fields,
                     history=history)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


def conservation_report(result: RunResult) -> dict:
    """Max relative drifts of the conserved quantities over the run.

    ``gauss_growth`` is the later half's largest Gauss residual over the
    earlier half's, each clamped from below at the rounding scale
    R = 64 eps max|rho| sqrt(lx ly), so a residual at rounding level reads 1.
    The residual is the L2 norm sqrt(sum (div E - rho)^2 cell) over nx ny
    cells: a per-cell rounding error of k eps max|rho| gives k eps max|rho|
    sqrt(nx ny cell) = k eps max|rho| sqrt(lx ly). Corrected golden_2d runs
    sit at k of about 2.3 (4.7e-16 at max|rho| 0.046); without the correction
    the residual grows orders of magnitude above R. With no charge, R is the
    smallest normal float, which only keeps 0 / 0 out.
    """
    s = result.series
    scn = result.scenario
    t = s.column("time")
    energy = s.column("energy")
    charge = s.column("total_charge")
    gauss = s.column("gauss_residual")
    half = len(gauss) // 2
    R = max(64.0 * np.finfo(float).eps * float(s.column("rho_max").max())
            * math.sqrt(scn.grid.lx * scn.grid.ly), np.finfo(float).tiny)
    report = {
        "energy_drift": float(np.abs(energy - energy[0]).max()
                              / max(abs(energy[0]), 1e-300)),
        "charge_drift": float(np.abs(charge - charge[0]).max()
                              / max(abs(charge[0]), 1e-300)),
        "gauss_initial": float(gauss[0]),
        "gauss_max": float(gauss.max()),
        "gauss_growth": float(max(gauss[half:].max(), R)
                              / max(gauss[:max(half, 1)].max(), R)),
        "duration": float(t[-1] - t[0]),
    }
    if scn.mode == "2.5d" and min(scn.n_tracers, scn.n_particles):
        report["tracer_invariant_drift"] = float(
            s.column("tracer_invariant_drift").max())
    return report


def moment_inequality_monitor(result: RunResult) -> dict:
    """Empirical constant in the moment growth bound: the time derivative of
    ||p0^N f||^(1/(N+d_p)) is controlled by the spatial L^(N+d_p) norm of the
    field magnitude |K| = |(E, B)|, for N the scenario's first moment order.
    Reports sup over steps of the ratio."""
    scn = result.scenario
    N = scn.moment_orders[0]
    d_p = scn.dim_p
    s = result.series
    t = s.column("time")
    mom_name, norm_name = _moment_columns(N, d_p)
    mom = s.column(mom_name) ** (1.0 / (N + d_p))
    knorm = s.column(norm_name)
    if len(t) < 2:
        return {"N": N, "constant": 0.0, "max_deriv": 0.0}
    dmom = np.diff(mom) / np.diff(t)
    kmid = 0.5 * (knorm[1:] + knorm[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(kmid > 0, np.abs(dmom) / kmid, 0.0)
    return {"N": float(N),
            "constant": float(ratio.max()),
            "max_deriv": float(np.abs(dmom).max())}
