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
invariant V3 + A3 drifts only through the time discretization.

Everything is deterministic for a fixed (config, seed): sampling uses a
seeded generator, reductions have fixed order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import characteristics as chars
from . import maxwell as mx
from .phase import ParticleEnsemble

__all__ = [
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "sample_ensemble",
    "deposit",
    "gather_cic",
    "gather_tsc",
    "gather_tsc_grad",
    "wrap_box",
    "make_field_sampler",
    "DiagnosticSeries",
    "RunHistory",
    "RunResult",
    "run",
    "conservation_report",
    "moment_inequality_monitor",
    "golden_2d",
    "golden_25d",
    "golden_repr",
]


# --------------------------------------------------------------------------
# Scenario configuration
# --------------------------------------------------------------------------

_F0_KEYS = {"sigma_x", "alpha", "beams", "p3_nu", "mass"}
_FIELDS0_KEYS = {"poisson", "a3_amp", "a3_sigma", "e3_amp", "e3_sigma"}
_TOP_KEYS = {"mode", "grid_n", "box", "dt", "t_final", "seed", "n_particles",
             "f0", "fields0", "gauss_correction", "diagnostic_every",
             "moment_orders", "delta", "n_tracers", "store_history"}


@dataclass
class Scenario:
    """Full run configuration.

    f0 parameters: ``sigma_x`` (Gaussian spatial blob width around the box
    center), ``alpha`` (radial momentum decay exponent, density ~ p0^-alpha),
    ``beams`` (list of in-plane drift momenta; particles are split evenly),
    ``p3_nu`` (3-momentum mode: p3 ~ t-distribution index, tail (1+p3^2)
    to the power -(nu+1)/2), ``mass`` (total particle weight, sum of w).

    fields0 parameters: ``poisson`` (solve the curl-free E from the initial
    charge), ``a3_amp``/``a3_sigma`` (3-momentum mode: Gaussian gauge bump
    A3 = amp * exp(-|x-c|^2 / (2 sigma^2)) generating in-plane B),
    ``e3_amp``/``e3_sigma`` (Gaussian out-of-plane electric field).
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
        for name in ("grid_n", "n_particles", "seed"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                raise ValueError(f"{name}: must be a nonnegative integer, got {v!r}")
        for name in ("box", "dt", "t_final"):
            v = float(getattr(self, name))
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name}: must be positive and finite, got {v!r}")
        bad = set(self.f0) - _F0_KEYS
        if bad:
            raise ValueError(f"f0.{sorted(bad)[0]}: unknown key")
        bad = set(self.fields0) - _FIELDS0_KEYS
        if bad:
            raise ValueError(f"fields0.{sorted(bad)[0]}: unknown key")
        if float(self.f0.get("alpha", 18.0)) <= 2.0:
            raise ValueError("f0.alpha: must exceed 2 for a normalizable profile")

    @property
    def dim_p(self) -> int:
        return 2 if self.mode == "2d" else 3

    @property
    def grid(self) -> mx.Grid:
        return mx.Grid(nx=self.grid_n, ny=self.grid_n, lx=self.box, ly=self.box)

    def to_canonical_dict(self) -> dict:
        return {
            "mode": self.mode, "grid_n": self.grid_n, "box": self.box,
            "dt": self.dt, "t_final": self.t_final, "seed": self.seed,
            "n_particles": self.n_particles,
            "f0": dict(sorted(self.f0.items())),
            "fields0": dict(sorted(self.fields0.items())),
            "gauss_correction": self.gauss_correction,
            "diagnostic_every": self.diagnostic_every,
            "moment_orders": list(self.moment_orders),
            "delta": self.delta, "n_tracers": self.n_tracers,
            "store_history": self.store_history,
        }


def scenario_from_dict(cfg: dict, path: str = "<dict>") -> Scenario:
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: scenario must be a JSON object")
    bad = set(cfg) - _TOP_KEYS
    if bad:
        raise ValueError(f"{path}: unknown key {sorted(bad)[0]!r}")
    missing = {"mode", "grid_n", "box", "dt", "t_final", "seed",
               "n_particles", "f0", "fields0"} - set(cfg)
    if missing:
        raise ValueError(f"{path}: missing key {sorted(missing)[0]!r}")
    kwargs = dict(cfg)
    if "moment_orders" in kwargs:
        kwargs["moment_orders"] = tuple(float(v) for v in kwargs["moment_orders"])
    return Scenario(**kwargs)


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
    sigma_x = float(scn.f0.get("sigma_x", 1.0))
    alpha = float(scn.f0.get("alpha", 18.0))
    mass = float(scn.f0.get("mass", 0.05))
    beams = scn.f0.get("beams", [[0.0, 0.0]])

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
        nu = float(scn.f0.get("p3_nu", 16.0))
        p3 = rng.standard_t(nu, size=n) / math.sqrt(nu)
        p = np.concatenate([p_plane, p3[:, None]], axis=1)
    else:
        p = p_plane
    w = np.full(n, mass / max(n, 1))
    return ParticleEnsemble(dim_p=scn.dim_p, x=x, p=p, w=w,
                            box=np.array([scn.box, scn.box]))


def initial_fields(scn: Scenario, ens: ParticleEnsemble) -> tuple[mx.FieldState, mx.GaugeState | None]:
    grid = scn.grid
    fields = mx.FieldState.zeros(scn.mode, grid)
    src = deposit(ens, grid)
    if scn.fields0.get("poisson", False):
        fields.E += mx.poisson_efield(src.rho, grid)
    xg, yg = grid.mesh()
    c = 0.5 * scn.box
    r2 = (xg - c) ** 2 + (yg - c) ** 2
    if scn.mode == "2.5d":
        a3_amp = float(scn.fields0.get("a3_amp", 0.0))
        if a3_amp:
            sig = float(scn.fields0.get("a3_sigma", 1.0))
            a3 = a3_amp * np.exp(-r2 / (2.0 * sig * sig))
            kx, ky = grid.gradient_wavenumbers()
            a3k = np.fft.fft2(a3)
            fields.B[0] = np.fft.ifft2(1j * ky * a3k).real
            fields.B[1] = -np.fft.ifft2(1j * kx * a3k).real
        e3_amp = float(scn.fields0.get("e3_amp", 0.0))
        if e3_amp:
            sig = float(scn.fields0.get("e3_sigma", 1.0))
            fields.E[2] = e3_amp * np.exp(-r2 / (2.0 * sig * sig))
        gauge = mx.gauge_a3(fields)
        return fields, gauge
    return fields, None


# --------------------------------------------------------------------------
# Deposit / gather
# --------------------------------------------------------------------------


def wrap_box(x: np.ndarray, box) -> np.ndarray:
    """Periodic wrap of positions into [0, box).

    ``x % box`` alone rounds a tiny negative coordinate up to exactly
    ``box`` (``-1e-17 % 20.0 == 20.0``); such values are mapped to 0.
    """
    y = np.mod(x, box)
    return np.where(y >= box, 0.0, y)


def _stencil(grid: mx.Grid, x: np.ndarray, tsc: bool = False):
    """Particle-grid shape function at positions x (n, 2): flat periodic node
    indices ``i*ny + j`` and weights, each of shape (k, n).

    The shape is the tensor product of 1D B-splines (Birdsall & Langdon):
    linear for CIC (k = 4 nodes), quadratic for TSC (k = 9, the three nodes
    around the nearest one per axis). Returns ``(idx, w, wdx, wdy)``; for
    TSC ``wdx``/``wdy`` weigh the exact d/dx and d/dy of the interpolant,
    for CIC they are None.
    """
    axes = []
    for c, (n, h) in enumerate(((grid.nx, grid.hx), (grid.ny, grid.hy))):
        f = x[:, c] / h
        if tsc:
            i0 = np.rint(f)
            t = f - i0                   # signed offset from the nearest node
            w = (0.5 * (0.5 - t) ** 2, 0.75 - t * t, 0.5 * (0.5 + t) ** 2)
            d = np.stack([t - 0.5, -2.0 * t, t + 0.5]) / h
            i0 -= 1                      # leftmost of the three nodes
        else:
            i0 = np.floor(f)
            t = f - i0
            w = (1.0 - t, t)
            d = None
        idx = (i0.astype(np.intp) + np.arange(len(w))[:, None]) % n
        axes.append((idx, np.stack(w), d))
    (ix, wx, dx), (iy, wy, dy) = axes
    k = len(ix) * len(iy)

    def outer(a, b):
        return (a[:, None] * b[None, :]).reshape(k, -1)

    idx = (ix[:, None] * grid.ny + iy[None, :]).reshape(k, -1)
    if not tsc:
        return idx, outer(wx, wy), None, None
    return idx, outer(wx, wy), outer(dx, wy), outer(wx, dy)


def _gather(arr: np.ndarray, idx: np.ndarray, *weights) -> list:
    """Stencil sums of grid arrays (..., nx, ny) over the nodes idx (k, n):
    one (..., n) result per weight array (k, n). Node by node, so no
    (k, n, ...) temporary is held."""
    flat = np.moveaxis(arr.reshape(arr.shape[:-2] + (-1,)), -1, 0)
    shape = (-1,) + (1,) * (arr.ndim - 2)
    sums = None
    for i in range(len(idx)):
        v = flat.take(idx[i], axis=0)                  # (n, ...)
        terms = [v * w[i].reshape(shape) for w in weights]
        if sums is None:
            sums = terms
        else:
            for acc, term in zip(sums, terms):
                acc += term
    return [np.moveaxis(acc, 0, -1) for acc in sums]


def deposit(ens: ParticleEnsemble, grid: mx.Grid) -> mx.SourceDensities:
    """CIC deposition of charge 4*pi*integral(f dp) and current
    4*pi*integral(phat f dp) onto the grid."""
    if len(ens) and (np.any(ens.x < 0) or np.any(ens.x[:, 0] >= grid.lx)
                     or np.any(ens.x[:, 1] >= grid.ly)):
        raise ValueError("particle outside the periodic box")
    size = grid.nx * grid.ny
    rho = np.zeros(size)
    j = np.zeros((3, size))
    if len(ens):
        idx, q, _, _ = _stencil(grid, ens.x)
        idx = idx.ravel()
        q *= 4.0 * np.pi / grid.cell * ens.w
        rho = np.bincount(idx, weights=q.ravel(), minlength=size)
        phat = ens.phat
        qc = np.empty_like(q)
        for c in range(ens.dim_p):
            np.multiply(q, phat[:, c], out=qc)
            j[c] = np.bincount(idx, weights=qc.ravel(), minlength=size)
    return mx.SourceDensities(grid=grid, rho=rho.reshape(grid.nx, grid.ny),
                              j=j.reshape(3, grid.nx, grid.ny))


def gather_cic(grid: mx.Grid, arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear (CIC) gather of grid arrays (..., nx, ny) at positions (n, 2),
    with the stencil of ``deposit``; returns (..., n)."""
    idx, w, _, _ = _stencil(grid, x)
    return _gather(arr, idx, w)[0]


def gather_tsc(grid: mx.Grid, arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Quadratic-spline gather of grid arrays (..., nx, ny) at positions (n, 2)."""
    idx, w, _, _ = _stencil(grid, x, tsc=True)
    return _gather(arr, idx, w)[0]


def gather_tsc_grad(grid: mx.Grid, arr: np.ndarray, x: np.ndarray):
    """Quadratic-spline gather returning (values (..., n), gradient (..., n, 2))
    — the exact spatial gradient of the interpolant, not a finite difference."""
    val, gx, gy = _gather(arr, *_stencil(grid, x, tsc=True))
    return val, np.stack([gx, gy], axis=-1)


def make_field_sampler(fields: mx.FieldState, gauge: mx.GaugeState | None = None):
    """Field sampler (t, x) -> (E, B) for the particle push, frozen in time.

    Planar-momentum mode gathers with CIC. 3-momentum mode gathers E and B3
    with the quadratic spline and reconstructs the in-plane B from the exact
    gradient of the interpolated gauge potential A3.
    """
    grid = fields.grid
    if fields.mode == "2d":
        live = np.stack([fields.E[0], fields.E[1], fields.B[2]])

        def sampler(t, x):
            xs = x.reshape(-1, 2)
            e1, e2, b3 = gather_cic(grid, live, xs)
            zero = np.zeros_like(b3)
            E = np.stack([e1, e2, zero], axis=-1)
            B = np.stack([zero, zero, b3], axis=-1)
            return (E.reshape(x.shape[:-1] + (3,)),
                    B.reshape(x.shape[:-1] + (3,)))
        return sampler
    if gauge is None:
        raise ValueError("3-momentum mode requires the gauge state")
    e_b3 = np.concatenate([fields.E, fields.B[2:]])

    def sampler(t, x):
        xs = x.reshape(-1, 2)
        e1, e2, e3, b3 = gather_tsc(grid, e_b3, xs)
        _, grad_a3 = gather_tsc_grad(grid, gauge.a3, xs)
        E = np.stack([e1, e2, e3], axis=-1)
        B = np.stack([grad_a3[:, 1], -grad_a3[:, 0], b3], axis=-1)
        return (E.reshape(x.shape[:-1] + (3,)),
                B.reshape(x.shape[:-1] + (3,)))
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
            for row in self.data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load_csv(cls, path) -> "DiagnosticSeries":
        with open(path) as fh:
            columns = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.strip().split(",")]
                    for line in fh if line.strip()]
        return cls(columns=columns, data=np.asarray(rows))


@dataclass
class RunHistory:
    """Per-step state store for cone integrations and field comparisons."""

    mode: str
    grid: mx.Grid
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)       # FieldState per step
    part_x: list = field(default_factory=list)       # (n, 2) per step
    part_p: list = field(default_factory=list)       # (n, d_p) per step
    w: np.ndarray | None = None

    def record(self, t, fields, ens):
        self.times.append(float(t))
        self.fields.append(fields.copy())
        self.part_x.append(ens.x.copy())
        self.part_p.append(ens.p.copy())
        if self.w is None:
            self.w = ens.w.copy()

    def save_npz(self, path) -> None:
        np.savez_compressed(
            path,
            mode=self.mode,
            grid=np.array([self.grid.nx, self.grid.ny, self.grid.lx, self.grid.ly]),
            times=np.asarray(self.times),
            E=np.stack([f.E for f in self.fields]),
            B=np.stack([f.B for f in self.fields]),
            part_x=np.stack(self.part_x),
            part_p=np.stack(self.part_p),
            w=self.w,
        )

    @classmethod
    def load_npz(cls, path) -> "RunHistory":
        z = np.load(path)
        g = z["grid"]
        grid = mx.Grid(nx=int(g[0]), ny=int(g[1]), lx=float(g[2]), ly=float(g[3]))
        mode = str(z["mode"])
        hist = cls(mode=mode, grid=grid)
        hist.times = [float(t) for t in z["times"]]
        for k, t in enumerate(hist.times):
            hist.fields.append(mx.FieldState(mode=mode, grid=grid, E=z["E"][k],
                                             B=z["B"][k], time=t))
            hist.part_x.append(z["part_x"][k])
            hist.part_p.append(z["part_p"][k])
        hist.w = z["w"]
        return hist


@dataclass
class RunResult:
    scenario: Scenario
    series: DiagnosticSeries
    ensemble: ParticleEnsemble
    fields: mx.FieldState
    gauge: mx.GaugeState | None
    history: RunHistory | None
    tracer_invariant: np.ndarray | None   # (n_samples, n_tracers) V3 + A3
    initial_energy: float


# --------------------------------------------------------------------------
# Main loop
# --------------------------------------------------------------------------


def _diag_row(t, fields, ens, src, scn, tracer_inv_drift, dim_p):
    resE, resB = mx.constraint_residual(fields, src.rho)
    kmag = np.sqrt(np.sum(fields.E ** 2 + fields.B ** 2, axis=0))
    row = [t,
           mx.energy(fields, ens),
           mx.field_energy(fields),
           resE, resB,
           4.0 * np.pi * float(np.sum(ens.w)),
           float(src.rho.max()) if src.rho.size else 0.0,
           float(kmag.max())]
    n_exp = scn.moment_orders
    p0 = ens.p0
    for N in n_exp:
        row.append(float(np.sum(ens.w * p0 ** N)))
        q = N + dim_p
        row.append(float((np.sum(kmag ** q) * fields.grid.cell) ** (1.0 / q)))
    row.append(tracer_inv_drift)
    if dim_p == 3:
        # proxy for the heaviest out-of-plane line integral: the max over a
        # coarse spatial binning of sum w <p3>^(5+delta) / cell
        nb = 16
        ix = np.minimum((ens.x[:, 0] / scn.box * nb).astype(int), nb - 1)
        iy = np.minimum((ens.x[:, 1] / scn.box * nb).astype(int), nb - 1)
        acc = np.zeros((nb, nb))
        p3w = ens.w * (1.0 + ens.p[:, 2] ** 2) ** ((5.0 + scn.delta) / 2.0)
        np.add.at(acc, (ix, iy), p3w)
        cell = (scn.box / nb) ** 2
        row.append(float(acc.max()) / cell)
    else:
        row.append(0.0)
    return row


def _columns(scn: Scenario) -> list:
    cols = ["time", "energy", "field_energy", "gauss_residual", "divb_residual",
            "total_charge", "rho_max", "k_linf"]
    for N in scn.moment_orders:
        cols.append(f"moment_{N:g}")
        cols.append(f"k_l{N + scn.dim_p:g}")
    cols.append("tracer_invariant_drift")
    cols.append("p3_line_bound")
    return cols


def run(scn: Scenario) -> RunResult:
    """Execute a scenario and return diagnostics plus final state."""
    grid = scn.grid
    if scn.dt > min(grid.hx, grid.hy) * (1.0 + 1e-12):
        raise ValueError(f"dt={scn.dt} violates the step bound "
                         f"dt <= h = {min(grid.hx, grid.hy)}")
    ens = sample_ensemble(scn)
    fields, gauge = initial_fields(scn, ens)
    dim_p = scn.dim_p
    box = np.array([scn.box, scn.box])

    n_steps = int(round(scn.t_final / scn.dt))
    history = RunHistory(mode=scn.mode, grid=grid) if scn.store_history else None

    n_tr = min(scn.n_tracers, len(ens)) if gauge is not None else 0
    tracer_rows = []

    def tracer_invariant():
        a3 = gather_tsc(grid, gauge.a3, ens.x[:n_tr])
        return ens.p[:n_tr, 2] + a3

    rows = []
    t = 0.0
    src = deposit(ens, grid)
    if n_tr:
        inv0 = tracer_invariant()
        tracer_rows.append(inv0)
    if history is not None:
        history.record(t, fields, ens)
    rows.append(_diag_row(t, fields, ens, src, scn, 0.0, dim_p))
    e0 = mx.energy(fields, ens)

    for step in range(n_steps):
        # half field step with the current at t
        fields_half = mx.step_maxwell(fields, src, 0.5 * scn.dt)
        # full particle step with the time-centered fields
        if gauge is not None:
            e3_mid = 0.5 * (fields.E[2] + fields_half.E[2])
            gauge_half = mx.evolve_a3(gauge, e3_mid, 0.5 * scn.dt)
        else:
            gauge_half = None
        sampler = make_field_sampler(fields_half, gauge_half)
        xn, pn = chars.push_many(ens.x, ens.p, sampler, t, scn.dt)
        xn = wrap_box(xn, box)
        ens = ParticleEnsemble(dim_p=dim_p, x=xn, p=pn, w=ens.w, box=box)
        # half field step with the current at t + dt
        src = deposit(ens, grid)
        fields = mx.step_maxwell(fields_half, src, 0.5 * scn.dt)
        if scn.gauss_correction:
            kx, ky = grid.gradient_wavenumbers()
            e1k = np.fft.fft2(fields.E[0])
            e2k = np.fft.fft2(fields.E[1])
            k2 = kx * kx + ky * ky
            ks = np.where(k2 > 0, k2, 1.0)
            par = np.where(k2 > 0, (kx * e1k + ky * e2k) / ks, 0.0)
            el = mx.poisson_efield(src.rho, grid)
            fields.E[0] += el[0] - np.fft.ifft2(kx * par).real
            fields.E[1] += el[1] - np.fft.ifft2(ky * par).real
        if gauge is not None:
            e3_mid = 0.5 * (fields_half.E[2] + fields.E[2])
            gauge = mx.evolve_a3(gauge_half, e3_mid, 0.5 * scn.dt)
        t += scn.dt
        if not (np.all(np.isfinite(ens.p)) and np.all(np.isfinite(fields.E))):
            raise FloatingPointError(f"non-finite state at t={t}")

        if history is not None:
            history.record(t, fields, ens)
        if (step + 1) % scn.diagnostic_every == 0 or step == n_steps - 1:
            drift = 0.0
            if n_tr:
                inv = tracer_invariant()
                tracer_rows.append(inv)
                drift = float(np.abs(inv - inv0).max())
            rows.append(_diag_row(t, fields, ens, src, scn, drift, dim_p))

    series = DiagnosticSeries(columns=_columns(scn), data=np.asarray(rows))
    tracer_inv = np.asarray(tracer_rows) if tracer_rows else None
    return RunResult(scenario=scn, series=series, ensemble=ens, fields=fields,
                     gauge=gauge, history=history, tracer_invariant=tracer_inv,
                     initial_energy=e0)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


def conservation_report(result: RunResult) -> dict:
    """Max relative drifts of the conserved quantities over the run."""
    s = result.series
    t = s.column("time")
    energy = s.column("energy")
    charge = s.column("total_charge")
    gauss = s.column("gauss_residual")
    report = {
        "energy_drift": float(np.abs(energy - energy[0]).max()
                              / max(abs(energy[0]), 1e-300)),
        "charge_drift": float(np.abs(charge - charge[0]).max()
                              / max(abs(charge[0]), 1e-300)),
        "gauss_initial": float(gauss[0]),
        "gauss_max": float(gauss.max()),
        # floor keeps the ratio meaningful when the residual sits at
        # rounding noise for the whole run
        "gauss_growth": float((gauss[len(gauss) // 2:].max() + 1e-13)
                              / (gauss[:max(len(gauss) // 2, 1)].max() + 1e-13)),
        "duration": float(t[-1] - t[0]),
    }
    if result.tracer_invariant is not None and result.tracer_invariant.size:
        inv = result.tracer_invariant
        report["tracer_invariant_drift"] = float(np.abs(inv - inv[0]).max())
    return report


def moment_inequality_monitor(result: RunResult, N: float | None = None) -> dict:
    """Empirical constant in the moment growth bound: the time derivative of
    ||p0^N f||^(1/(N+d_p)) is controlled by the spatial L^(N+d_p) norm of the
    field magnitude |K| = |(E, B)|. Reports sup over steps of the ratio."""
    scn = result.scenario
    if N is None:
        N = scn.moment_orders[0]
    d_p = scn.dim_p
    s = result.series
    t = s.column("time")
    mom = s.column(f"moment_{N:g}") ** (1.0 / (N + d_p))
    knorm = s.column(f"k_l{N + d_p:g}")
    if len(t) < 2:
        return {"N": N, "constant": 0.0, "max_deriv": 0.0}
    dmom = np.diff(mom) / np.diff(t)
    kmid = 0.5 * (knorm[1:] + knorm[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(kmid > 0, np.abs(dmom) / kmid, 0.0)
    return {"N": float(N),
            "constant": float(ratio.max()),
            "max_deriv": float(np.abs(dmom).max())}


# --------------------------------------------------------------------------
# Golden scenarios
# --------------------------------------------------------------------------


def golden_2d(**overrides) -> Scenario:
    """Reference planar run: weak counter-streaming beams in a 64^2 box."""
    cfg = dict(
        mode="2d", grid_n=64, box=20.0, dt=0.05, t_final=5.0, seed=7,
        n_particles=100_000,
        f0={"sigma_x": 1.5, "alpha": 18.0, "mass": 0.05,
            "beams": [[0.5, 0.0], [-0.5, 0.0]]},
        fields0={"poisson": True},
        gauss_correction=True, diagnostic_every=5,
        moment_orders=(2.0, 4.0), n_tracers=0,
    )
    cfg.update(overrides)
    return scenario_from_dict(cfg, path="golden_2d")


def golden_25d(**overrides) -> Scenario:
    """Reference 3-momentum run with a gauge-field bump and tracers."""
    cfg = dict(
        mode="2.5d", grid_n=48, box=20.0, dt=0.05, t_final=1.5, seed=11,
        n_particles=20_000,
        f0={"sigma_x": 1.5, "alpha": 18.0, "mass": 0.05, "p3_nu": 16.0,
            "beams": [[0.4, 0.0], [-0.4, 0.0]]},
        fields0={"poisson": True, "a3_amp": 0.05, "a3_sigma": 2.0,
                 "e3_amp": 0.05, "e3_sigma": 2.0},
        gauss_correction=True, diagnostic_every=2,
        moment_orders=(2.0,), delta=1.0, n_tracers=100,
    )
    cfg.update(overrides)
    return scenario_from_dict(cfg, path="golden_25d")


def golden_repr(**overrides) -> Scenario:
    """Zero-initial-field planar run used for the retarded-representation
    comparison: history stored, no Gauss correction (the comparison targets
    the uncorrected Maxwell evolution)."""
    cfg = dict(
        mode="2d", grid_n=64, box=20.0, dt=0.04, t_final=1.6, seed=3,
        n_particles=20_000,
        f0={"sigma_x": 1.0, "alpha": 18.0, "mass": 0.08,
            "beams": [[0.8, 0.0], [-0.8, 0.0]]},
        fields0={},
        gauss_correction=False, diagnostic_every=5,
        moment_orders=(2.0,), n_tracers=0, store_history=True,
    )
    cfg.update(overrides)
    return scenario_from_dict(cfg, path="golden_repr")
