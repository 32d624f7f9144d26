"""Periodic-grid Maxwell solver with sources, constraint monitoring, the
out-of-plane gauge potential A3, and energy / energy-flux diagnostics.

Fields live on a uniform periodic grid over [0, lx) x [0, ly). Both planar
modes are supported:

  "2d":   E = (E1, E2, 0),  B = (0, 0, B3)   (planar momenta)
  "2.5d": all six components                 (3-component momenta)

Spatial derivatives are spectral (FFT), so the divergence constraints and
Poisson solves are exact at grid scale. The time step applies the exact
per-Fourier-mode propagator of the curl system with the current held
constant over the step (Duhamel), which conserves source-free field energy
to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import ParticleEnsemble, embed3

__all__ = [
    "Grid",
    "FieldState",
    "step_maxwell",
    "constraint_residual",
    "poisson_efield",
    "gauge_a3",
    "evolve_a3",
    "field_energy",
    "energy",
    "flux_identity_lhs",
    "good_component_sq",
    "save_field",
    "load_field",
]

MODES = ("2d", "2.5d")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid over [0, lx) x [0, ly)."""

    nx: int
    ny: int
    lx: float
    ly: float

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell(self) -> float:
        return self.hx * self.hy

    def wavenumbers(self):
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.hx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.hy)
        return kx[:, None], ky[None, :]

    def gradient_wavenumbers(self):
        """Wavenumbers for odd-derivative (gradient/divergence) operators.

        On even grids the lone signed Nyquist frequency breaks the oddness
        k -> -k that spectral derivatives of real data require, so it is
        zeroed — the standard convention for spectral differentiation.
        """
        kx, ky = self.wavenumbers()
        kx = kx.copy()
        ky = ky.copy()
        if self.nx % 2 == 0:
            kx[self.nx // 2, 0] = 0.0
        if self.ny % 2 == 0:
            ky[0, self.ny // 2] = 0.0
        return kx, ky

    def mesh(self):
        x = (np.arange(self.nx) + 0.0) * self.hx
        y = (np.arange(self.ny) + 0.0) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class FieldState:
    """Electromagnetic field on the grid: E, B with shape (3, nx, ny)."""

    mode: str
    grid: Grid
    E: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        shape = (3, self.grid.nx, self.grid.ny)
        self.E = np.asarray(self.E, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.E.shape != shape or self.B.shape != shape:
            raise ValueError(f"field arrays must have shape {shape}")
        if not (np.all(np.isfinite(self.E)) and np.all(np.isfinite(self.B))):
            raise ValueError("non-finite field values")
        if self.mode == "2d":
            if np.any(self.E[2]) or np.any(self.B[0]) or np.any(self.B[1]):
                raise ValueError("2d mode requires E3 = B1 = B2 = 0")

    @classmethod
    def zeros(cls, mode: str, grid: Grid) -> "FieldState":
        z = np.zeros((3, grid.nx, grid.ny))
        return cls(mode=mode, grid=grid, E=z.copy(), B=z.copy())


# --------------------------------------------------------------------------
# Spectral helpers
# --------------------------------------------------------------------------


def _fft2(a: np.ndarray) -> np.ndarray:
    return np.fft.fft2(a, axes=(-2, -1))


def _ifft2(a: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(a, axes=(-2, -1)).real


def _cross_khat(khat1, khat2, v):
    """(khat x v) for khat = (khat1, khat2, 0) and v with shape (3, nx, ny)."""
    return np.stack([
        khat2 * v[2],
        -khat1 * v[2],
        khat1 * v[1] - khat2 * v[0],
    ])


def step_maxwell(fields: FieldState, j: np.ndarray, dt: float) -> FieldState:
    """Advance E, B by dt with the current density j (3, nx, ny) held
    constant over the step.

    Per Fourier mode the curl system dE/dt = ik x B - j, dB/dt = -ik x E is
    solved exactly: the transverse pair rotates with angle |k| dt and the
    constant current enters through the closed-form Duhamel term; the
    longitudinal electric part integrates dE/dt = -j exactly.

    A CFL-style precondition dt <= min(hx, hy) is enforced before
    stepping (the propagator itself is unconditionally stable; the check
    guards the particle coupling accuracy).

    The update is exact (and exactly energy conserving) on the subspace of
    fields with empty Nyquist rows. A self-conjugate Nyquist mode is a pure
    cosine whose evolution excites the sine partner that aliases to zero on
    the grid, so such modes decay as cos(|k| dt) per step instead of
    rotating; smooth fields carry negligible energy there.
    """
    g = fields.grid
    if np.shape(j) != (3, g.nx, g.ny):
        raise ValueError(f"current must have the field grid's shape "
                         f"{(3, g.nx, g.ny)}, got {np.shape(j)}")
    h = min(g.hx, g.hy)
    if dt > h * (1.0 + 1e-12):
        raise ValueError(f"time step dt={dt} violates dt <= h = {h}")

    Ek = _fft2(fields.E)
    Bk = _fft2(fields.B)
    jk = _fft2(j)

    kx, ky = g.wavenumbers()
    kmag = np.sqrt(kx * kx + ky * ky)
    nz = kmag > 0.0
    ksafe = np.where(nz, kmag, 1.0)
    khat1 = np.where(nz, kx / ksafe, 0.0)
    khat2 = np.where(nz, ky / ksafe, 0.0)

    # longitudinal / transverse split (k3 = 0, so E3 and B3 are transverse)
    def split(vk):
        par = khat1 * vk[0] + khat2 * vk[1]
        vpar = np.stack([khat1 * par, khat2 * par, np.zeros_like(par)])
        return vpar, vk - vpar

    Epar, Eperp = split(Ek)
    Bpar, Bperp = split(Bk)
    jpar, jperp = split(jk)

    c = np.cos(kmag * dt)
    s = np.sin(kmag * dt)
    sk = np.where(nz, s / ksafe, dt)                  # sin(k dt)/k -> dt
    ck = np.where(nz, (1.0 - c) / ksafe, 0.0)         # (1-cos(k dt))/k -> 0

    En = c * Eperp + 1j * s * _cross_khat(khat1, khat2, Bperp) - sk * jperp
    Bn = c * Bperp - 1j * s * _cross_khat(khat1, khat2, Eperp) \
        + 1j * ck * _cross_khat(khat1, khat2, jperp)
    En = En + Epar - dt * jpar
    Bn = Bn + Bpar
    # k = 0 mode: dE/dt = -j, B constant (handled by sk -> dt, ck -> 0 above
    # for the "perp" branch where khat = 0 makes the rotation trivial)

    E = _ifft2(En)
    B = _ifft2(Bn)
    if fields.mode == "2d":
        E[2] = 0.0
        B[0] = 0.0
        B[1] = 0.0
    return FieldState(mode=fields.mode, grid=g, E=E, B=B)


def constraint_residual(fields: FieldState, rho: np.ndarray) -> tuple[float, float]:
    """Discrete L2 residuals (||div E - rho||_2, ||div B||_2) with spectral
    divergences and the grid cell measure.

    rho is projected onto the range of the discrete divergence before
    comparing: the spatial mean is removed (on the periodic box a nonzero
    net charge is neutralized by a uniform background) and, on even grids,
    the self-conjugate corner modes are zeroed, since the divergence of any
    real field vanishes identically there.
    """
    g = fields.grid
    kx, ky = g.gradient_wavenumbers()
    divE = _ifft2(1j * (kx * _fft2(fields.E[0]) + ky * _fft2(fields.E[1])))
    divB = _ifft2(1j * (kx * _fft2(fields.B[0]) + ky * _fft2(fields.B[1])))
    rho = _project_divergence_range(np.asarray(rho, dtype=float), g)
    resE = math.sqrt(float(np.sum((divE - rho) ** 2)) * g.cell)
    resB = math.sqrt(float(np.sum(divB ** 2)) * g.cell)
    return resE, resB


def _project_divergence_range(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Project rho onto the range of the spectral divergence on real fields:
    remove the spatial mean and, on even grids, the self-conjugate corner
    modes annihilated by the gradient-wavenumber convention."""
    rhok = _fft2(rho)
    rows = [0] + ([grid.nx // 2] if grid.nx % 2 == 0 else [])
    cols = [0] + ([grid.ny // 2] if grid.ny % 2 == 0 else [])
    for i in rows:
        for j in cols:
            rhok[i, j] = 0.0
    return _ifft2(rhok)


def poisson_efield(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Curl-free E whose divergence is rho projected onto the range of the
    spectral divergence (spectral Poisson solve).

    The k = 0 mode of rho is dropped (on a periodic box a nonzero net charge
    is neutralized by a uniform background), as are the unresolvable corner
    modes on even grids. Returns shape (3, nx, ny).
    """
    kx, ky = grid.gradient_wavenumbers()
    k2 = kx * kx + ky * ky
    k2safe = np.where(k2 > 0, k2, 1.0)
    rhok = _fft2(np.asarray(rho, dtype=float))
    phik = np.where(k2 > 0, rhok / k2safe, 0.0)   # -lap phi = rho, E = -grad phi
    E = np.zeros((3, grid.nx, grid.ny))
    E[0] = _ifft2(-1j * kx * phik)
    E[1] = _ifft2(-1j * ky * phik)
    return E


def gauge_a3(fields: FieldState) -> np.ndarray:
    """The out-of-plane vector potential A3 (nx, ny): solve
    lap A3 = d2 B1 - d1 B2 spectrally (mean-zero branch).

    Only meaningful in 2.5d mode, where B1 = d2 A3 and B2 = -d1 A3.
    """
    if fields.mode != "2.5d":
        raise ValueError("gauge potential A3 is only defined in 2.5d mode")
    g = fields.grid
    kx, ky = g.gradient_wavenumbers()
    k2 = kx * kx + ky * ky
    k2safe = np.where(k2 > 0, k2, 1.0)
    rhs = 1j * ky * _fft2(fields.B[0]) - 1j * kx * _fft2(fields.B[1])
    a3k = np.where(k2 > 0, -rhs / k2safe, 0.0)
    return _ifft2(a3k)


def evolve_a3(a3: np.ndarray, e3_mid: np.ndarray, dt: float) -> np.ndarray:
    """Advance dA3/dt = -E3 by one step; e3_mid is the time-centered E3
    (trapezoid average of the field before and after the Maxwell step)."""
    return a3 - dt * e3_mid


# --------------------------------------------------------------------------
# Energy and energy flux
# --------------------------------------------------------------------------


def field_energy(fields: FieldState) -> float:
    """(1/2) integral of |E|^2 + |B|^2 over the box."""
    g = fields.grid
    return 0.5 * float(np.sum(fields.E ** 2 + fields.B ** 2)) * g.cell


def energy(fields: FieldState, ens: ParticleEnsemble) -> float:
    """Total energy (1/2)∫(|E|^2+|B|^2) dx + 4π Σ_i w_i p0_i."""
    return field_energy(fields) + 4.0 * np.pi * float(np.sum(ens.w * ens.p0))


def flux_identity_lhs(E, B, omega):
    """Energy flux (1/2)(|E|^2+|B|^2) + omega.(E x B) for a unit in-plane
    direction omega = (w1, w2, 0); vectorized over leading axes."""
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    om = embed3(np.asarray(omega, dtype=float)[..., :2])
    poynting = np.cross(E, B)
    return 0.5 * np.sum(E * E + B * B, axis=-1) + np.sum(om * poynting, axis=-1)


def good_component_sq(E, B, omega, mode: str):
    """K_g^2, the squared field components controlled by the null-cone flux.

    2.5d:  |E.w|^2 + |B.w|^2 + |E - w x B|^2 + |B + w x E|^2
    2d:    2 (|E.w|^2 + |B3 + w ^ E|^2)      (w ^ E = w1 E2 - w2 E1)

    In both cases (1/4) K_g^2 equals the energy flux of flux_identity_lhs.
    Vectorized over leading axes; E, B have trailing axis 3, omega trailing
    axis 2 (unit vectors).
    """
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    w2 = np.asarray(omega, dtype=float)
    if mode == "2d":
        edotw = E[..., 0] * w2[..., 0] + E[..., 1] * w2[..., 1]
        wedge = w2[..., 0] * E[..., 1] - w2[..., 1] * E[..., 0]
        return 2.0 * (edotw ** 2 + (B[..., 2] + wedge) ** 2)
    om = embed3(w2[..., :2])
    edotw = np.sum(E * om, axis=-1)
    bdotw = np.sum(B * om, axis=-1)
    embx = E - np.cross(om, B)
    bpwe = B + np.cross(om, E)
    return edotw ** 2 + bdotw ** 2 + np.sum(embx * embx, axis=-1) \
        + np.sum(bpwe * bpwe, axis=-1)


# --------------------------------------------------------------------------
# Field snapshots
# --------------------------------------------------------------------------
#
# Snapshot format (documented byte-exact):
#   line 1: "# mode=<mode> nx=<nx> ny=<ny> lx=<lx> ly=<ly> time=<t>"
#           with repr() floats; t is the time the caller gives
#   then one line per component in the order E1,E2,E3,B1,B2,B3, each holding
#   the row-major (C-order) grid values joined by "," via repr().
# Newlines are "\n"; encoding is ASCII.


def save_field(fields: FieldState, time: float, path) -> None:
    g = fields.grid
    with open(path, "w", newline="") as fh:
        fh.write(f"# mode={fields.mode} nx={g.nx} ny={g.ny} "
                 f"lx={float(g.lx)!r} ly={float(g.ly)!r} "
                 f"time={float(time)!r}\n")
        for arr in (*fields.E, *fields.B):
            fh.write(",".join(repr(float(v)) for v in arr.ravel(order="C")))
            fh.write("\n")


def load_field(path) -> tuple[FieldState, float]:
    """Read a ``save_field`` snapshot: the fields and the time in its header."""
    with open(path) as fh:
        head = fh.readline().strip()
        if not head.startswith("# mode="):
            raise ValueError(f"{path}: missing field snapshot header")
        meta = dict(tok.split("=", 1) for tok in head[2:].split())
        grid = Grid(nx=int(meta["nx"]), ny=int(meta["ny"]),
                    lx=float(meta["lx"]), ly=float(meta["ly"]))
        comps = []
        for _ in range(6):
            line = fh.readline()
            vals = np.array([float(v) for v in line.strip().split(",")])
            comps.append(vals.reshape(grid.nx, grid.ny))
    fields = FieldState(mode=meta["mode"], grid=grid,
                        E=np.stack(comps[:3]), B=np.stack(comps[3:]))
    return fields, float(meta["time"])
