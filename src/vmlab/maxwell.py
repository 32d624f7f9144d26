"""Periodic-grid Maxwell solver with sources, constraint monitoring, the
out-of-plane gauge potential A3, and energy / energy-flux diagnostics.

Fields live on a uniform periodic grid over [0, lx) x [0, ly). Both planar
modes are supported:

  "2d":   E = (E1, E2, 0),  B = (0, 0, B3)   (planar momenta)
  "2.5d": all six components                 (3-component momenta)

Spatial derivatives are spectral (FFT), so the divergence constraints and
Poisson solves are exact at grid scale; no other module transforms. A grid
holds only its sizes: ``Grid.k_table`` and the time step's factors are built
on each call. The time step applies the exact per-Fourier-mode propagator
of the curl system with the current held constant over the step (Duhamel),
which
conserves source-free field energy to machine precision. With k3 = 0 it
splits into the TE triple (E1, E2, B3), driven by (j1, j2), and the TM
triple (B1, B2, E3), driven by j3, which never couple. The Gauss correction
swaps the longitudinal (E1, E2) for the Poisson field of the charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import ParticleEnsemble

__all__ = [
    "Grid",
    "FieldState",
    "step_maxwell",
    "constraint_residual",
    "poisson_efield",
    "gauss_correct",
    "gauge_a3",
    "curl_a3",
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

    @property
    def k_table(self):
        """(kx (nx, 1), ky (1, ny), k2 = kx^2 + ky^2) of the odd-derivative
        (gradient/divergence) operators.

        On even grids the lone signed Nyquist frequency breaks the oddness
        k -> -k that spectral derivatives of real data require, so it is
        zeroed — the standard convention for spectral differentiation. So
        k2 = 0 just on the mean and the self-conjugate corners.
        """
        kx, ky = self.wavenumbers()
        if self.nx % 2 == 0:
            kx[self.nx // 2, 0] = 0.0
        if self.ny % 2 == 0:
            ky[0, self.ny // 2] = 0.0
        return kx, ky, kx * kx + ky * ky

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


def _inv_neg_lap(vk: np.ndarray, grid: Grid) -> np.ndarray:
    """(-lap)^-1 of the spectrum vk: vk / k2, and 0 where k2 = 0."""
    k2 = grid.k_table[2]
    return np.where(k2 > 0, vk / np.where(k2 > 0, k2, 1.0), 0.0)


def _split(k1, k2, v1, v2):
    """(longitudinal 1, 2, transverse 1, 2) parts of the in-plane spectral
    pair (v1, v2) along the unit wavevector (k1, k2)."""
    par = k1 * v1 + k2 * v2
    l1, l2 = k1 * par, k2 * par
    return l1, l2, v1 - l1, v2 - l2


def step_maxwell(fields: FieldState, j: np.ndarray, dt: float) -> FieldState:
    """Advance E, B by dt with the current density j (3, nx, ny) held
    constant over the step.

    Per Fourier mode the curl system dE/dt = ik x B - j, dB/dt = -ik x E is
    solved exactly: the transverse pair rotates with angle |k| dt and the
    constant current enters through the closed-form Duhamel term; the
    longitudinal electric part integrates dE/dt = -j exactly. Only 2.5d
    steps the TM triple (B1, B2, E3); in 2d it stays 0 and j3 is not read.
    The per-mode factors are built on each call from ``Grid.wavenumbers``.
    Each component keeps its own ``fft2`` call: one call on the stacked
    components has the same bits but was slower, and its larger temporaries
    raised peak RSS.

    The propagator is stable for any dt. The step bound dt <= min(hx, hy)
    of the particle coupling is checked where a dt enters the program:
    ``pic.run`` checks the scenario's dt, and ``pic.RunHistory.load_npz``
    the gaps between the stored times.

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
    kx, ky = g.wavenumbers()
    kmag = np.sqrt(kx * kx + ky * ky)
    nz = kmag > 0.0
    ksafe = np.where(nz, kmag, 1.0)
    # the unit wavevector (0 at k = 0) and the rotation and Duhamel factors
    k1, k2 = np.where(nz, kx / ksafe, 0.0), np.where(nz, ky / ksafe, 0.0)
    c, s = np.cos(kmag * dt), np.sin(kmag * dt)
    isn, sk = 1j * s, np.where(nz, s / ksafe, dt)
    ick = 1j * np.where(nz, (1.0 - c) / ksafe, 0.0)
    E = np.zeros((3, g.nx, g.ny))
    B = np.zeros((3, g.nx, g.ny))
    b3 = _fft2(fields.B[2])
    e1l, e2l, e1, e2 = _split(k1, k2, _fft2(fields.E[0]), _fft2(fields.E[1]))
    j1l, j2l, j1, j2 = _split(k1, k2, _fft2(j[0]), _fft2(j[1]))
    E[0] = _ifft2(c * e1 + isn * (k2 * b3) - sk * j1 + e1l - dt * j1l)
    E[1] = _ifft2(c * e2 + isn * (-k1 * b3) - sk * j2 + e2l - dt * j2l)
    B[2] = _ifft2(c * b3 - isn * (k1 * e2 - k2 * e1)
                  + ick * (k1 * j2 - k2 * j1))
    if fields.mode == "2.5d":
        e3, j3 = _fft2(fields.E[2]), _fft2(j[2])
        b1l, b2l, b1, b2 = _split(k1, k2, _fft2(fields.B[0]),
                                  _fft2(fields.B[1]))
        B[0] = _ifft2(c * b1 - isn * (k2 * e3) + ick * (k2 * j3) + b1l)
        B[1] = _ifft2(c * b2 - isn * (-k1 * e3) + ick * (-k1 * j3) + b2l)
        E[2] = _ifft2(c * e3 + isn * (k1 * b2 - k2 * b1) - sk * j3)
    return FieldState(mode=fields.mode, grid=g, E=E, B=B)


def constraint_residual(fields: FieldState, rho: np.ndarray) -> tuple[float, float]:
    """Discrete L2 residuals (||div E - rho||_2, ||div B||_2) with spectral
    divergences and the grid cell measure.

    rho is projected onto the range of the discrete divergence before
    comparing: the modes where k2 = 0 are dropped, that is the spatial mean
    (on the periodic box a nonzero net charge is neutralized by a uniform
    background) and, on even grids, the self-conjugate corners, where the
    divergence of any real field vanishes identically.
    """
    g = fields.grid
    kx, ky, k2 = g.k_table
    divE = _ifft2(1j * (kx * _fft2(fields.E[0]) + ky * _fft2(fields.E[1])))
    divB = _ifft2(1j * (kx * _fft2(fields.B[0]) + ky * _fft2(fields.B[1])))
    rho = _ifft2(np.where(k2 > 0, _fft2(np.asarray(rho, dtype=float)), 0.0))
    resE = math.sqrt(float(np.sum((divE - rho) ** 2)) * g.cell)
    resB = math.sqrt(float(np.sum(divB ** 2)) * g.cell)
    return resE, resB


def poisson_efield(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Curl-free E whose divergence is rho projected onto the range of the
    spectral divergence (spectral Poisson solve).

    The k = 0 mode of rho is dropped (on a periodic box a nonzero net charge
    is neutralized by a uniform background), as are the unresolvable corner
    modes on even grids. Returns shape (3, nx, ny).
    """
    kx, ky, _ = grid.k_table
    # -lap phi = rho, E = -grad phi
    phik = _inv_neg_lap(_fft2(np.asarray(rho, dtype=float)), grid)
    E = np.zeros((3, grid.nx, grid.ny))
    E[0] = _ifft2(-1j * kx * phik)
    E[1] = _ifft2(-1j * ky * phik)
    return E


def gauss_correct(fields: FieldState, rho: np.ndarray) -> None:
    """Replace the longitudinal part of (E1, E2) with ``poisson_efield(rho)``
    in place, so div E = rho up to rounding; the transverse part, E3 and B
    are kept."""
    g = fields.grid
    kx, ky, _ = g.k_table
    par = _inv_neg_lap(kx * _fft2(fields.E[0]) + ky * _fft2(fields.E[1]), g)
    el = poisson_efield(rho, g)
    fields.E[0] += el[0] - _ifft2(kx * par)
    fields.E[1] += el[1] - _ifft2(ky * par)


def gauge_a3(fields: FieldState) -> np.ndarray:
    """The out-of-plane vector potential A3 (nx, ny): solve
    lap A3 = d2 B1 - d1 B2 spectrally (mean-zero branch).

    Only meaningful in 2.5d mode, where B1 = d2 A3 and B2 = -d1 A3.
    """
    if fields.mode != "2.5d":
        raise ValueError("gauge potential A3 is only defined in 2.5d mode")
    g = fields.grid
    kx, ky, _ = g.k_table
    rhs = 1j * ky * _fft2(fields.B[0]) - 1j * kx * _fft2(fields.B[1])
    return _ifft2(_inv_neg_lap(-rhs, g))


def curl_a3(a3: np.ndarray, grid: Grid) -> np.ndarray:
    """The in-plane B = (d2 A3, -d1 A3) of the potential A3 (nx, ny), shape
    (2, nx, ny); ``gauge_a3`` inverts it up to A3's mean."""
    kx, ky, _ = grid.k_table
    a3k = _fft2(a3)
    return np.stack([_ifft2(1j * ky * a3k), -_ifft2(1j * kx * a3k)])


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
    direction omega = (w1, w2, 0); vectorized over leading axes.

    Computed one component at a time, to the bits of
    ``0.5 * np.sum(E * E + B * B, axis=-1) + np.sum(om * np.cross(E, B),
    axis=-1)`` with om = (w1, w2, 0): each cross-product component as
    ``np.cross`` writes it, and three terms added left to right as NumPy's
    sum over an axis of length 3 adds them. A reduction over such a short
    axis, or a (..., 3) temporary, is several times slower.
    """
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    w = np.asarray(omega, dtype=float)
    e0, e1, e2 = E[..., 0], E[..., 1], E[..., 2]
    b0, b1, b2 = B[..., 0], B[..., 1], B[..., 2]
    energy = (e0 * e0 + b0 * b0) + (e1 * e1 + b1 * b1) + (e2 * e2 + b2 * b2)
    flux = (w[..., 0] * (e1 * b2 - e2 * b1) + w[..., 1] * (e2 * b0 - e0 * b2)
            + 0.0 * (e0 * b1 - e1 * b0))
    return 0.5 * energy + flux


def good_component_sq(E, B, omega, mode: str):
    """K_g^2, the squared field components controlled by the null-cone flux.

    2.5d:  |E.w|^2 + |B.w|^2 + |E - w x B|^2 + |B + w x E|^2
    2d:    2 (|E.w|^2 + |B3 + w ^ E|^2)      (w ^ E = w1 E2 - w2 E1)

    In both cases (1/4) K_g^2 equals the energy flux of flux_identity_lhs.
    Vectorized over leading axes; E, B have trailing axis 3, omega trailing
    axis 2 (unit vectors). The 2.5d form is computed one component at a
    time, to the bits of its ``np.cross`` and ``np.sum(..., axis=-1)``
    formula with w = (w1, w2, 0), as in flux_identity_lhs.
    """
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    w = np.asarray(omega, dtype=float)
    w0, w1 = w[..., 0], w[..., 1]
    if mode == "2d":
        edotw = E[..., 0] * w0 + E[..., 1] * w1
        wedge = w0 * E[..., 1] - w1 * E[..., 0]
        return 2.0 * (edotw ** 2 + (B[..., 2] + wedge) ** 2)
    e0, e1, e2 = E[..., 0], E[..., 1], E[..., 2]
    b0, b1, b2 = B[..., 0], B[..., 1], B[..., 2]
    edotw = (e0 * w0 + e1 * w1) + e2 * 0.0
    bdotw = (b0 * w0 + b1 * w1) + b2 * 0.0
    # E - w x B and B + w x E, component by component
    u0 = e0 - (w1 * b2 - 0.0 * b1)
    u1 = e1 - (0.0 * b0 - w0 * b2)
    u2 = e2 - (w0 * b1 - w1 * b0)
    v0 = b0 + (w1 * e2 - 0.0 * e1)
    v1 = b1 + (0.0 * e0 - w0 * e2)
    v2 = b2 + (w0 * e1 - w1 * e0)
    return (edotw ** 2 + bdotw ** 2 + ((u0 * u0 + u1 * u1) + u2 * u2)
            + ((v0 * v0 + v1 * v1) + v2 * v2))


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
            fh.write(",".join(map(repr, arr.ravel(order="C").tolist())))
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
