"""One step of the characteristic flow of the relativistic Vlasov equation.

The trajectories solve

    dX/ds = Vhat,      dV/ds = E + Vhat x B,      Vhat = V / sqrt(1 + |V|^2),

with the planar ansatz: positions live in R^2 while momenta are 2-vectors
(in-plane B reduced to its out-of-plane component) or 3-vectors (full fields).

The single-step integrator is a symmetric Boris-type split
(half drift, half electric kick, exact magnetic rotation, half kick, half
drift) with fields sampled at the midpoint time. With planar momenta the
rotation turns (V1, V2) in the plane by the angle B3 dt / V0; with
3-momenta it is a Rodrigues rotation about B by |B| dt / V0. Either way
magnetic forces conserve |V| to machine precision, and the planar step is
bit for bit the 3-momentum step at V3 = 0.

``push_many`` advances a batch of particles by one step of either sign; the
flow over a time span is a loop of such steps, as in ``pic.run``.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .phase import p0_of

__all__ = [
    "FieldSampler",
    "push_many",
]


class FieldSampler(Protocol):
    """Evaluation contract (t, x) -> (E, B) with 3-component field vectors.

    x has shape (..., 2); E and B have shape (..., 3). Planar-momentum mode
    requires E = (E1, E2, 0) and B = (0, 0, B3), and reads only E[..., :2]
    and B[..., 2].
    """

    def __call__(self, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


def _rotate_about(p3: np.ndarray, b: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of p3 about unit axis b by the given angle, with the
    rotation sense of dp/dtheta = p x b (magnetic gyration)."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    pb = np.sum(p3 * b, axis=-1)[..., None]
    return c * p3 + s * np.cross(p3, b) + (1.0 - c) * pb * b


def push_many(x: np.ndarray, p: np.ndarray, fields: FieldSampler, t: float,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One symmetric step for a batch of particles; works for dt of either sign.

    x: (..., 2) positions, p: (..., d_p) momenta at time t.
    Returns (x, p) at time t + dt.
    """
    p0 = p0_of(p)
    xh = x + (0.5 * dt) * (p[..., :2] / p0[..., None])
    E, B = fields(t + 0.5 * dt, xh)
    if p.shape[-1] == 2:
        # B = (0, 0, B3) turns (p1, p2) in the plane by B3 dt / p0
        e = np.asarray(E, dtype=float)[..., :2]
        pm = p + (0.5 * dt) * e
        theta = np.asarray(B, dtype=float)[..., 2] * dt / p0_of(pm)
        c, s = np.cos(theta), np.sin(theta)
        pp = np.stack([c * pm[..., 0] + s * pm[..., 1],
                       c * pm[..., 1] - s * pm[..., 0]], axis=-1)
        pn = pp + (0.5 * dt) * e
    else:
        E = np.broadcast_to(np.asarray(E, dtype=float), xh.shape[:-1] + (3,))
        B = np.broadcast_to(np.asarray(B, dtype=float), xh.shape[:-1] + (3,))
        pm = p + (0.5 * dt) * E
        bmag = np.sqrt(np.sum(B * B, axis=-1))
        active = bmag > 0.0
        if np.any(active):
            safe = np.where(active, bmag, 1.0)
            angle = np.where(active, bmag * dt / p0_of(pm), 0.0)
            rot = _rotate_about(pm, B / safe[..., None], angle)
            pp = np.where(active[..., None], rot, pm)
        else:
            pp = pm
        pn = pp + (0.5 * dt) * E
    xn = xh + (0.5 * dt) * (pn[..., :2] / p0_of(pn)[..., None])
    return xn, pn
