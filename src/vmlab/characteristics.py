"""One step of the characteristic flow of the relativistic Vlasov equation.

The trajectories solve

    dX/ds = Vhat,      dV/ds = E + Vhat x B,      Vhat = V / sqrt(1 + |V|^2),

with the planar ansatz: positions live in R^2 while momenta are 2-vectors
(in-plane B reduced to its out-of-plane component) or 3-vectors (full fields).

The single-step integrator is a symmetric Boris-type split
(half drift, half electric kick, exact magnetic rotation, half kick, half
drift) with the fields frozen over the step, sampled at the half-drift
position. A sampler ``fields(x) -> (E, B)`` returns only the components the
push reads: E = (E1, E2) of shape (n, 2) and B = B3 of shape (n,) for
planar momenta, E and B of shape (n, 3) for 3-momenta. With planar momenta
the rotation turns (V1, V2) in the plane by the angle B3 dt / V0; with
3-momenta it is a Rodrigues rotation about B by |B| dt / V0. Either way
magnetic forces conserve |V| to machine precision, and the planar step is
bit for bit the 3-momentum step at V3 = 0.

``push_many`` advances a batch of particles by one step of either sign; the
flow over a time span is a loop of such steps, as in ``pic.run``.
"""

from __future__ import annotations

import numpy as np

from .phase import p0_of

__all__ = ["push_many"]


def _rotate_about(p3: np.ndarray, b: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of p3 about the unit (or zero) axis b by the given
    angle, with the rotation sense of dp/dtheta = p x b (magnetic gyration)."""
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    pb = np.sum(p3 * b, axis=-1)[..., None]
    return c * p3 + s * np.cross(p3, b) + (1.0 - c) * pb * b


def push_many(x: np.ndarray, p: np.ndarray, p0: np.ndarray, fields,
              dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One symmetric step for a batch of particles; works for dt of either sign.

    x: (n, 2) positions, p: (n, d_p) momenta with energies p0 = ``p0_of(p)``
    (n,); ``fields`` is the sampler x -> (E, B) of the live components.
    Returns (x, p, p0) one step of dt later.
    """
    xh = x + (0.5 * dt) * (p[..., :2] / p0[..., None])
    E, B = fields(xh)
    pm = p + (0.5 * dt) * E
    if p.shape[-1] == 2:
        # B = (0, 0, B3) turns (p1, p2) in the plane by B3 dt / p0
        theta = B * dt / p0_of(pm)
        c, s = np.cos(theta), np.sin(theta)
        pp = np.stack([c * pm[..., 0] + s * pm[..., 1],
                       c * pm[..., 1] - s * pm[..., 0]], axis=-1)
    else:
        # B = 0 gives angle 0 about a zero axis, which returns pm unchanged
        bmag = np.sqrt(np.sum(B * B, axis=-1))
        axis = B / np.where(bmag > 0.0, bmag, 1.0)[..., None]
        pp = _rotate_about(pm, axis, bmag * dt / p0_of(pm))
    pn = pp + (0.5 * dt) * E
    p0n = p0_of(pn)
    xn = xh + (0.5 * dt) * (pn[..., :2] / p0n[..., None])
    return xn, pn, p0n
