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


def _drift(x: np.ndarray, p: np.ndarray, p0: np.ndarray,
           h: float) -> np.ndarray:
    """x + h p / p0 over the in-plane components, one column at a time,
    into a column-ordered (n, 2) array."""
    out = np.empty(x.shape, order="F")
    for c in range(2):
        np.add(x[:, c], h * (p[:, c] / p0), out=out[:, c])
    return out


def push_many(x: np.ndarray, p: np.ndarray, p0: np.ndarray, fields,
              dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One symmetric step for a batch of particles; works for dt of either sign.

    x: (n, 2) positions, p: (n, d_p) momenta with energies p0 = ``p0_of(p)``
    (n,); ``fields`` is the sampler x -> (E, B) of the live components.
    Returns (x, p, p0) one step of dt later; x, and p with planar momenta,
    are column-ordered.

    The half drifts, and with planar momenta the kicks, |p|^2 and the
    rotation too, go one contiguous (n,) column at a time, into
    column-ordered arrays: a broadcast over a length-2 inner axis runs one
    inner loop per row. Each column gets the bits of the (n, 2) form, so
    the result does not depend on the layout of x, p or E; it is fastest
    when their columns are contiguous, as ``pic.run`` keeps them.
    """
    h = 0.5 * dt
    xh = _drift(x, p, p0, h)
    E, B = fields(xh)
    if p.shape[-1] == 2:
        pm, pn = np.empty(p.shape, order="F"), np.empty(p.shape, order="F")
        for k in range(2):
            np.add(p[:, k], h * E[:, k], out=pm[:, k])
        # B = (0, 0, B3) turns (p1, p2) in the plane by B3 dt / p0
        theta = B * dt / p0_of(pm)
        c, s = np.cos(theta), np.sin(theta)
        np.add(c * pm[:, 0], s * pm[:, 1], out=pn[:, 0])
        np.subtract(c * pm[:, 1], s * pm[:, 0], out=pn[:, 1])
        for k in range(2):
            pn[:, k] += h * E[:, k]
    else:
        pm = p + h * E
        # B = 0 gives angle 0 about a zero axis, which returns pm unchanged
        bmag = np.sqrt(np.sum(B * B, axis=-1))
        axis = B / np.where(bmag > 0.0, bmag, 1.0)[..., None]
        pn = _rotate_about(pm, axis, bmag * dt / p0_of(pm)) + h * E
    p0n = p0_of(pn)
    return _drift(xh, pn, p0n, h), pn, p0n
