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
    Returns (x, p, p0) one step of dt later; x and p are column-ordered.

    The half drifts, the kicks, |p|^2 and the rotation go one contiguous
    (n,) column at a time, into column-ordered arrays: a broadcast over a
    length-2 or length-3 inner axis runs one inner loop per row. Each column
    gets the bits of the (n, d_p) form, with the 3-momentum rotation in
    ``np.cross``'s formula and its sums in ``np.sum``'s order, so the result
    does not depend on the layout of x, p, E or B; it is fastest when their
    columns are contiguous, as ``pic.run`` and the PIC samplers keep them.
    """
    h = 0.5 * dt
    xh = _drift(x, p, p0, h)
    E, B = fields(xh)
    d = p.shape[-1]
    pm, pn = np.empty(p.shape, order="F"), np.empty(p.shape, order="F")
    for k in range(d):
        np.add(p[:, k], h * E[:, k], out=pm[:, k])
    if d == 2:
        # B = (0, 0, B3) turns (p1, p2) in the plane by B3 dt / p0
        theta = B * dt / p0_of(pm)
        c, s = np.cos(theta), np.sin(theta)
        np.add(c * pm[:, 0], s * pm[:, 1], out=pn[:, 0])
        np.subtract(c * pm[:, 1], s * pm[:, 0], out=pn[:, 1])
    else:
        # Rodrigues rotation about the axis a = B / |B| by |B| dt / p0, with
        # the sense of dp/dtheta = p x a; B = 0 gives angle 0 about a zero
        # axis, which returns pm unchanged
        bmag = np.sqrt((B[:, 0] * B[:, 0] + B[:, 1] * B[:, 1])
                       + B[:, 2] * B[:, 2])
        safe = np.where(bmag > 0.0, bmag, 1.0)
        a = [B[:, k] / safe for k in range(3)]
        theta = bmag * dt / p0_of(pm)
        c, s = np.cos(theta), np.sin(theta)
        q = [pm[:, k] for k in range(3)]
        u = (1.0 - c) * ((q[0] * a[0] + q[1] * a[1]) + q[2] * a[2])
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            np.add(c * q[k] + s * (q[i] * a[j] - q[j] * a[i]), u * a[k],
                   out=pn[:, k])
    for k in range(d):
        pn[:, k] += h * E[:, k]
    p0n = p0_of(pn)
    return _drift(xh, pn, p0n, h), pn, p0n
