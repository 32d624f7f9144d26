"""Characteristic flow of the relativistic Vlasov equation.

The trajectories solve

    dX/ds = Vhat,      dV/ds = E + Vhat x B,      Vhat = V / sqrt(1 + |V|^2),

with the planar ansatz: positions live in R^2 while momenta are 2-vectors
(in-plane B reduced to its out-of-plane component) or 3-vectors (full fields).

The single-step integrator is a symmetric Boris-type split
(half drift, half electric kick, exact magnetic rotation, half kick, half
drift) with fields sampled at the midpoint time; the rotation is an exact
Rodrigues rotation so magnetic forces conserve |V| to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .phase import embed3, p0_of

__all__ = [
    "CharState",
    "FlowJacobian",
    "FieldSampler",
    "FieldGradientSampler",
    "push",
    "push_many",
    "flow_map",
    "variational_push",
    "forward_backward_report",
    "ForwardBackwardReport",
]


class FieldSampler(Protocol):
    """Evaluation contract (t, x) -> (E, B) with 3-component field vectors.

    x has shape (..., 2); E and B have shape (..., 3). Planar-momentum mode
    requires E = (E1, E2, 0) and B = (0, 0, B3).
    """

    def __call__(self, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


class FieldGradientSampler(Protocol):
    """(t, x) -> (E, B, dE, dB) with dE, dB of shape (..., 3, 2):
    dE[..., i, k] = dE_i / dx_k."""

    def __call__(self, t: float, x: np.ndarray): ...


@dataclass
class CharState:
    x: np.ndarray  # (2,)
    p: np.ndarray  # (d_p,)
    t: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.p))):
            raise ValueError("non-finite characteristic state")


@dataclass
class FlowJacobian:
    """Derivative matrix d(X, V)/d(x, p) of the flow, (2+d_p) x (2+d_p)."""

    J: np.ndarray

    @classmethod
    def identity(cls, d_p: int) -> "FlowJacobian":
        return cls(J=np.eye(2 + d_p))


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
    d_p = p.shape[-1]
    p0 = p0_of(p)
    xh = x + (0.5 * dt) * (p[..., :2] / p0[..., None])
    E, B = fields(t + 0.5 * dt, xh)
    E = np.broadcast_to(np.asarray(E, dtype=float), xh.shape[:-1] + (3,))
    B = np.broadcast_to(np.asarray(B, dtype=float), xh.shape[:-1] + (3,))

    pm = p + (0.5 * dt) * E[..., :d_p]
    bmag = np.sqrt(np.sum(B * B, axis=-1))
    active = bmag > 0.0
    if np.any(active):
        p3 = embed3(pm)
        p0m = p0_of(pm)
        safe = np.where(active, bmag, 1.0)
        axis = B / safe[..., None]
        angle = np.where(active, bmag * dt / p0m, 0.0)
        rot = _rotate_about(p3, axis, angle)
        pp = np.where(active[..., None], rot[..., :d_p], pm)
    else:
        pp = pm
    pn = pp + (0.5 * dt) * E[..., :d_p]
    p0n = p0_of(pn)
    xn = xh + (0.5 * dt) * (pn[..., :2] / p0n[..., None])
    return xn, pn


def push(state: CharState, fields: FieldSampler, dt: float) -> CharState:
    """One integrator step for a single characteristic."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    xn, pn = push_many(state.x[None, :], state.p[None, :], fields, state.t, dt)
    return CharState(x=xn[0], p=pn[0], t=state.t + dt)


def flow_map(fields: FieldSampler, t_from: float, t_to: float, x, p,
             dt: float = 1e-2) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the characteristic from (t_from, x, p) to time t_to.

    Backward integration (t_to < t_from) uses the same time-symmetric step
    with a negative dt. Returns (X, V) at t_to.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    span = t_to - t_from
    if span == 0.0:
        return x.copy(), p.copy()
    n = max(1, int(math.ceil(abs(span) / dt - 1e-12)))
    h = span / n
    t = t_from
    for _ in range(n):
        x, p = push_many(x, p, fields, t, h)
        t += h
    return x, p


def _rhs_matrix(t: float, x: np.ndarray, p: np.ndarray,
                grad_fields: FieldGradientSampler) -> np.ndarray:
    """Linearization A of the characteristic system at (t, x, p):

        d/ds [dx; dp] = A [dx; dp],
        A = [[0,        d(phat)/dp],
             [dF/dx,    dF/dp     ]],   F = E + phat x B.
    """
    d_p = p.shape[-1]
    E, B, dE, dB = grad_fields(t, x)
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    dE = np.asarray(dE, dtype=float)
    dB = np.asarray(dB, dtype=float)

    p0 = float(p0_of(p))
    ph3 = embed3(p) / p0
    # d(phat_a)/dp_j for the embedded 3-vector, a = 1..3, j = 1..d_p
    dphat = np.zeros((3, d_p))
    for j in range(d_p):
        ej = np.zeros(3)
        ej[j] = 1.0
        dphat[:, j] = (ej - ph3 * ph3[j]) / p0

    A = np.zeros((2 + d_p, 2 + d_p))
    A[0:2, 2:] = dphat[0:2, :]
    # dF_i/dx_k = dE_i/dx_k + (phat x dB/dx_k)_i
    for k in range(2):
        fx = dE[:, k] + np.cross(ph3, dB[:, k])
        A[2:, k] = fx[:d_p]
    # dF_i/dp_j = (dphat/dp_j x B)_i
    for j in range(d_p):
        fp = np.cross(dphat[:, j], B)
        A[2:, 2 + j] = fp[:d_p]
    return A


def variational_push(state: CharState, jac: FlowJacobian,
                     grad_fields: FieldGradientSampler,
                     dt: float) -> tuple[CharState, FlowJacobian]:
    """Advance the characteristic and its Jacobian by one step.

    The Jacobian obeys J' = A(t) J along the trajectory; it is advanced with
    Heun's method (order 2, matching the state integrator), evaluating A at
    the current and the pushed state.
    """
    fields = lambda t, x: grad_fields(t, x)[:2]  # noqa: E731
    new_state = push(state, fields, dt)
    A0 = _rhs_matrix(state.t, state.x, state.p, grad_fields)
    A1 = _rhs_matrix(new_state.t, new_state.x, new_state.p, grad_fields)
    J = jac.J
    J_new = J + 0.5 * dt * (A0 @ J + A1 @ (J + dt * (A0 @ J)))
    return new_state, FlowJacobian(J=J_new)


@dataclass
class ForwardBackwardReport:
    """Sampled suprema of forward/backward flow derivatives.

    forward[k]  = 1 + sup over s <= t_k and tracers of |dX/d(x,p)| + |dV/d(x,p)|
    backward[k] = the same for the inverse (backward) flow maps
    ratio[k]    = backward[k] / forward[k]^(3 + i), i = 0 (planar momenta)
                  or 1 (3-component momenta); reported, not asserted.
    """

    times: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    ratio: np.ndarray


def _deviation(J: np.ndarray) -> float:
    """Max-abs entry of J - I: the flow-derivative deviation from its initial
    value, so the reported suprema start at 1 (identity Jacobian) and grow
    with the differential stretching of the flow."""
    return float(np.abs(J - np.eye(J.shape[0])).max())


def forward_backward_report(times, jacobians, d_p: int) -> ForwardBackwardReport:
    """Build the forward/backward derivative report from recorded Jacobians.

    ``jacobians`` is a sequence over tracers of sequences over times of
    forward Jacobian matrices d(X,V)(t_k; 0)/d(x,p). Backward Jacobians are
    the matrix inverses (the flow is a diffeomorphism).
    """
    times = np.asarray(times, dtype=float)
    nt = len(times)
    fw = np.zeros(nt)
    bw = np.zeros(nt)
    for traj in jacobians:
        for k in range(nt):
            J = np.asarray(traj[k], dtype=float)
            fw[k] = max(fw[k], _deviation(J))
            bw[k] = max(bw[k], _deviation(np.linalg.inv(J)))
    forward = 1.0 + np.maximum.accumulate(fw)
    backward = 1.0 + np.maximum.accumulate(bw)
    i = 0 if d_p == 2 else 1
    ratio = backward / forward ** (3 + i)
    return ForwardBackwardReport(times=times, forward=forward,
                                 backward=backward, ratio=ratio)
