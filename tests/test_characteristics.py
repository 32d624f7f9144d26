"""Characteristic integrator: free streaming, gyration, the planar rotation,
and, over many steps, reversibility and convergence order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmlab import characteristics as chars
from vmlab import maxwell as mx
from vmlab import pic
from vmlab.phase import embed3, p0_of


# Samplers x -> (E, B) of the live components: (E1, E2) and B3 for planar
# momenta, 3-vectors for 3-momenta.

def zero_fields(x):
    return np.zeros((len(x), 2)), np.zeros(len(x))


def uniform_b(b3, d_p=2):
    def sampler(x):
        if d_p == 2:
            return np.zeros((len(x), 2)), np.full(len(x), b3)
        return np.zeros((len(x), 3)), np.tile([0.0, 0.0, b3], (len(x), 1))
    return sampler


def uniform_e(e1):
    def sampler(x):
        return np.tile([e1, 0.0], (len(x), 1)), np.zeros(len(x))
    return sampler


class TestFreeStreaming:
    def test_exact_transport(self):
        # with E = B = 0 a single step moves x by dt * phat exactly
        x = np.array([[1.0, 2.0]])
        p = np.array([[3.0, 4.0]])
        xn, pn, _ = chars.push_many(x, p, p0_of(p), zero_fields, 0.7)
        phat = p / math.sqrt(26.0)
        assert np.allclose(xn, x + 0.7 * phat, rtol=0, atol=1e-14)
        assert np.array_equal(pn, p)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 1.0))
    @settings(max_examples=100)
    def test_momentum_frozen(self, p1, p2, dt):
        x = np.array([[0.0, 0.0]])
        p = np.array([[p1, p2]])
        _, pn, _ = chars.push_many(x, p, p0_of(p), zero_fields, dt)
        assert np.array_equal(pn, p)


class TestMagneticRotation:
    def test_speed_preserved_to_machine(self):
        x = np.array([[0.0, 0.0]])
        p = np.array([[2.0, -1.0, 0.5]])
        norm0 = np.linalg.norm(p)
        for _ in range(200):
            x, p, _ = chars.push_many(x, p, p0_of(p), uniform_b(3.0, d_p=3),
                                      0.05)
        assert np.linalg.norm(p) == pytest.approx(norm0, abs=1e-12)

    def test_gyration_angle(self):
        # relativistic cyclotron: dp/ds = phat x B rotates p about e3 by
        # -|B| t / p0 (p0 invariant), exact up to the splitting error
        b3, dt, n = 2.0, 0.01, 500
        p = np.array([[1.0, 0.0]])
        x = np.array([[0.0, 0.0]])
        p0 = math.sqrt(2.0)
        for _ in range(n):
            x, p, _ = chars.push_many(x, p, p0_of(p), uniform_b(b3), dt)
        ang = -b3 * n * dt / p0
        assert np.allclose(p[0], [math.cos(ang), math.sin(ang)], atol=1e-4)


class TestPlanarRotation:
    @pytest.mark.parametrize("dt", [0.05, -0.05, 0.3])
    def test_bit_identical_to_3_momentum_path(self, dt):
        # the planar branch turns (p1, p2) by B3 dt / p0; the Rodrigues
        # rotation of the 3-momentum path at p3 = 0 is its oracle
        rng = np.random.default_rng(8)
        n = 4000
        x = rng.random((n, 2)) * 20.0
        p = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-3, 2, (n, 1))
        e = rng.standard_normal((n, 2))
        b3 = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
        b3[::7] = 0.0
        assert (b3 > 0).any() and (b3 < 0).any()

        def fields3(xh):
            z = np.zeros(n)
            return embed3(e), np.stack([z, z, b3], axis=-1)

        xn, pn, _ = chars.push_many(x, p, p0_of(p), lambda xh: (e, b3), dt)
        x3, p3, _ = chars.push_many(x, embed3(p), p0_of(embed3(p)), fields3,
                                     dt)
        assert pn.shape == (n, 2)
        assert np.array_equal(xn, x3)
        assert np.array_equal(pn, p3[:, :2])
        assert np.array_equal(p3[:, 2], np.zeros(n))


def _push_rows(x, p, p0, fields, dt):
    """The step written over (n, 2) and (n, d_p) rows, with broadcasts over
    the inner axis: the bits that ``push_many`` keeps."""
    xh = x + (0.5 * dt) * (p[..., :2] / p0[..., None])
    E, B = fields(xh)
    pm = p + (0.5 * dt) * E
    if p.shape[-1] == 2:
        theta = B * dt / p0_of(pm)
        c, s = np.cos(theta), np.sin(theta)
        pp = np.stack([c * pm[..., 0] + s * pm[..., 1],
                       c * pm[..., 1] - s * pm[..., 0]], axis=-1)
    else:
        bmag = np.sqrt(np.sum(B * B, axis=-1))
        axis = B / np.where(bmag > 0.0, bmag, 1.0)[..., None]
        # Rodrigues rotation with the sense of dp/dtheta = p x axis
        angle = bmag * dt / p0_of(pm)
        c, s = np.cos(angle)[..., None], np.sin(angle)[..., None]
        pa = np.sum(pm * axis, axis=-1)[..., None]
        pp = c * pm + s * np.cross(pm, axis) + (1.0 - c) * pa * axis
    pn = pp + (0.5 * dt) * E
    p0n = p0_of(pn)
    return xh + (0.5 * dt) * (pn[..., :2] / p0n[..., None]), pn, p0n


def _layouts(a):
    """a (n, k) as C- and column-ordered arrays and as row slices of larger
    arrays of either order and of a strided one, all with a's values."""
    out = {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a)}
    for order in "CF":
        big = np.zeros((len(a) + 7, a.shape[1]), order=order)
        big[3:3 + len(a)] = a
        out["rows " + order] = big[3:3 + len(a)]
    every = np.zeros((2 * len(a), a.shape[1]))
    every[::2] = a
    out["every other row"] = every[::2]
    return out


class TestColumnLayouts:
    @pytest.mark.parametrize("mode", ["2d", "2.5d"])
    def test_every_layout_gives_the_row_form_bits(self, mode):
        # the push reads and writes columns, with the PIC samplers' CIC and
        # TSC gathers; half drifts of up to 0.77 h leave the box across
        # each side
        rng = np.random.default_rng(11)
        g = mx.Grid(32, 32, 4.0, 4.0)
        E, B = rng.standard_normal((2, 3, g.nx, g.ny))
        a3 = None
        if mode == "2d":
            E[2], B[:2] = 0.0, 0.0
        else:
            a3 = rng.standard_normal((g.nx, g.ny))
        sampler = pic.make_field_sampler(mx.FieldState(mode, g, E, B), a3)
        n, d_p, dt = 300, 2 if mode == "2d" else 3, 0.2
        x = rng.random((n, 2)) * g.lx
        p = rng.standard_normal((n, d_p)) * 3.0
        top, low = np.nextafter(g.lx, 0.0), 1e-3
        x[:4] = [[top, low], [low, top], [top, top], [low, low]]
        p[:4, :2] = [[5.0, -5.0], [-5.0, 5.0], [5.0, 5.0], [-5.0, -5.0]]
        want = _push_rows(x, p, p0_of(p), sampler, dt)
        xs, ps = _layouts(x), _layouts(p)
        for name in xs:
            got = chars.push_many(xs[name], ps[name], p0_of(ps[name]),
                                  sampler, dt)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), name
            # x and p come out column-ordered
            assert got[0].flags.f_contiguous
            assert got[1].flags.f_contiguous


class TestElectricKick:
    def test_constant_e_exact_in_p(self):
        # with B = 0 and uniform E the momentum update is exact: p += dt E
        x = np.array([[0.0, 0.0]])
        p = np.array([[0.3, -0.2]])
        xn, pn, _ = chars.push_many(x, p, p0_of(p), uniform_e(0.5), 0.2)
        assert np.allclose(pn, p + np.array([[0.1, 0.0]]), atol=1e-15)


def flow(fields, t_from, t_to, x, p, dt):
    """The characteristic from (t_from, x, p) to t_to, as a loop of steps
    of equal length at most dt; backward when t_to < t_from."""
    n = math.ceil(abs(t_to - t_from) / dt - 1e-12)
    h = (t_to - t_from) / n
    for _ in range(n):
        x, p, _ = chars.push_many(x, p, p0_of(p), fields, h)
    return x, p


class TestFlowMap:
    def test_forward_backward_roundtrip(self):
        def fields(x):
            E = np.stack([0.1 * np.sin(x[:, 0]), 0.05 * x[:, 1]], axis=-1)
            return E, 1.0 + 0.1 * np.cos(x[:, 1])
        x0 = np.array([[1.0, -0.5], [0.2, 2.0]])
        p0 = np.array([[0.5, 0.1], [-0.3, 0.7]])
        x1, p1 = flow(fields, 0.0, 2.0, x0, p0, dt=0.01)
        xb, pb = flow(fields, 2.0, 0.0, x1, p1, dt=0.01)
        # the stepper is time-symmetric, so the roundtrip is exact
        assert np.abs(xb - x0).max() < 1e-11
        assert np.abs(pb - p0).max() < 1e-11

    def test_second_order_convergence(self):
        def fields(x):
            E = np.stack([np.cos(x[:, 0]), np.sin(x[:, 1])], axis=-1)
            return 0.3 * E, np.cos(x[:, 0] + x[:, 1])
        x0 = np.array([[0.3, 0.1]])
        p0 = np.array([[0.4, -0.2]])
        ref_x, ref_p = flow(fields, 0.0, 1.0, x0, p0, dt=1e-4)
        errs = []
        for dt in (0.05, 0.025, 0.0125):
            x1, p1 = flow(fields, 0.0, 1.0, x0, p0, dt=dt)
            errs.append(np.abs(x1 - ref_x).max() + np.abs(p1 - ref_p).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.8
