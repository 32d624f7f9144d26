"""Retarded-integral machinery: kernel algebra against symbolic
differentiation, majorant constants, the cone quadrature oracle, slab
weights, and the field representation."""

import dataclasses
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmlab import maxwell as mx
from vmlab import pic
from vmlab import retarded as rt
from vmlab.inequalities import sample_momenta_xi
from vmlab.phase import embed3


def _random_p_xi(rng, d_p):
    p = rng.standard_normal(d_p) * math.exp(rng.uniform(-2.0, 3.0))
    xi = rng.standard_normal(2)
    xi *= rng.random() ** 0.5 / np.linalg.norm(xi)
    return p, xi


def _one_row(kernels, p, xi):
    """The kernels at one (p, xi): each output of ``kernels`` on (1, d)
    arrays, with its row axis dropped."""
    out = kernels(np.asarray(p, dtype=float)[None],
                  np.asarray(xi, dtype=float)[None])
    return [a[0] for a in out]


def planar_kernels(p, xi):
    """The planar kernels, the p3 = 0 slice of ``kernel_arrays_25d``:
    (eT (n, 2), bT (n,), es (n, 2, 2), bs (n, 2))."""
    eT, bT, deS, dbS = rt.kernel_arrays_25d(embed3(np.asarray(p, float)), xi)
    return eT[:, :2], bT[:, 2], deS[:, :2, :2], dbS[:, 2, :2]


def kernels_2d(p, xi):
    return _one_row(planar_kernels, p, xi)


def kernels_25d(p, xi):
    return _one_row(rt.kernel_arrays_25d, p, xi)


class TestKernelOracle:
    """The S-kernel derivative matrices must equal the momentum Jacobians of
    their primitives; sympy provides the independent derivative."""

    @classmethod
    def setup_class(cls):
        p1, p2, p3, x1, x2 = sp.symbols("p1 p2 p3 x1 x2", real=True)
        p0 = sp.sqrt(1 + p1 ** 2 + p2 ** 2 + p3 ** 2)
        ph = sp.Matrix([p1, p2, p3]) / p0
        kappa = ph[0] * x1 + ph[1] * x2
        eS = sp.Matrix([-2 * (x1 + ph[0]), -2 * (x2 + ph[1]),
                        -2 * ph[2]]) / (1 + kappa)
        bS = 2 * sp.Matrix([x2 * ph[2], -x1 * ph[2],
                            x1 * ph[1] - x2 * ph[0]]) / (1 + kappa)
        cls.f_deS = staticmethod(sp.lambdify(
            (p1, p2, p3, x1, x2), eS.jacobian([p1, p2, p3]), "numpy"))
        cls.f_dbS = staticmethod(sp.lambdify(
            (p1, p2, p3, x1, x2), bS.jacobian([p1, p2, p3]), "numpy"))
        q1, q2 = sp.symbols("q1 q2", real=True)
        q0 = sp.sqrt(1 + q1 ** 2 + q2 ** 2)
        qh = sp.Matrix([q1, q2]) / q0
        kap2 = qh[0] * x1 + qh[1] * x2
        eS2 = sp.Matrix([-2 * (x1 + qh[0]), -2 * (x2 + qh[1])]) / (1 + kap2)
        bS2 = sp.Matrix([2 * (x1 * qh[1] - x2 * qh[0]) / (1 + kap2)])
        cls.f_es2 = staticmethod(sp.lambdify(
            (q1, q2, x1, x2), eS2.jacobian([q1, q2]), "numpy"))
        cls.f_bs2 = staticmethod(sp.lambdify(
            (q1, q2, x1, x2), bS2.jacobian([q1, q2]), "numpy"))

    def test_s_derivatives_match_sympy_3d(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p, xi = _random_p_xi(rng, 3)
            *_, deS, dbS = kernels_25d(p, xi)
            de = np.array(self.f_deS(*p, *xi), dtype=float)
            db = np.array(self.f_dbS(*p, *xi), dtype=float)
            assert np.abs(deS - de).max() < 1e-12
            assert np.abs(dbS - db).max() < 1e-12

    def test_s_derivatives_match_sympy_2d(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, xi = _random_p_xi(rng, 2)
            _, _, es_m, bs_v = kernels_2d(p, xi)
            es = np.array(self.f_es2(*p, *xi), dtype=float)
            bs = np.array(self.f_bs2(*p, *xi), dtype=float).ravel()
            assert np.abs(es_m - es).max() < 1e-12
            assert np.abs(bs_v - bs).max() < 1e-12

    def test_planar_reduction_at_zero_p3(self):
        # at p3 = 0 the E3 and in-plane B responses of the T kernels vanish,
        # so the planar kernels keep the planar ansatz
        rng = np.random.default_rng(2)
        for _ in range(30):
            p, xi = _random_p_xi(rng, 2)
            eT3, bT3, *_ = kernels_25d([p[0], p[1], 0.0], xi)
            assert abs(eT3[2]) < 1e-13
            assert abs(bT3[0]) < 1e-13 and abs(bT3[1]) < 1e-13

    @pytest.mark.parametrize("pmag", [1e2, 1e4, 1e6])
    def test_planar_reduction_at_large_momentum(self, pmag):
        # the planar T factor 1 - phat1^2 - phat2^2 = (1 + p3^2)/p0^2 must
        # not be taken as a difference, which cancels at large |p|: compare
        # with the difference evaluated at 50 digits
        rng = np.random.default_rng(int(pmag))
        with mpmath.workdps(50):
            for _ in range(20):
                p, xi = _random_p_xi(rng, 2)
                p *= pmag / np.linalg.norm(p)
                eT, bT, _, _ = kernels_2d(p, xi)
                pm, xm = [mpmath.mpf(v) for v in p], [mpmath.mpf(v) for v in xi]
                p0 = mpmath.sqrt(1 + pm[0] ** 2 + pm[1] ** 2)
                ph = [v / p0 for v in pm]
                one = 1 + ph[0] * xm[0] + ph[1] * xm[1]
                flat = (1 - ph[0] ** 2 - ph[1] ** 2) / one ** 2
                ref_e = [-2 * flat * (xm[i] + ph[i]) for i in range(2)]
                ref_b = 2 * flat * (xm[0] * ph[1] - xm[1] * ph[0])
                for got, ref in ((eT[0], ref_e[0]), (eT[1], ref_e[1]),
                                 (bT, ref_b)):
                    assert abs(got - float(ref)) <= 1e-12 * abs(flat)

    def test_t_kernels_vanish_at_light_speed_limit(self):
        # the planar T kernels carry the factor 1 - |phat|^2
        eT, *_ = kernels_2d([1e8, 0.0], [0.3, 0.1])
        assert np.abs(eT).max() < 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            rt.kernel_arrays_25d(np.ones((1, 2)), np.full((1, 2), 0.1))
        with pytest.raises(ValueError):
            rt.kernel_arrays_25d(np.zeros((1, 3)), np.array([[1.5, 0.0]]))


class TestKernelBounds:
    """The Glassey-Schaeffer majorants: sup |kernel| / majorant over the
    stress draws of ``sample_momenta_xi`` stays below a pinned ceiling."""

    CEILINGS_2D = {"eT": 2.0 * math.sqrt(2.0), "bT": 2.0 * math.sqrt(2.0),
                   "eS": 2.0, "bS": 2.0}
    CEILINGS_25D = {"eT": 4.0, "bT": 4.0, "eS": 4.0, "bS": 4.0}

    @staticmethod
    def _kinematics(p, xi):
        p0 = np.sqrt(1.0 + np.sum(p * p, axis=1))
        return p0, 1.0 + (p[:, 0] * xi[:, 0] + p[:, 1] * xi[:, 1]) / p0

    def test_2d_constants(self):
        # planar: T kernels against 1/(p0^2 (1 + phat.xi)^(3/2)), S-matrix
        # entries against 1/(p0 (1 + phat.xi)), on the in-plane momenta
        p, xi = sample_momenta_xi(0, 50_000)
        p = p[:, :2]
        eT, bT, es, bs = planar_kernels(p, xi)
        p0, one = self._kinematics(p, xi)
        maj_t = 1.0 / (p0 ** 2 * one ** 1.5)
        maj_s = 1.0 / (p0 * one)
        sups = {"eT": np.abs(eT).max(axis=-1) / maj_t,
                "bT": np.abs(bT) / maj_t,
                "eS": np.abs(es).max(axis=(-2, -1)) / maj_s,
                "bS": np.abs(bs).max(axis=-1) / maj_s}
        for name, ceil in self.CEILINGS_2D.items():
            assert sups[name].max() <= ceil * (1.0 + 1e-9), name

    def test_25d_constants(self):
        # 3-momentum: T kernels against <p3>^3/(p0 (1 + phat.xi)),
        # S-derivative entries against 1/p0 + <p3>^2/(p0 (1 + phat.xi))
        p, xi = sample_momenta_xi(0, 50_000)
        eT, bT, deS, dbS = rt.kernel_arrays_25d(p, xi)
        p0, one = self._kinematics(p, xi)
        bp3 = 1.0 + p[:, 2] ** 2
        maj_t = bp3 ** 1.5 / (p0 * one)
        maj_s = 1.0 / p0 + bp3 / (p0 * one)
        sups = {"eT": np.abs(eT).max(axis=-1) / maj_t,
                "bT": np.abs(bT).max(axis=-1) / maj_t,
                "eS": np.abs(deS).max(axis=(-2, -1)) / maj_s,
                "bS": np.abs(dbS).max(axis=(-2, -1)) / maj_s}
        for name, ceil in self.CEILINGS_25D.items():
            assert sups[name].max() <= ceil, name


class TestBoxInverse:
    def test_constant_source(self):
        v = rt.box_inverse(lambda s, pts: np.ones(len(pts)), 1.0,
                           (0.0, 0.0), n_s=64, n_phi=32)
        assert v == pytest.approx(math.pi, abs=1e-8)

    def test_linear_in_time_source(self):
        v = rt.box_inverse(lambda s, pts: np.full(len(pts), s), 1.0,
                           (0.0, 0.0), n_s=64, n_phi=32)
        assert v == pytest.approx(math.pi / 3.0, abs=1e-8)

    def test_convergence_order_under_node_doubling(self):
        F = lambda s, pts: np.exp(-np.sum(pts * pts, axis=1) - s)  # noqa: E731
        ref = rt.box_inverse(F, 1.0, (0.1, -0.2), n_s=256, n_phi=256)
        errs = []
        for n in (2, 4, 8):
            v = rt.box_inverse(F, 1.0, (0.1, -0.2), n_s=n, n_phi=n)
            errs.append(abs(v - ref))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 4.0   # Gauss nodes: super-algebraic decay


    def test_gauss_rule_built_once(self, monkeypatch):
        # each Legendre rule is built on first use and then shared,
        # read-only, by box_inverse and the mapped nodes of the singular
        # lemma check
        from vmlab import inequalities as ineq
        leggauss = np.polynomial.legendre.leggauss
        calls = []

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        rt._legendre.cache_clear()
        f = lambda s, pts: np.ones(len(pts))  # noqa: E731
        for _ in range(2):
            ineq._mapped_nodes(800)
            rt.box_inverse(f, 1.0, (0.0, 0.0), n_s=64, n_phi=32)
        assert calls == [800, 64, 32]
        x, w = rt._legendre(800)
        assert not (x.flags.writeable or w.flags.writeable)
        # halving is exact, so the rule on [0, 1] keeps the bits of
        # 0.5 * (x + 1) and 0.5 * w
        u, wu = rt.gauss_rule(800, 0.0, 1.0)
        assert np.array_equal(u, 0.5 * (x + 1.0))
        assert np.array_equal(wu, 0.5 * w)


class TestSlabWeights:
    def test_against_numerical_quadrature(self):
        # W1 = int dtau / (tau sqrt(tau^2 - r^2)),
        # W2 = int dtau / sqrt(tau^2 - r^2) over [max(tau_lo, r), tau_hi]
        r, lo, hi = 0.5, 0.6, 0.9
        taus = np.linspace(lo, hi, 200_001)
        f1 = 1.0 / (taus * np.sqrt(taus ** 2 - r ** 2))
        f2 = 1.0 / np.sqrt(taus ** 2 - r ** 2)
        w1, w2 = rt.slab_weights(np.array([r]), lo, hi)
        assert w1[0] == pytest.approx(np.trapezoid(f1, taus), rel=1e-8)
        assert w2[0] == pytest.approx(np.trapezoid(f2, taus), rel=1e-8)

    def test_zero_radius_limit(self):
        w1, w2 = rt.slab_weights(np.array([0.0]), 0.5, 1.0)
        assert w1[0] == pytest.approx(1.0 / 0.5 - 1.0 / 1.0, rel=1e-12)
        assert w2[0] == pytest.approx(math.log(1.0 / 0.5), rel=1e-12)

    def test_outside_slab_is_zero(self):
        w1, w2 = rt.slab_weights(np.array([1.5]), 0.5, 1.0)
        assert w1[0] == 0.0
        assert w2[0] == 0.0

    def test_mixed_array_equals_elementwise_calls(self):
        # r = 0, a row inside the slab, r = tau_lo, r = tau_hi exactly and
        # beyond it: one call equals the calls on each row, and both weights
        # are exactly 0 from tau_hi on
        tau_lo, tau_hi = 0.5, 1.0
        r = np.array([0.0, 0.7, tau_lo, tau_hi, 1.5])
        w1, w2 = rt.slab_weights(r, tau_lo, tau_hi)
        for i, ri in enumerate(r):
            e1, e2 = rt.slab_weights(np.array([ri]), tau_lo, tau_hi)
            assert w1[i] == e1[0] and w2[i] == e2[0], ri
        out = r >= tau_hi
        assert np.all(w1[out] == 0.0) and np.all(w2[out] == 0.0)
        assert np.all(w1[~out] > 0.0) and np.all(w2[~out] > 0.0)


def _scan_cone_rows(X, probe, box, tau_lo, tau_hi):
    """The oracle of ``_cone_rows``: the minimum image of every row, then
    r < tau_hi, the slab weights and xi clipped to |xi| <= 1; None where
    a particle sits on the probe in the newest slab."""
    d = rt._min_image(X - probe[None, :], box)
    r = np.sqrt(np.sum(d * d, axis=1))
    idx = np.flatnonzero(r < tau_hi)
    d, r = d[idx], r[idx]
    if tau_lo <= 0.0 and np.any(r < 1e-12):
        return None
    w1, w2 = rt.slab_weights(r, tau_lo, tau_hi)
    xi = d / np.maximum(0.5 * (tau_lo + tau_hi), np.maximum(r, 1e-300))[:, None]
    nrm = np.sqrt(np.sum(xi * xi, axis=1))
    xi[nrm > 1.0] /= nrm[nrm > 1.0, None]
    return rt._ConeRows(idx, d, r, w1, w2, xi)


@st.composite
def _cone_cases(draw):
    """(X, probes, box, tau_lo, tau_hi): rows at the walls, at the cone's
    edge in x1, anywhere in the box and a few outside it (as a hand-made
    history may hold), a stack of 1-5 probes at and near the walls and
    outside the box, repeats and probes with empty cones among them, and
    cones from a sliver up to wider than the box."""
    lx, ly = draw(st.sampled_from([20.0, 7.3, 1.0])), 20.0
    top = np.nextafter(lx, 0.0)
    probe_x1 = st.one_of(st.sampled_from([0.0, 1e-3 * lx, top, lx - 1e-3]),
                         st.floats(0.0, lx, exclude_max=True),
                         st.floats(-lx, 2.0 * lx))
    c, y = draw(probe_x1), draw(st.floats(0.0, ly, exclude_max=True))
    tau_hi = draw(st.one_of(
        st.floats(1e-3, 12.0),
        st.sampled_from([lx / 2, np.nextafter(lx / 2, 0.0), 0.5001 * lx])))
    tau_lo = draw(st.sampled_from([0.0, 0.25, 0.999])) * tau_hi
    # x1 exactly at tau_hi from the first probe (before and after the wrap)
    edge = [e for s in (-1.0, 1.0) for e in (c + s * tau_hi,
                                             c + s * tau_hi + lx,
                                             c + s * tau_hi - lx)
            if 0.0 <= e < lx]
    x1 = st.one_of(st.sampled_from([0.0, top, *edge]),
                   st.floats(0.0, lx, exclude_max=True),
                   st.sampled_from([-1e-17, lx, -0.3 * lx, 1.7 * lx]))
    # x2 on the first probe's line, at tau_hi from it, or anywhere
    x2 = st.one_of(st.sampled_from([y, (y + tau_hi) % ly, (y - tau_hi) % ly]),
                   st.floats(0.0, ly, exclude_max=True))
    rows = draw(st.lists(st.tuples(x1, x2), max_size=30))
    X = np.array(rows, dtype=float).reshape(-1, 2)
    probes = [(c, y)] + draw(st.lists(st.one_of(
        st.just((c, y)),                                 # a repeat
        st.tuples(probe_x1, st.floats(0.0, ly, exclude_max=True))),
        max_size=4))
    return X, np.array(probes), np.array([lx, ly]), tau_lo, tau_hi


def _assert_segments_are_scans(X, probes, box, tau_lo, tau_hi):
    """``_cone_rows`` of the stack against ``_scan_cone_rows`` of each probe
    alone: equal segments in every field, or the error naming the first
    probe that sits on a particle."""
    want = [_scan_cone_rows(X, probe, box, tau_lo, tau_hi) for probe in probes]
    strip = rt._strip_index(X)
    if any(w is None for w in want):
        first = probes[[w is None for w in want].index(True)]
        with pytest.raises(ValueError, match="sits on a particle") as err:
            rt._cone_rows(X, strip, 0.8, probes, box, tau_lo, tau_hi)
        assert f"x={first.tolist()}" in str(err.value)
        return
    got, bounds = rt._cone_rows(X, strip, 0.8, probes, box, tau_lo, tau_hi)
    assert bounds.tolist() == np.cumsum([0] + [w.idx.size for w in want]).tolist()
    for i, one in enumerate(want):
        for key, a, b in zip(one._fields, got, one):
            seg = a[bounds[i]:bounds[i + 1]]
            assert seg.dtype == b.dtype and np.array_equal(seg, b), (i, key)


_BOX = np.array([20.0, 20.0])
# a probe on the x2 wall, and the largest double below its cone's tau_hi
_WALL = np.array([[0.25, 0.0]])
_R = np.nextafter(0.75, 0.0)


class TestConeRows:
    @given(_cone_cases())
    @example((np.array([[19.5, 3.0]]), np.array([[0.2, 3.0]]), _BOX,
              0.0, 0.8))                                    # one row, wrapped
    @example((np.array([[10.0, 3.0], [0.0, 3.0]]), np.array([[5.0, 3.0]]),
              _BOX, 0.1, 0.8))                              # empty strip
    @example((np.array([[0.0, 1.0], [np.nextafter(20.0, 0.0), 1.0]]),
              np.array([[10.0, 1.0]]), _BOX, 0.0, 10.0))
    @example((np.array([[0.0, 1.0], [9.9, 12.0]]), np.array([[np.nextafter(
              20.0, 0.0), 1.0]]), _BOX, 0.5, 11.0))
    @example((np.array([[1.1904166595843224, 5.0]]),
              np.array([[19.13851296910221, 5.0]]), _BOX,
              0.5, 2.051903690482115))   # in the cone, 1 ulp past c + tau - lx
    # |d2| exactly tau_hi, before and after the x2 wrap: outside the cone
    @example((np.array([[0.25, 0.75], [0.25, 19.25], [0.25 + 1e-9, 0.75]]),
              _WALL, _BOX, 0.0, 0.75))
    # across the x2 wall: d2 = -0.5 and -0.1 inside, -1.0 outside
    @example((np.array([[0.25, 19.5], [0.5, 19.9], [0.25, 19.0]]),
              _WALL, _BOX, 0.0, 0.75))
    # r 1 ulp below tau_hi with |d2| = r, and with d1 lost to rounding in r
    @example((np.array([[0.25, _R], [0.25 + 1e-9, _R], [0.3, _R]]),
              _WALL, _BOX, 0.25, 0.75))
    # a stack with a repeat, an empty cone and a probe across the x1 wall
    @example((np.array([[19.5, 3.0], [0.5, 3.5], [10.0, 10.0]]),
              np.array([[0.2, 3.0], [5.0, 5.0], [0.2, 3.0], [19.9, 3.2]]),
              _BOX, 0.25, 0.8))
    @settings(max_examples=400, deadline=None)
    def test_strip_finds_the_rows_of_a_full_scan(self, case):
        # each probe's segment of the stack is its own full scan
        _assert_segments_are_scans(*case)

    @pytest.mark.parametrize("x,probe", [
        ((7.0, 4.0), (7.0, 4.0)),
        ((0.0, 4.0), (0.0, 4.0)),
        ((0.0, 4.0), (20.0, 4.0)),       # the same point across the wall
    ])
    def test_probe_on_particle_in_newest_slab_raises(self, x, probe):
        X = np.array([[12.0, 12.0], x, [19.0, 1.0]])
        with pytest.raises(ValueError, match="sits on a particle"):
            rt._cone_rows(X, rt._strip_index(X), 0.8, np.array([probe]),
                          _BOX, 0.0, 0.04)

    def test_empty_stack(self):
        X = np.array([[12.0, 12.0], [19.0, 1.0]])
        got, bounds = rt._cone_rows(X, rt._strip_index(X), 0.8,
                                    np.zeros((0, 2)), _BOX, 0.0, 0.8)
        assert bounds.tolist() == [0] and got.idx.size == 0


def _json_native(v) -> bool:
    """Whether v is built of Python's own JSON types only."""
    if type(v) is list:
        return all(map(_json_native, v))
    return type(v) in (float, int, str, bool)


def _history(t_final=0.6, seed=3, mode="2d"):
    f0 = {"sigma_x": 1.0, "alpha": 18.0,
          "beams": [[0.8, 0.0], [-0.8, 0.0]], "mass": 0.08}
    if mode == "2.5d":
        f0["p3_nu"] = 4.0
    scn = pic.scenario_from_dict({
        "mode": mode, "grid_n": 48, "box": 20.0, "dt": 0.05,
        "t_final": t_final, "seed": seed, "n_particles": 6000,
        "store_history": True, "gauss_correction": False,
        "f0": f0, "fields0": {},
    }, path="inline")
    return pic.run(scn).history


def _two_step_history(x_first, x_last):
    """A 2d history of two particles at the steps t = 0 and 0.05 on zero
    fields, at the positions x_first (2, 2), then x_last: the first at rest,
    the second with p = (0.3, 0)."""
    grid = mx.Grid(16, 16, 20.0, 20.0)
    part_x = np.array([x_first, x_last], dtype=float)
    p = np.array([[0.0, 0.0], [0.3, 0.0]])
    zeros = np.zeros((2, 3, 16, 16))
    return pic.RunHistory(mode="2d", grid=grid, times=np.array([0.0, 0.05]),
                          E=zeros, B=zeros, part_x=part_x,
                          part_p=np.stack([p, p]), w=np.full(2, 0.01))


def _random_history(k, n, seed=0):
    """A 2d history of k stored steps, dt = 0.02, of n particles at random
    positions and momenta on a 32^2 grid with random E1, E2 and B3."""
    rng = np.random.default_rng(seed)
    E, B = np.zeros((2, k, 3, 32, 32))
    E[:, :2] = 0.01 * rng.standard_normal((k, 2, 32, 32))
    B[:, 2] = 0.01 * rng.standard_normal((k, 32, 32))
    return pic.RunHistory(
        mode="2d", grid=mx.Grid(32, 32, 20.0, 20.0),
        times=0.02 * np.arange(k), E=E, B=B,
        part_x=20.0 * rng.random((k, n, 2)),
        part_p=0.5 * rng.standard_normal((k, n, 2)), w=np.full(n, 1.0 / n))


def _ring(n=6, radius=2.2):
    return [(10.0 + radius * math.cos(ang), 10.0 + radius * math.sin(ang))
            for ang in np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)]


def _relative_error(h, t, xs, reps):
    err_sq = ref_sq = 0.0
    for x, rep in zip(xs, reps):
        gE, gB = rt.grid_field_at(h, t, x)
        d = np.concatenate([rep.total_E - gE, rep.total_B - gB])
        r = np.concatenate([gE, gB])
        err_sq += float(d @ d)
        ref_sq += float(r @ r)
    return math.sqrt(err_sq / ref_sq)


class TestRepresentation:
    def test_matches_grid_solver(self):
        h = _history()
        xs = _ring()
        reps = rt.field_from_representation(h, 0.6, xs)
        assert len(reps) == len(xs)
        assert _relative_error(h, 0.6, xs, reps) < 0.05

    def test_25d_matches_grid_solver(self):
        # the 3-momentum cone sums, with in-plane B and E3 from p3 != 0
        h = _history(mode="2.5d")
        xs = _ring()
        reps = rt.field_from_representation(h, 0.6, xs)
        assert _relative_error(h, 0.6, xs, reps) < 0.01

    def test_planar_history_as_25d(self):
        # a planar history is the p3 = 0 case of the 3-momentum sums
        h = _history(t_final=0.3)
        h25 = dataclasses.replace(h, mode="2.5d", part_p=embed3(h.part_p))
        xs = _ring()
        for a, b in zip(rt.field_from_representation(h, 0.3, xs),
                        rt.field_from_representation(h25, 0.3, xs)):
            for key in ("data_E", "data_B", "E_T", "B_T", "E_S", "B_S"):
                assert np.array_equal(getattr(a, key), getattr(b, key)), key
            # K_g takes each mode's own formula, equal up to rounding on
            # planar fields
            assert b.ks2_bound == pytest.approx(a.ks2_bound, rel=1e-14)

    def test_probe_time_just_below_a_stored_step(self):
        # a t inside the 1e-9 match window of a stored time takes the whole
        # cone of that time, its newest slab included
        h = _history(t_final=0.3)
        x = (11.0, 10.0)
        at = rt.field_from_representation(h, 0.3, [x])[0].to_dict()
        below = rt.field_from_representation(h, 0.3 - 5e-10, [x])[0].to_dict()
        del at["t"], below["t"]
        assert at == below

    def test_report_fields(self):
        h = _history(t_final=0.3)
        rep = rt.field_from_representation(h, 0.3, [(11.0, 10.0)])[0]
        d = rep.to_dict()
        for key in ("data_E", "E_T", "E_S", "ks1_bound", "ks2_bound"):
            assert key in d
        assert np.all(np.isfinite(rep.total_E))
        assert rep.ks1_bound >= 0.0 and rep.ks2_bound >= 0.0

    def test_to_dict_is_the_compare_record(self):
        # the keys of a compare.json probe record, and JSON-native values only
        h = _history(t_final=0.3)
        d = rt.field_from_representation(h, 0.3, [(11.0, 10.0)])[0].to_dict()
        assert set(d) == {"t", "x", "data_E", "data_B", "E_T", "B_T", "E_S",
                          "B_S", "total_E", "total_B", "ks1_bound", "ks2_bound"}
        assert json.loads(json.dumps(d)) == d
        # np.float64 subclasses float and passes the round trip
        assert all(map(_json_native, d.values())), d

    def test_free_flow_wraps_tiny_negative_position(self):
        # a particle at rest at x = -1e-17: the plain remainder wraps it to
        # exactly the box length, which the force-free deposit rejects
        x0 = [[-1e-17, 5.0], [10.0, 10.0]]
        h = _two_step_history(x0, x0)
        rep = rt.field_from_representation(h, 0.05, [(10.01, 10.0)])[0]
        assert np.all(np.isfinite(rep.total_E))

    def test_probe_batch_equals_single_probes(self):
        h = _history(t_final=0.3)
        xs = np.array([[11.0, 10.0], [9.0, 8.5], [10.5, 12.0]])
        reps = rt.field_from_representation(h, 0.3, xs)
        assert isinstance(reps, list) and len(reps) == len(xs)
        for x, rep in zip(xs, reps):
            one = rt.field_from_representation(h, 0.3, [x])[0]
            assert rep.to_dict() == one.to_dict()

    def test_probe_shape_validation(self):
        h = _history(t_final=0.3)
        with pytest.raises(ValueError, match="shape"):
            rt.field_from_representation(h, 0.3, [10.0, 10.0, 10.0])
        with pytest.raises(ValueError, match="shape"):   # one bare probe
            rt.field_from_representation(h, 0.3, [10.0, 10.0])

    def test_empty_probe_stack(self):
        h = _history(t_final=0.3)
        assert rt.field_from_representation(h, 0.3, np.zeros((0, 2))) == []

    def test_probe_on_particle_is_named_in_a_stack(self):
        # the third probe of the stack sits on the resting particle
        x0 = [[10.0, 10.0], [5.0, 5.0]]
        h = _two_step_history(x0, x0)
        with pytest.raises(ValueError, match=r"t=0\.05 x=\[10\.0, 10\.0\]"):
            rt.field_from_representation(
                h, 0.05, [(3.0, 3.0), (15.0, 12.0), (10.0, 10.0)])

    @pytest.mark.parametrize("x_first,x_last", [
        ((10.0, 10.0), (10.0, 10.0)),   # on the probe in both flows
        ((9.9, 10.0), (10.0, 10.0)),    # in the interacting flow only
        ((10.0, 10.0), (10.2, 10.0)),   # in the force-free flow only
    ])
    def test_probe_on_particle_is_rejected(self, x_first, x_last):
        # a resting particle at the probe in the newest slab: the
        # point-particle T integral diverges like 1/r there
        h = _two_step_history([x_first, [5.0, 5.0]], [x_last, [5.0, 5.0]])
        with pytest.raises(ValueError, match=r"t=0\.05 x=\[10\.0, 10\.0\]"):
            rt.field_from_representation(h, 0.05, [(10.0, 10.0)])


class TestFreeFlow:
    def test_steps_are_the_broadcast_flow(self):
        # one step at a time, with the bits of the whole flow at once
        h = _random_history(9, 500)
        h.part_x[0, :3] = [[-1e-17, 5.0], [19.999999999999996, 0.0],
                           [0.0, -0.0]]
        box = np.array([20.0, 20.0])
        p = h.part_p[0]
        phat = p / np.sqrt(1.0 + np.sum(p * p, axis=1))[:, None]
        whole = pic.wrap_box(h.part_x[0] + h.times[:, None, None] * phat,
                             box)
        for j in range(len(h.times)):
            got = rt._free_positions(h, phat, j, box)
            assert got.tobytes() == whole[j].tobytes(), j


class TestMemoryBudget:
    """field_from_representation holds the history and one stored step of
    the force-free flow, so its peak does not grow with the number of
    steps: the deposit buffers (six steps' positions in bytes), a step's
    positions with their wrap, the x-sorted strip and the cone rows."""

    def test_peak_below_16_steps_of_positions(self):
        h = _random_history(41, 20_000)
        probes = _ring(2)
        rt.field_from_representation(h, h.times[-1], probes)   # warm up
        tracemalloc.start()
        try:
            rt.field_from_representation(h, h.times[-1], probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        step = h.part_x[0].nbytes
        assert peak < 16 * step + 2 ** 20, f"{peak / step:.1f} steps"
