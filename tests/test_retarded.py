"""Retarded-integral machinery: kernel algebra against symbolic
differentiation, majorant constants, the cone quadrature oracle, slab
weights, and the field representation."""

import math

import numpy as np
import pytest
import sympy as sp

from vmlab import maxwell as mx
from vmlab import pic
from vmlab import retarded as rt
from vmlab.inequalities import SamplerConfig, sample_momenta_xi
from vmlab.phase import embed3, momentum_derived


def _random_p_xi(rng, d_p):
    p = rng.standard_normal(d_p) * math.exp(rng.uniform(-2.0, 3.0))
    xi = rng.standard_normal(2)
    xi *= rng.random() ** 0.5 / np.linalg.norm(xi)
    return p, xi


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
            ks = rt.kernel_eval_25d(momentum_derived(p), xi)
            de = np.array(self.f_deS(*p, *xi), dtype=float)
            db = np.array(self.f_dbS(*p, *xi), dtype=float)
            assert np.abs(ks.deS - de).max() < 1e-12
            assert np.abs(ks.dbS - db).max() < 1e-12

    def test_s_derivatives_match_sympy_2d(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, xi = _random_p_xi(rng, 2)
            ks = rt.kernel_eval_2d(momentum_derived(p), xi)
            es = np.array(self.f_es2(*p, *xi), dtype=float)
            bs = np.array(self.f_bs2(*p, *xi), dtype=float).ravel()
            assert np.abs(ks.esMatrix - es).max() < 1e-12
            assert np.abs(ks.bsVector - bs).max() < 1e-12

    def test_planar_reduction_at_zero_p3(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p, xi = _random_p_xi(rng, 2)
            k2 = rt.kernel_eval_2d(momentum_derived(p), xi)
            k3 = rt.kernel_eval_25d(momentum_derived([p[0], p[1], 0.0]), xi)
            assert np.allclose(k2.eT, k3.eT[:2], atol=1e-13)
            assert abs(k3.eT[2]) < 1e-13
            assert k2.bT == pytest.approx(k3.bT[2], abs=1e-13)
            assert np.allclose(k2.esMatrix, k3.deS[:2, :2], atol=1e-13)
            assert np.allclose(k2.bsVector, k3.dbS[2, :2], atol=1e-13)
            # in-plane B response vanishes with p3
            assert abs(k3.bT[0]) < 1e-13 and abs(k3.bT[1]) < 1e-13

    @pytest.mark.parametrize("pmag", [1e2, 1e4, 1e6])
    def test_planar_reduction_at_large_momentum(self, pmag):
        # the planar T factor 1 - phat1^2 - phat2^2 = (1 + p3^2)/p0^2 must
        # not be taken as a difference, which cancels at large |p|
        rng = np.random.default_rng(int(pmag))
        for _ in range(20):
            p, xi = _random_p_xi(rng, 2)
            p *= pmag / np.linalg.norm(p)
            k2 = rt.kernel_eval_2d(momentum_derived(p), xi)
            k3 = rt.kernel_eval_25d(momentum_derived([p[0], p[1], 0.0]), xi)
            for a, b in ((k3.eT[:2], k2.eT), (k3.bT[2], k2.bT),
                         (k3.deS[:2, :2], k2.esMatrix),
                         (k3.dbS[2, :2], k2.bsVector)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_t_kernels_vanish_at_light_speed_limit(self):
        # the planar T kernels carry the factor 1 - |phat|^2
        p = momentum_derived([1e8, 0.0])
        ks = rt.kernel_eval_2d(p, [0.3, 0.1])
        assert np.abs(ks.eT).max() < 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            rt.kernel_eval_2d(momentum_derived([1.0, 0.0, 0.0]), [0.1, 0.1])
        with pytest.raises(ValueError):
            rt.kernel_eval_25d(momentum_derived([1.0, 0.0]), [0.1, 0.1])
        with pytest.raises(ValueError):
            rt.kernel_arrays_2d(np.zeros((1, 2)), np.array([[1.5, 0.0]]))


class TestKernelBounds:
    # pinned empirical majorant constants (sup |kernel| / majorant); the
    # observed values must never exceed these ceilings
    CEILINGS_2D = {"eT": 2.0 * math.sqrt(2.0), "bT": 2.0 * math.sqrt(2.0),
                   "eS": 2.0, "bS": 2.0}
    CEILINGS_25D = {"eT": 4.0, "bT": 4.0, "eS": 4.0, "bS": 4.0}

    def test_2d_constants(self):
        cfg = SamplerConfig(seed=0, count=50_000)
        p, xi = sample_momenta_xi(cfg, d_p=2)
        rep = rt.kernel_bound_check(p, xi, mode="2d")
        assert rep.all_finite
        for name, ceil in self.CEILINGS_2D.items():
            assert rep.constants[name] <= ceil * (1.0 + 1e-9), name

    def test_25d_constants(self):
        cfg = SamplerConfig(seed=0, count=50_000)
        p, xi = sample_momenta_xi(cfg, d_p=3)
        rep = rt.kernel_bound_check(p, xi, mode="2.5d")
        assert rep.all_finite
        for name, ceil in self.CEILINGS_25D.items():
            assert rep.constants[name] <= ceil, name


class TestBoxInverse:
    def test_constant_source(self):
        quad = rt.RetardedQuadrature(n_s=64, n_phi=32)
        v = rt.box_inverse(lambda s, pts: np.ones(len(pts)), 1.0,
                           (0.0, 0.0), quad)
        assert v == pytest.approx(math.pi, abs=1e-8)

    def test_linear_in_time_source(self):
        quad = rt.RetardedQuadrature(n_s=64, n_phi=32)
        v = rt.box_inverse(lambda s, pts: np.full(len(pts), s), 1.0,
                           (0.0, 0.0), quad)
        assert v == pytest.approx(math.pi / 3.0, abs=1e-8)

    def test_convergence_order_under_node_doubling(self):
        F = lambda s, pts: np.exp(-np.sum(pts * pts, axis=1) - s)  # noqa: E731
        ref = rt.box_inverse(F, 1.0, (0.1, -0.2),
                             rt.RetardedQuadrature(n_s=256, n_phi=256))
        errs = []
        for n in (2, 4, 8):
            v = rt.box_inverse(F, 1.0, (0.1, -0.2),
                               rt.RetardedQuadrature(n_s=n, n_phi=n))
            errs.append(abs(v - ref))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 4.0   # Gauss nodes: super-algebraic decay


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
        h25 = pic.RunHistory(mode="2.5d", grid=h.grid, times=h.times,
                             fields=h.fields, part_x=h.part_x,
                             part_p=[embed3(p) for p in h.part_p], w=h.w)
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
        at = rt.field_from_representation(h, 0.3, x).to_dict()
        below = rt.field_from_representation(h, 0.3 - 5e-10, x).to_dict()
        del at["t"], below["t"]
        assert at == below
        assert (rt.epsilon_split_eval(h, 0.3, x, 0.1)
                == rt.epsilon_split_eval(h, 0.3 - 5e-10, x, 0.1))

    def test_report_fields(self):
        h = _history(t_final=0.3)
        rep = rt.field_from_representation(h, 0.3, (11.0, 10.0))
        d = rep.to_dict()
        for key in ("data_E", "E_T", "E_S", "ks1_bound", "ks2_bound"):
            assert key in d
        assert np.all(np.isfinite(rep.total_E))
        assert rep.ks1_bound >= 0.0 and rep.ks2_bound >= 0.0

    def test_epsilon_split(self):
        h = _history(t_final=0.3)
        rep = rt.epsilon_split_eval(h, 0.3, (11.0, 10.0), 0.1)
        assert rep.lhs == pytest.approx(rep.lhs_interior + rep.lhs_collar,
                                        rel=1e-12)
        assert rep.rhs > 0.0
        assert math.isfinite(rep.ratio)

    def test_free_flow_wraps_tiny_negative_position(self):
        # a particle at rest at x = -1e-17: the plain remainder wraps it to
        # exactly the box length, which the force-free deposit rejects
        grid = mx.Grid(16, 16, 20.0, 20.0)
        h = pic.RunHistory(mode="2d", grid=grid)
        x0 = np.array([[-1e-17, 5.0], [10.0, 10.0]])
        h.times = [0.0, 0.05]
        h.fields = [mx.FieldState.zeros("2d", grid, time=t) for t in h.times]
        h.part_x = [x0, x0]
        h.part_p = [np.array([[0.0, 0.0], [0.3, 0.0]])] * 2
        h.w = np.full(2, 0.01)
        rep = rt.field_from_representation(h, 0.05, (10.01, 10.0))
        assert np.all(np.isfinite(rep.total_E))

    def test_probe_batch_equals_single_probes(self):
        h = _history(t_final=0.3)
        xs = np.array([[11.0, 10.0], [9.0, 8.5], [10.5, 12.0]])
        reps = rt.field_from_representation(h, 0.3, xs)
        assert isinstance(reps, list) and len(reps) == len(xs)
        for x, rep in zip(xs, reps):
            one = rt.field_from_representation(h, 0.3, x)
            assert isinstance(one, rt.RepresentationReport)
            assert rep.to_dict() == one.to_dict()

    def test_probe_shape_validation(self):
        h = _history(t_final=0.3)
        with pytest.raises(ValueError, match="shape"):
            rt.field_from_representation(h, 0.3, [10.0, 10.0, 10.0])

    @pytest.mark.parametrize("x_first,x_last", [
        ((10.0, 10.0), (10.0, 10.0)),   # on the probe in both flows
        ((9.9, 10.0), (10.0, 10.0)),    # in the interacting flow only
        ((10.0, 10.0), (10.2, 10.0)),   # in the force-free flow only
    ])
    def test_probe_on_particle_is_rejected(self, x_first, x_last):
        # a resting particle at the probe in the newest slab: the
        # point-particle T integral diverges like 1/r there
        grid = mx.Grid(16, 16, 20.0, 20.0)
        h = pic.RunHistory(mode="2d", grid=grid)
        h.times = [0.0, 0.05]
        h.fields = [mx.FieldState.zeros("2d", grid, time=t) for t in h.times]
        h.part_x = [np.array([x_first, [5.0, 5.0]]),
                    np.array([x_last, [5.0, 5.0]])]
        h.part_p = [np.array([[0.0, 0.0], [0.3, 0.0]])] * 2
        h.w = np.full(2, 0.01)
        with pytest.raises(ValueError, match=r"t=0\.05 x=\[10\.0, 10\.0\]"):
            rt.field_from_representation(h, 0.05, (10.0, 10.0))

    def test_epsilon_split_eps_validation(self):
        h = _history(t_final=0.3)
        with pytest.raises(ValueError):
            rt.epsilon_split_eval(h, 0.3, (11.0, 10.0), 0.0)
