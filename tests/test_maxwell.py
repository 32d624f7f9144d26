"""Spectral Maxwell solver: exact plane-wave propagation, energy
conservation, constraints, gauge potential, flux identities, and field
snapshot round-trips."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmlab import maxwell as mx
from vmlab import pic
from vmlab import retarded as rt
from vmlab.phase import embed3


def _grid(n=32, box=10.0):
    return mx.Grid(n, n, box, box)


def _no_current(grid):
    return np.zeros((3, grid.nx, grid.ny))


def _band_limited_state(grid, mode, seed=0):
    """Random field with empty mean and Nyquist rows (the subspace on which
    the propagator is exact)."""
    rng = np.random.default_rng(seed)
    st_ = mx.FieldState.zeros(mode, grid)
    for arr in (st_.E, st_.B):
        comps = range(3) if mode == "2.5d" else None
        for c in range(3):
            a = np.fft.fft2(rng.standard_normal((grid.nx, grid.ny)))
            a[0, 0] = 0.0
            a[grid.nx // 2, :] = 0.0
            a[:, grid.ny // 2] = 0.0
            arr[c] = np.fft.ifft2(a).real
    if mode == "2d":
        st_.E[2] = 0.0
        st_.B[0] = 0.0
        st_.B[1] = 0.0
    return st_


def _curl(grid, E):
    """Spectral d1 E2 - d2 E1."""
    kx, ky, _ = grid.k_table
    return np.fft.ifft2(1j * (kx * np.fft.fft2(E[1])
                              - ky * np.fft.fft2(E[0]))).real


class TestGrid:
    def test_spacings(self):
        g = mx.Grid(10, 20, 5.0, 8.0)
        assert g.hx == 0.5
        assert g.hy == 0.4
        assert g.cell == pytest.approx(0.2)

    def test_gradient_wavenumbers_zero_nyquist(self):
        g = _grid(8)
        kx, ky, k2 = g.k_table
        assert kx[4, 0] == 0.0
        assert ky[0, 4] == 0.0
        kxf, _ = g.wavenumbers()
        assert kxf[4, 0] != 0.0
        # k2 vanishes on the mean and the self-conjugate corners only
        assert sorted(zip(*np.nonzero(k2 == 0))) == [(0, 0), (0, 4), (4, 0),
                                                     (4, 4)]

    def test_a_grid_holds_only_its_sizes(self):
        # no step or transform leaves a table on the grid it reads: not a
        # run, nor the grid re-run of the retarded reconstruction
        scn = pic.Scenario(mode="2d", grid_n=16, box=10.0, dt=0.1,
                           t_final=0.3, seed=0, n_particles=200, f0={},
                           fields0={"poisson": True}, store_history=True)
        res = pic.run(scn)
        sizes = {"nx": 16, "ny": 16, "lx": 10.0, "ly": 10.0}
        assert vars(res.fields.grid) == sizes
        rt.field_from_representation(res.history, 0.3, [[5.0, 5.0]])
        assert vars(res.history.grid) == sizes


class TestFieldState:
    def test_planar_ansatz_enforced(self):
        g = _grid(8)
        E = np.zeros((3, 8, 8))
        B = np.zeros((3, 8, 8))
        E[2] = 1.0
        with pytest.raises(ValueError):
            mx.FieldState(mode="2d", grid=g, E=E, B=B)

    def test_unknown_mode_rejected(self):
        g = _grid(8)
        with pytest.raises(ValueError):
            mx.FieldState.zeros("3d", g)


class TestPropagator:
    def test_plane_wave_exact(self):
        # E = cos(k x1) e2, B = cos(k x1) e3 translates at speed 1
        g = _grid(64, 2.0 * np.pi)
        x, _ = g.mesh()
        k = 3.0
        st_ = mx.FieldState.zeros("2d", g)
        st_.E[1] = np.cos(k * x)
        st_.B[2] = np.cos(k * x)
        dt = 0.05
        cur = st_
        for _ in range(20):
            cur = mx.step_maxwell(cur, _no_current(g), dt)
        t = 20 * dt
        assert np.abs(cur.E[1] - np.cos(k * (x - t))).max() < 1e-12
        assert np.abs(cur.B[2] - np.cos(k * (x - t))).max() < 1e-12

    @pytest.mark.parametrize("mode", ["2d", "2.5d"])
    def test_source_free_energy_exact(self, mode):
        g = _grid(32)
        st_ = _band_limited_state(g, mode)
        e0 = mx.field_energy(st_)
        cur = st_
        for _ in range(100):
            cur = mx.step_maxwell(cur, _no_current(g), 0.05)
        assert abs(mx.field_energy(cur) - e0) / e0 < 1e-12

    def test_reversibility(self):
        g = _grid(32)
        st_ = _band_limited_state(g, "2.5d", seed=4)
        fwd = mx.step_maxwell(st_, _no_current(g), 0.1)
        back = mx.step_maxwell(fwd, _no_current(g), -0.1)
        assert np.abs(back.E - st_.E).max() < 1e-12
        assert np.abs(back.B - st_.B).max() < 1e-12

    def test_uniform_current_k0_mode(self):
        # at k = 0 the update is exactly dE/dt = -j
        g = _grid(16)
        j = _no_current(g)
        j[0] += 2.0
        st_ = mx.FieldState.zeros("2.5d", g)
        out = mx.step_maxwell(st_, j, 0.25)
        assert np.allclose(out.E[0], -0.5)
        assert np.allclose(out.B, 0.0)

    def test_current_off_the_field_grid_rejected(self):
        g = _grid(16)
        st_ = mx.FieldState.zeros("2d", g)
        with pytest.raises(ValueError, match="shape"):
            mx.step_maxwell(st_, _no_current(_grid(8)), 0.1)
        with pytest.raises(ValueError, match="shape"):
            mx.step_maxwell(st_, np.zeros((2, 16, 16)), 0.1)

    def test_divb_preserved(self):
        g = _grid(32)
        st_ = _band_limited_state(g, "2.5d", seed=7)
        # project B onto divergence-free fields first
        kx, ky, k2 = g.k_table
        ks = np.where(k2 > 0, k2, 1.0)
        b1k, b2k = np.fft.fft2(st_.B[0]), np.fft.fft2(st_.B[1])
        par = np.where(k2 > 0, (kx * b1k + ky * b2k) / ks, 0.0)
        st_.B[0] = np.fft.ifft2(b1k - kx * par).real
        st_.B[1] = np.fft.ifft2(b2k - ky * par).real
        _, res0 = mx.constraint_residual(st_, np.zeros((g.nx, g.ny)))
        cur = st_
        for _ in range(50):
            cur = mx.step_maxwell(cur, _no_current(g), 0.05)
        _, res = mx.constraint_residual(cur, np.zeros((g.nx, g.ny)))
        assert res0 < 1e-12
        assert res < 1e-12

    def test_te_step_ignores_zero_tm_fields(self):
        # with B1 = B2 = E3 = j3 = 0 the 2.5d step is the 2d step, bit for bit
        g = _grid(32)
        te = _band_limited_state(g, "2d", seed=8)
        j = np.random.default_rng(8).standard_normal((3, g.nx, g.ny))
        j[2] = 0.0
        planar = mx.step_maxwell(te, j, 0.1)
        full = mx.step_maxwell(
            mx.FieldState(mode="2.5d", grid=g, E=te.E, B=te.B), j, 0.1)
        assert np.array_equal(full.E, planar.E)
        assert np.array_equal(full.B, planar.B)

    def test_tm_step_leaves_te_fields_zero(self):
        # (B1, B2, E3) driven by j3 never feed (E1, E2, B3)
        g = _grid(32)
        rng = np.random.default_rng(9)
        st_ = _band_limited_state(g, "2.5d", seed=9)
        st_.E[:2] = 0.0
        st_.B[2] = 0.0
        j = np.zeros((3, g.nx, g.ny))
        j[2] = rng.standard_normal((g.nx, g.ny))
        out = mx.step_maxwell(st_, j, 0.1)
        assert not np.any(out.E[:2]) and not np.any(out.B[2])
        assert np.abs(out.E[2] - st_.E[2]).max() > 1e-3


    @pytest.mark.parametrize("mode", ["2d", "2.5d"])
    def test_factor_table_follows_dt(self, mode):
        # one grid, alternating dt: each step has the bytes of the same
        # step on a fresh grid
        g = _grid(16)
        cur = _band_limited_state(g, mode, seed=10)
        j = np.random.default_rng(10).standard_normal((3, g.nx, g.ny))
        for dt in (0.05, 0.02, 0.05, 0.02, 0.05):
            fresh = mx.FieldState(mode, dataclasses.replace(g), cur.E, cur.B)
            want = mx.step_maxwell(fresh, j, dt)
            cur = mx.step_maxwell(cur, j, dt)
            assert cur.grid is g
            assert cur.E.tobytes() == want.E.tobytes()
            assert cur.B.tobytes() == want.B.tobytes()


class TestConstraints:
    def test_poisson_solution_satisfies_gauss(self):
        g = _grid(32)
        rng = np.random.default_rng(2)
        rho = rng.standard_normal((g.nx, g.ny))
        E = mx.poisson_efield(rho, g)
        st_ = mx.FieldState.zeros("2d", g)
        st_.E[0], st_.E[1] = E[0], E[1]
        resE, resB = mx.constraint_residual(st_, rho)
        assert resE < 1e-12
        assert resB == 0.0

    def test_poisson_is_curl_free(self):
        g = _grid(32)
        rng = np.random.default_rng(3)
        E = mx.poisson_efield(rng.standard_normal((g.nx, g.ny)), g)
        assert np.abs(_curl(g, E)).max() < 1e-12

    def test_gauss_correct(self):
        # the longitudinal (E1, E2) becomes the Poisson field of rho; the
        # curl of (E1, E2), E3 and B are kept
        g = _grid(32)
        rng = np.random.default_rng(5)
        st_ = mx.FieldState(mode="2.5d", grid=g,
                            E=rng.standard_normal((3, g.nx, g.ny)),
                            B=rng.standard_normal((3, g.nx, g.ny)))
        rho = rng.standard_normal((g.nx, g.ny))
        E0, B0 = st_.E.copy(), st_.B.copy()
        assert mx.constraint_residual(st_, rho)[0] > 1.0
        mx.gauss_correct(st_, rho)
        assert mx.constraint_residual(st_, rho)[0] < 1e-12
        assert np.abs(_curl(g, st_.E) - _curl(g, E0)).max() < 1e-12
        assert np.array_equal(st_.E[2], E0[2])
        assert np.array_equal(st_.B, B0)

    def test_net_charge_neutralized(self):
        # adding a constant to rho does not change the residual
        g = _grid(16)
        rng = np.random.default_rng(4)
        rho = rng.standard_normal((g.nx, g.ny))
        st_ = mx.FieldState.zeros("2d", g)
        r1, _ = mx.constraint_residual(st_, rho)
        r2, _ = mx.constraint_residual(st_, rho + 5.0)
        assert r1 == pytest.approx(r2, rel=1e-12)


class TestGauge:
    def test_a3_reproduces_inplane_b(self):
        g = _grid(32)
        x, y = g.mesh()
        a3 = (np.cos(2 * np.pi * x / g.lx) * np.sin(4 * np.pi * y / g.ly)
              + 0.3 * np.sin(6 * np.pi * (x + y) / g.lx))
        kx, ky, _ = g.k_table
        a3k = np.fft.fft2(a3)
        st_ = mx.FieldState.zeros("2.5d", g)
        st_.B[0] = np.fft.ifft2(1j * ky * a3k).real
        st_.B[1] = -np.fft.ifft2(1j * kx * a3k).real
        assert np.abs(mx.gauge_a3(st_) - (a3 - a3.mean())).max() < 1e-10
        assert np.array_equal(mx.curl_a3(a3, g), st_.B[:2])

    def test_rejected_in_planar_mode(self):
        st_ = mx.FieldState.zeros("2d", _grid(8))
        with pytest.raises(ValueError):
            mx.gauge_a3(st_)

    def test_evolve_a3(self):
        out = mx.evolve_a3(np.ones((8, 8)), np.full((8, 8), 2.0), 0.25)
        assert np.allclose(out, 0.5)


vec3 = st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3)


class TestFluxIdentity:
    @given(vec3, vec3, st.floats(0, 2 * math.pi))
    @settings(max_examples=200)
    def test_pointwise_identity(self, E, B, ang):
        E = np.array(E)
        B = np.array(B)
        om = np.array([math.cos(ang), math.sin(ang)])
        lhs = mx.flux_identity_lhs(E, B, om)
        om3 = np.array([om[0], om[1], 0.0])
        rhs = 0.25 * ((E @ om3) ** 2 + (B @ om3) ** 2
                      + np.sum((E - np.cross(om3, B)) ** 2)
                      + np.sum((B + np.cross(om3, E)) ** 2))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-12

    @given(vec3, vec3, st.floats(0, 2 * math.pi))
    @settings(max_examples=200)
    def test_good_component_consistency(self, E, B, ang):
        # the 2.5d good square equals 2 (lhs of the flux identity restricted
        # to the outgoing combinations); the planar form matches it when the
        # field obeys the planar ansatz
        E = np.array([E[0], E[1], 0.0])
        B = np.array([0.0, 0.0, B[2]])
        om = np.array([math.cos(ang), math.sin(ang)])
        g2 = mx.good_component_sq(E[None, :], B[None, :], om[None, :], "2d")
        g3 = mx.good_component_sq(E[None, :], B[None, :], om[None, :], "2.5d")
        assert g2[0] == pytest.approx(g3[0], rel=1e-12, abs=1e-12)


def _cross_sum_flux_lhs(E, B, omega):
    """flux_identity_lhs as np.cross and np.sum over the component axis."""
    om = embed3(omega[..., :2])
    return (0.5 * np.sum(E * E + B * B, axis=-1)
            + np.sum(om * np.cross(E, B), axis=-1))


def _cross_sum_good_sq(E, B, omega, mode):
    """good_component_sq as np.cross and np.sum over the component axis."""
    if mode == "2d":
        w = omega[..., :2]
        wedge = w[..., 0] * E[..., 1] - w[..., 1] * E[..., 0]
        return 2.0 * (np.sum(E[..., :2] * w, axis=-1) ** 2
                      + (B[..., 2] + wedge) ** 2)
    om = embed3(omega[..., :2])
    embx = E - np.cross(om, B)
    bpwe = B + np.cross(om, E)
    return (np.sum(E * om, axis=-1) ** 2 + np.sum(B * om, axis=-1) ** 2
            + np.sum(embx * embx, axis=-1) + np.sum(bpwe * bpwe, axis=-1))


class TestFluxHelpersOracle:
    """The component-wise helpers agree bit for bit with the np.cross and
    np.sum formulas they replace, NaN and signed zeros included."""

    @pytest.mark.parametrize("lead", [(10_000,), (4, 5, 3)])
    @pytest.mark.parametrize("mode", ["2d", "2.5d"])
    def test_bits_match_cross_and_sum(self, lead, mode):
        rng = np.random.default_rng(11)
        E, B = (rng.standard_normal(lead + (3,))
                * np.exp(rng.uniform(-30.0, 30.0, lead + (1,)))
                for _ in range(2))
        zero = rng.random(lead + (3,)) < 0.1
        E[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        B[zero[..., ::-1]] = -0.0
        # an infinite component makes the 0 * x terms of the zero third
        # component of omega NaN
        E.reshape(-1, 3)[:3] = [[np.inf, 1.0, 2.0], [1.0, -np.inf, 0.0],
                                [3.0, 0.0, np.inf]]
        B.reshape(-1, 3)[3] = [0.0, np.inf, -1.0]
        if mode == "2d":
            E[..., 2] = 0.0
            B[..., :2] = -0.0
        phi = rng.random(lead) * 2.0 * np.pi
        om = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            pairs = ((mx.flux_identity_lhs(E, B, om),
                      _cross_sum_flux_lhs(E, B, om)),
                     (mx.good_component_sq(E, B, om, mode),
                      _cross_sum_good_sq(E, B, om, mode)))
        for new, old in pairs:
            assert new.shape == lead
            assert np.array_equal(new, old, equal_nan=True)
            assert new.tobytes() == old.tobytes()


class TestInterp:
    """The CIC gather that the PIC loop and the field comparison use."""

    def test_exact_on_linear_data_nodes(self):
        g = _grid(8, 8.0)
        arr = np.arange(64, dtype=float).reshape(8, 8)
        pos = np.array([[2.0, 3.0], [5.0, 1.0]])
        vals = pic.gather_cic(g, arr, pos)
        assert vals[0] == arr[2, 3]
        assert vals[1] == arr[5, 1]
        # between nodes (away from the periodic seam) linear data is exact
        pos = np.random.default_rng(2).random((50, 2)) * 7.0
        vals = pic.gather_cic(g, arr, pos)
        assert np.abs(vals - (8.0 * pos[:, 0] + pos[:, 1])).max() < 1e-12

    def test_periodic_wrap(self):
        g = _grid(4, 4.0)
        arr = np.zeros((4, 4))
        arr[0, 0] = 1.0
        v = pic.gather_cic(g, arr, np.array([[3.5, 0.0]]))
        assert v[0] == pytest.approx(0.5)


class TestSnapshots:
    def test_roundtrip_byte_identical(self, tmp_path):
        g = _grid(8)
        st_ = _band_limited_state(g, "2.5d", seed=9)
        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        mx.save_field(st_, 1.25, f1)
        back, t = mx.load_field(f1)
        assert np.array_equal(st_.E, back.E)
        assert np.array_equal(st_.B, back.B)
        assert t == 1.25
        assert back.mode == "2.5d"
        mx.save_field(back, t, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_header(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("nonsense\n")
        with pytest.raises(ValueError):
            mx.load_field(f)
