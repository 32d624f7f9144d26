"""Particle-in-cell engine: scenario validation, sampling, deposition,
gathering, the coupled time loop, and its conservation reports."""

import re

import numpy as np
import pytest

from vmlab import maxwell as mx
from vmlab import pic
from vmlab.phase import ParticleEnsemble


def small_cfg(**over):
    cfg = {
        "mode": "2d", "grid_n": 32, "box": 20.0, "dt": 0.05, "t_final": 0.5,
        "seed": 5, "n_particles": 3000,
        "f0": {"sigma_x": 1.5, "alpha": 18.0,
               "beams": [[0.5, 0.0], [-0.5, 0.0]], "mass": 0.05},
        "fields0": {"poisson": True},
    }
    cfg.update(over)
    return cfg


def small_cfg_25d(**over):
    cfg = small_cfg(mode="2.5d", grid_n=24, n_particles=2000, n_tracers=20)
    cfg["f0"]["p3_nu"] = 16.0
    cfg["fields0"] = {"poisson": True, "a3_amp": 0.05, "a3_sigma": 2.0,
                      "e3_amp": 0.05, "e3_sigma": 2.0}
    cfg.update(over)
    return cfg


class TestScenario:
    def test_roundtrip_through_dict(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        again = pic.scenario_from_dict(scn.to_canonical_dict(), path="inline")
        assert scn.to_canonical_dict() == again.to_canonical_dict()

    def test_unknown_key_rejected_with_path(self):
        cfg = small_cfg()
        cfg["f0"]["bogus"] = 1
        with pytest.raises(ValueError, match="f0.bogus"):
            pic.scenario_from_dict(cfg, path="inline")

    def test_unknown_top_level_key(self):
        cfg = small_cfg()
        cfg["wrong"] = 1
        with pytest.raises(ValueError, match="wrong"):
            pic.scenario_from_dict(cfg, path="inline")

    def test_missing_key_rejected(self):
        cfg = small_cfg()
        del cfg["dt"]
        with pytest.raises(ValueError, match="dt"):
            pic.scenario_from_dict(cfg, path="inline")

    def test_momentum_tail_exponent_validated(self):
        cfg = small_cfg()
        cfg["f0"]["alpha"] = 2.0   # needs alpha > 2 for finite sampling
        with pytest.raises(ValueError):
            pic.scenario_from_dict(cfg, path="inline")

    @pytest.mark.parametrize("key,value", [
        ("diagnostic_every", 0),
        ("grid_n", 0),
        ("moment_orders", [-3.0]),
        ("moment_orders", []),
        ("grid_n", True),
        ("seed", True),
        ("box", "20"),
        ("delta", float("nan")),
        ("n_tracers", -5),
        ("f0", []),
        ("f0.sigma_x", -1.0),
        ("f0.beams", [[0.5]]),
        ("fields0.poisson", "yes"),
    ])
    def test_bad_value_rejected_with_key_path(self, key, value):
        cfg = small_cfg()
        head, _, leaf = key.partition(".")
        if leaf:
            cfg[head][leaf] = value
        else:
            cfg[head] = value
        with pytest.raises(ValueError, match=rf"^inline: {re.escape(key)}: must be"):
            pic.scenario_from_dict(cfg, path="inline")

    def test_load_scenario_json(self, tmp_path):
        import json
        f = tmp_path / "s.json"
        f.write_text(json.dumps(small_cfg()))
        scn = pic.load_scenario(f)
        assert scn.mode == "2d"
        assert scn.grid.nx == 32


class TestSampling:
    def test_deterministic(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        e1 = pic.sample_ensemble(scn)
        e2 = pic.sample_ensemble(scn)
        assert np.array_equal(e1.x, e2.x)
        assert np.array_equal(e1.p, e2.p)

    def test_total_mass_and_box(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        assert np.sum(ens.w) == pytest.approx(scn.f0["mass"], rel=1e-12)
        assert np.all(ens.x >= 0.0)
        assert np.all(ens.x < scn.box)

    def test_planar_momenta_are_2d(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        assert ens.p.shape[1] == 2

    def test_out_of_plane_component(self):
        scn = pic.scenario_from_dict(small_cfg_25d(), path="inline")
        ens = pic.sample_ensemble(scn)
        assert ens.p.shape[1] == 3
        assert np.std(ens.p[:, 2]) > 0.0


class TestDeposit:
    def test_charge_is_conserved_exactly(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        src = pic.deposit(ens, scn.grid)
        total = np.sum(src.rho) * scn.grid.cell
        assert total == pytest.approx(4.0 * np.pi * np.sum(ens.w), rel=1e-12)

    def test_current_bounded_by_charge(self):
        # |j| <= rho pointwise would need collocated particles; check totals:
        # |integral j| <= integral rho since |phat| < 1
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        src = pic.deposit(ens, scn.grid)
        jt = np.abs(np.sum(src.j, axis=(1, 2))) * scn.grid.cell
        assert np.all(jt <= np.sum(src.rho) * scn.grid.cell + 1e-12)

    def test_outside_box_rejected(self):
        g = mx.Grid(8, 8, 4.0, 4.0)
        ens = ParticleEnsemble(dim_p=2, x=np.array([[5.0, 1.0]]),
                               p=np.zeros((1, 2)), w=np.ones(1),
                               box=[4.0, 4.0])
        with pytest.raises(ValueError):
            pic.deposit(ens, g)

    def test_deposit_is_adjoint_of_gather(self):
        # one stencil serves both: sum(rho * arr) * cell = 4 pi sum(w * arr(x)),
        # and likewise for each current component with weights w * phat
        g = mx.Grid(16, 12, 8.0, 6.0)
        rng = np.random.default_rng(4)
        n = 400
        ens = ParticleEnsemble(dim_p=3, x=rng.random((n, 2)) * [8.0, 6.0],
                               p=rng.standard_normal((n, 3)),
                               w=rng.random(n) + 0.1, box=[8.0, 6.0])
        arr = rng.standard_normal((g.nx, g.ny))
        src = pic.deposit(ens, g)
        at_x = 4.0 * np.pi * pic.gather_cic(g, arr, ens.x)
        assert np.sum(src.rho * arr) * g.cell == pytest.approx(
            np.sum(ens.w * at_x), rel=1e-12)
        for c in range(3):
            assert np.sum(src.j[c] * arr) * g.cell == pytest.approx(
                np.sum(ens.w * ens.phat[:, c] * at_x), rel=1e-12)

    def test_wrap_box_stays_below_box(self):
        # -1e-17 % 20.0 rounds up to exactly 20.0, outside [0, box)
        box = np.array([20.0, 20.0])
        x = pic.wrap_box(np.array([[-1e-17, 5.0], [25.0, -3.0]]), box)
        assert np.array_equal(x, [[0.0, 5.0], [5.0, 17.0]])


class TestGather:
    def test_tsc_constant_field(self):
        g = mx.Grid(16, 16, 8.0, 8.0)
        arr = np.full((16, 16), 3.5)
        pos = np.random.default_rng(0).random((50, 2)) * 8.0
        assert np.abs(pic.gather_tsc(g, arr, pos) - 3.5).max() < 1e-13
        # the quadratic spline also reproduces linear data and its slope
        # wherever its three nodes per axis stay off the periodic seam
        x, y = g.mesh()
        pos = 1.0 + np.random.default_rng(1).random((50, 2)) * 5.5
        val, grad = pic.gather_tsc_grad(g, 2.0 * x - 3.0 * y, pos)
        assert np.abs(val - (2.0 * pos[:, 0] - 3.0 * pos[:, 1])).max() < 1e-12
        assert np.abs(grad - [2.0, -3.0]).max() < 1e-12

    def test_tsc_gradient_of_smooth_field(self):
        g = mx.Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
        x, y = g.mesh()
        arr = np.sin(x) * np.cos(2 * y)
        pos = np.random.default_rng(1).random((200, 2)) * 2.0 * np.pi
        val, grad = pic.gather_tsc_grad(g, arr, pos)
        exact = np.stack([np.cos(pos[:, 0]) * np.cos(2 * pos[:, 1]),
                          -2 * np.sin(pos[:, 0]) * np.sin(2 * pos[:, 1])],
                         axis=-1)
        assert np.abs(grad - exact).max() < 2e-2
        # a stacked (k, nx, ny) array gives each component's gather
        vals, grads = pic.gather_tsc_grad(g, np.stack([arr, -2.0 * arr]), pos)
        assert vals.shape == (2, 200) and grads.shape == (2, 200, 2)
        assert np.allclose(vals[0], val, rtol=0, atol=1e-14)
        assert np.allclose(grads[0], grad, rtol=0, atol=1e-12)
        assert np.abs(grads[1] + 2.0 * exact).max() < 4e-2


class TestRun:
    def test_conservation_2d(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        rep = pic.conservation_report(pic.run(scn))
        assert rep["charge_drift"] == 0.0
        assert rep["energy_drift"] < 1e-4
        assert rep["gauss_max"] < 1e-12

    def test_conservation_25d(self):
        scn = pic.scenario_from_dict(small_cfg_25d(), path="inline")
        res = pic.run(scn)
        rep = pic.conservation_report(res)
        assert rep["charge_drift"] == 0.0
        assert rep["energy_drift"] < 1e-4
        assert rep["tracer_invariant_drift"] < 1e-4

    def test_dt_bound_enforced(self):
        scn = pic.scenario_from_dict(small_cfg(dt=1.0), path="inline")
        with pytest.raises(ValueError):
            pic.run(scn)

    def test_deterministic_diagnostics(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        r1 = pic.run(scn)
        r2 = pic.run(scn)
        assert np.array_equal(r1.series.data, r2.series.data)

    def test_history_recording(self):
        scn = pic.scenario_from_dict(small_cfg(t_final=0.2,
                                               store_history=True),
                                     path="inline")
        res = pic.run(scn)
        assert res.history is not None
        assert len(res.history.times) == 5   # t = 0 plus 4 steps
        assert res.history.fields[0].time == 0.0

    def test_moment_monitor_finite(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        mon = pic.moment_inequality_monitor(pic.run(scn))
        assert np.isfinite(mon["constant"])
        assert mon["constant"] >= 0.0


class TestSeriesAndHistory:
    def test_series_roundtrip_byte_identical(self, tmp_path):
        scn = pic.scenario_from_dict(small_cfg(t_final=0.2), path="inline")
        res = pic.run(scn)
        f1, f2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        res.series.save_csv(f1)
        back = pic.DiagnosticSeries.load_csv(f1)
        assert back.columns == res.series.columns
        assert np.array_equal(back.data, res.series.data)
        back.save_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_history_npz_roundtrip(self, tmp_path):
        scn = pic.scenario_from_dict(small_cfg(t_final=0.2,
                                               store_history=True),
                                     path="inline")
        res = pic.run(scn)
        f = tmp_path / "h.npz"
        res.history.save_npz(f)
        back = pic.RunHistory.load_npz(f)
        h = res.history
        assert back.mode == h.mode and back.grid == h.grid
        assert np.array_equal(back.times, h.times)
        assert np.array_equal(back.w, h.w)
        assert len(back.fields) == len(back.part_x) == len(back.part_p) \
            == len(h.times)
        for k in range(len(h.times)):
            assert np.array_equal(back.fields[k].E, h.fields[k].E)
            assert np.array_equal(back.fields[k].B, h.fields[k].B)
            assert back.fields[k].time == h.times[k]
            assert np.array_equal(back.part_x[k], h.part_x[k])
            assert np.array_equal(back.part_p[k], h.part_p[k])
        # each stack is decompressed once: every step is a view into it
        for steps in ([f.E for f in back.fields], [f.B for f in back.fields],
                      back.part_x, back.part_p):
            assert steps[0].base is not None
            assert all(a.base is steps[0].base for a in steps)


class TestForceFree:
    def test_moments_exactly_constant(self):
        # free streaming leaves every p0 moment of the ensemble untouched
        from vmlab import characteristics as chars
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        zero = lambda t, x: (np.zeros((len(x), 3)), np.zeros((len(x), 3)))  # noqa: E731
        m0 = float(np.sum(ens.w * ens.p0 ** 2))
        x, p = ens.x, ens.p
        for _ in range(20):
            x, p = chars.push_many(x, p, zero, 0.0, 0.05)
        m1 = float(np.sum(ens.w * (1.0 + np.sum(p * p, axis=1))))
        assert abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))
