"""Particle-in-cell engine: scenario validation, sampling, deposition,
gathering, the coupled time loop, and its conservation reports."""

import dataclasses
import json
import re
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from vmlab import cli, phase, pic
from vmlab import maxwell as mx
from vmlab.phase import ParticleEnsemble, p0_of

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
        # column names keep 6 significant digits of the order
        ("moment_orders", [2, 2]),
        ("moment_orders", [2.5, 2.5000001]),
        ("moment_orders", [0.123451, 0.123452]),   # both k_l2.12345
        # the cell area (box / grid_n) ** 2 below the smallest normal float,
        # or box * box overflows: the deposit divides by the area
        ("box", 1e-300),
        ("box", 1e-160),
        ("box", 1e200),
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

    @pytest.mark.parametrize("t_final,dt", [(0.07, 0.05), (0.3, 0.07),
                                            (0.01, 0.05), (1e300, 1e-10)])
    def test_t_final_off_the_step_grid(self, t_final, dt):
        with pytest.raises(ValueError, match=r"^inline: t_final: must be a "
                                             r"whole number of steps"):
            pic.scenario_from_dict(small_cfg(t_final=t_final, dt=dt),
                                   path="inline")

    @pytest.mark.parametrize("t_final,dt,n", [(5.0, 0.05, 100),
                                              (0.3, 0.1, 3),
                                              (1.5, 0.0125, 120)])
    def test_t_final_on_the_step_grid(self, t_final, dt, n):
        cfg = small_cfg(t_final=t_final, dt=dt)
        assert pic.scenario_from_dict(cfg, path="inline").n_steps == n

    def test_load_scenario_json(self, tmp_path):
        import json
        f = tmp_path / "s.json"
        f.write_text(json.dumps(small_cfg()))
        scn = pic.load_scenario(f)
        assert scn.mode == "2d"
        assert scn.grid.nx == 32


    def test_blob_wider_than_the_box_rejected(self):
        with pytest.raises(ValueError, match=r"^inline: f0\.sigma_x: must be "
                           r"at most box = 20\.0, got 21\.0$"):
            pic.scenario_from_dict(small_cfg(f0={"sigma_x": 21.0}),
                                   path="inline")

    @pytest.mark.parametrize("t_final,dt", [(1e-12, 0.05), (0.3, 1e12)])
    def test_t_final_under_one_step_rejected(self, t_final, dt):
        # t_final / dt rounds to 0 steps within the whole-number window
        with pytest.raises(ValueError, match=rf"^inline: t_final: must be at "
                           rf"least one step of dt = {re.escape(repr(dt))}, "):
            pic.scenario_from_dict(small_cfg(t_final=t_final, dt=dt),
                                   path="inline")

    @pytest.mark.parametrize("key", ["a3_sigma", "e3_sigma"])
    def test_field_gaussian_narrower_than_a_cell_rejected(self, key):
        cfg = small_cfg_25d()                  # grid spacing 20 / 24
        cfg["fields0"][key] = 0.8
        with pytest.raises(ValueError, match=rf"^inline: fields0\.{key}: must "
                           r"be at least the grid spacing box / grid_n = "
                           r"20\.0 / 24, got 0\.8$"):
            pic.scenario_from_dict(cfg, path="inline")
        cfg["fields0"][key] = 20.0 / 24
        pic.scenario_from_dict(cfg, path="inline")

    @pytest.mark.parametrize("name", ["a3", "e3"])
    def test_default_field_width_narrower_than_a_cell_exits_2(
            self, name, tmp_path, capsys):
        # the Gaussian that initial_fields builds at the default width 1.0
        # is narrower than the grid spacing 20 / 16
        cfg = small_cfg_25d(grid_n=16, fields0={f"{name}_amp": 0.05})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(cfg))
        code = cli.main(["simulate", str(f), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"fields0.{name}_sigma: must be at least the grid spacing" in err
        assert "got 1.0 (the default)" in err

    @pytest.mark.parametrize("cfg", [
        small_cfg_25d(grid_n=16, fields0={}),
        small_cfg(grid_n=16, fields0={"a3_amp": 0.05, "e3_amp": 0.05}),
    ])
    def test_field_width_unchecked_where_no_gaussian_is_built(self, cfg):
        # no amplitude in 2.5d, and a planar run builds no A3 or E3
        pic.scenario_from_dict(cfg, path="inline")

    def test_readme_schema_table_is_the_rule_table(self):
        # the README's table of scenario keys is pic._RULES, row for row,
        # with each key's default: the Scenario field's, or pic._DEFAULTS'
        text = (SCENARIOS.parent / "README.md").read_text()
        table = text.split("| key | requirement | default |\n"
                           "| --- | --- | --- |\n")[1]
        rows = [re.fullmatch(r"\| `([\w.]+)` \| ([^|]+) \| ([^|]+) \|",
                             line).groups()
                for line in table.split("\n\n")[0].splitlines()]
        given = {f.name: f.default for f in dataclasses.fields(pic.Scenario)}
        given.update(pic._DEFAULTS)
        assert rows == [(k, need, "required" if given[k] is dataclasses.MISSING
                         else f"`{json.dumps(given[k])}`")
                        for k, (_, need) in pic._RULES.items()]


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
        rho, j = pic.deposit(ens, scn.grid, pic.deposit_work(len(ens)))
        total = np.sum(rho) * scn.grid.cell
        assert total == pytest.approx(4.0 * np.pi * np.sum(ens.w), rel=1e-12)

    def test_current_bounded_by_charge(self):
        # |j| <= rho pointwise would need collocated particles; check totals:
        # |integral j| <= integral rho since |phat| < 1
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        rho, j = pic.deposit(ens, scn.grid, pic.deposit_work(len(ens)))
        jt = np.abs(np.sum(j, axis=(1, 2))) * scn.grid.cell
        assert np.all(jt <= np.sum(rho) * scn.grid.cell + 1e-12)

    def test_outside_box_rejected(self):
        g = mx.Grid(8, 8, 4.0, 4.0)
        ens = ParticleEnsemble(x=np.array([[5.0, 1.0]]),
                               p=np.zeros((1, 2)), w=np.ones(1),
                               box=[4.0, 4.0])
        with pytest.raises(ValueError):
            pic.deposit(ens, g, pic.deposit_work(len(ens)))

    def test_deposit_is_adjoint_of_gather(self):
        # one stencil serves both: sum(rho * arr) * cell = 4 pi sum(w * arr(x)),
        # and likewise for each current component with weights w * phat
        g = mx.Grid(16, 12, 8.0, 6.0)
        rng = np.random.default_rng(4)
        n = 400
        ens = ParticleEnsemble(x=rng.random((n, 2)) * [8.0, 6.0],
                               p=rng.standard_normal((n, 3)),
                               w=rng.random(n) + 0.1, box=[8.0, 6.0])
        arr = rng.standard_normal((g.nx, g.ny))
        rho, j = pic.deposit(ens, g, pic.deposit_work(len(ens)))
        at_x = 4.0 * np.pi * pic.gather_cic(g, arr, ens.x)
        assert np.sum(rho * arr) * g.cell == pytest.approx(
            np.sum(ens.w * at_x), rel=1e-12)
        for c in range(3):
            assert np.sum(j[c] * arr) * g.cell == pytest.approx(
                np.sum(ens.w * (ens.p[:, c] / ens.p0) * at_x), rel=1e-12)

    def test_wrap_box_stays_below_box(self):
        # -1e-17 % 20.0 rounds up to exactly 20.0, outside [0, box)
        box = np.array([20.0, 20.0])
        x = pic.wrap_box(np.array([[-1e-17, 5.0], [25.0, -3.0]]), box)
        assert np.array_equal(x, [[0.0, 5.0], [5.0, 17.0]])
        # one add or subtract within a box of [0, box), np.mod beyond it,
        # with the bits and signs of np.mod clamped below box
        v = np.array([-0.0, 0.0, -1e-17, 20.0, np.nextafter(20.0, 0.0),
                      40.0, 70.0, -41.0, -20.0, 20.04, -0.04, 7.5])
        x = np.stack([v, v[::-1]], axis=-1)
        ref = np.mod(x, box)
        ref = np.where(ref >= box, 0.0, ref)
        for pts, want in ((x, ref), (x.reshape(2, -1, 2), ref.reshape(2, -1, 2))):
            got = pic.wrap_box(pts, box)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.all((got >= 0.0) & (got < box))

    def test_cic_stencil_edges(self):
        # x / h rounds up to n just below each box side on this grid
        g = mx.Grid(6, 5, 1.0, 7.0)
        assert np.nextafter(g.lx, 0.0) / g.hx == g.nx
        assert np.nextafter(g.ly, 0.0) / g.hy == g.ny
        xs = [0.0, np.nextafter(g.lx, 0.0), 2 * g.hx, 0.5, -1e-17,
              -0.5 * g.hx, np.nextafter(-g.hx, 0.0)]
        ys = [0.0, np.nextafter(g.ly, 0.0), 3 * g.hy, 2.0, -1e-17,
              -0.5 * g.hy, np.nextafter(-g.hy, 0.0)]
        x = np.array([[a, b] for a in xs for b in ys])
        idx, w = np.empty((4, len(x)), np.intp), np.empty((4, len(x)))
        pic._stencil(g, x, idx, w)
        want_idx, want_w = _outer_stencil(g, x, 2)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(w, want_w)

        # the TSC shape at the same positions and at exact half-node ties,
        # where rint rounds to even, against its outer-product form
        tx = np.array([0.5, 1.5, 2.5, 4.5, 5.5]) * g.hx
        ty = np.array([0.5, 2.5, 3.5, 4.5]) * g.hy
        assert np.all(tx / g.hx % 1.0 == 0.5)
        assert np.all(ty / g.hy % 1.0 == 0.5)
        x = np.array([[a, b] for a in xs + list(tx) for b in ys + list(ty)])
        idx = np.empty((9, len(x)), np.intp)
        w, wdx, wdy = np.empty((3, 9, len(x)))
        pic._stencil(g, x, idx, w, wdx, wdy)
        for got, want in zip((idx, w, wdx, wdy), _outer_stencil(g, x, 3)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [64, 45])
    def test_stencil_wraps_node_indices_as_mod(self, n):
        # one add or subtract of n wraps a node index within one box of
        # [0, n); -3 box and 5 box need the % beyond it. The first CIC node
        # is -1 at -h/2 and n at the box; the first TSC node is -1 at 0
        g = mx.Grid(n, n, 20.0, 20.0)
        edge = [-0.5 * g.hx, 0.0, np.nextafter(g.lx, 0.0), g.lx,
                -3.0 * g.lx, 5.0 * g.lx, 7.3]
        x = np.array([[a, b] for a in edge for b in edge])
        for m, k in ((2, 4), (3, 9)):
            idx, w = np.empty((k, len(x)), np.intp), np.empty((k, len(x)))
            pic._stencil(g, x, idx, w)
            want_idx, want_w = _outer_stencil(g, x, m)[:2]
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(w, want_w)
            # and the same on column-ordered positions
            pic._stencil(g, np.asfortranarray(x), idx, w)
            assert np.array_equal(idx, want_idx)
        # a non-finite position takes the integer % fallback: its nodes stay
        # on the grid, so a non-finite state ends in pic.run's finiteness
        # check, not in an IndexError
        bad = [np.nan, np.inf, -np.inf, 7.3]
        x = np.array([[a, b] for a in bad for b in bad])
        for k in (4, 9):
            idx, w = np.empty((k, len(x)), np.intp), np.empty((k, len(x)))
            with np.errstate(invalid="ignore"):
                pic._stencil(g, x, idx, w)
            assert np.all((idx >= 0) & (idx < n * n))


def _outer_stencil(g, x, m):
    """The outer-product form of the CIC (m = 2) or TSC (m = 3) shape at
    positions x (n, 2), with node indices wrapped by ``% n``: (idx, w) and
    for TSC the derivative weights (wdx, wdy), each (m * m, n)."""
    axes = []
    for c, (n, h) in enumerate(((g.nx, g.hx), (g.ny, g.hy))):
        f = x[:, c] / h
        i0 = np.floor(f) if m == 2 else np.rint(f)
        t = f - i0
        if m == 2:
            ws, ds = np.stack((1.0 - t, t)), None
        else:
            i0 -= 1
            ws = np.stack((0.5 * (0.5 - t) ** 2, 0.75 - t * t,
                           0.5 * (0.5 + t) ** 2))
            ds = np.stack((t - 0.5, -2.0 * t, t + 0.5)) / h
        axes.append(((i0.astype(np.intp) + np.arange(m)[:, None]) % n,
                     ws, ds))
    (ix, wx, dx), (iy, wy, dy) = axes

    def outer(a, b):
        return (a[:, None] * b[None, :]).reshape(m * m, -1)

    out = ((ix[:, None] * g.ny + iy[None, :]).reshape(m * m, -1),
           outer(wx, wy))
    return out if m == 2 else out + (outer(dx, wy), outer(wx, dy))


def _central_inplane_b(g, a3, pos, h=1e-6):
    """(d2 A3, -d1 A3) by central differences of the TSC interpolant that
    gather_tsc evaluates; near exact, as it is quadratic on each piece."""
    d = [(pic.gather_tsc(g, a3, pos + step) - pic.gather_tsc(g, a3, pos - step))
         / (2.0 * h) for step in np.eye(2) * h]
    return np.stack([d[1], -d[0]], axis=-1)


class TestGather:
    @staticmethod
    def _inplane_b(g, a3, pos):
        """The in-plane B = (d2 A3, -d1 A3) that the 2.5d sampler builds from
        the TSC interpolant of a3, at positions pos."""
        zeros = np.zeros((3, g.nx, g.ny))
        fields = mx.FieldState("2.5d", g, zeros, zeros)
        return pic.make_field_sampler(fields, a3)(pos)[1][:, :2]

    def test_tsc_constant_field(self):
        g = mx.Grid(16, 16, 8.0, 8.0)
        arr = np.full((16, 16), 3.5)
        pos = np.random.default_rng(0).random((50, 2)) * 8.0
        assert np.abs(pic.gather_tsc(g, arr, pos) - 3.5).max() < 1e-13
        # the quadratic spline also reproduces linear data and its slope
        # wherever its three nodes per axis stay off the periodic seam
        x, y = g.mesh()
        pos = 1.0 + np.random.default_rng(1).random((50, 2)) * 5.5
        a3 = 2.0 * x - 3.0 * y
        val = pic.gather_tsc(g, a3, pos)
        assert np.abs(val - (2.0 * pos[:, 0] - 3.0 * pos[:, 1])).max() < 1e-12
        assert np.abs(self._inplane_b(g, a3, pos) - [-3.0, -2.0]).max() < 1e-12

    def test_tsc_gradient_of_smooth_field(self):
        g = mx.Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
        x, y = g.mesh()
        arr = np.sin(x) * np.cos(2 * y)
        pos = np.random.default_rng(1).random((200, 2)) * 2.0 * np.pi
        b = self._inplane_b(g, arr, pos)
        exact = np.stack([-2 * np.sin(pos[:, 0]) * np.sin(2 * pos[:, 1]),
                          -np.cos(pos[:, 0]) * np.cos(2 * pos[:, 1])],
                         axis=-1)
        assert np.abs(b - exact).max() < 2e-2
        assert np.abs(b - _central_inplane_b(g, arr, pos)).max() < 1e-8
        # a stacked (k, nx, ny) array gives each component's gather
        vals = pic.gather_tsc(g, np.stack([arr, -2.0 * arr]), pos)
        assert vals.shape == (2, 200)
        assert np.array_equal(vals[0], pic.gather_tsc(g, arr, pos))


class TestFieldSampler:
    @staticmethod
    def _fields(mode):
        g = mx.Grid(16, 16, 8.0, 8.0)
        rng = np.random.default_rng(3)
        E, B = rng.standard_normal((2, 3, 16, 16))
        if mode == "2d":
            E[2] = B[0] = B[1] = 0.0
        return mx.FieldState(mode, g, E, B), rng.random((50, 2)) * 8.0

    def test_2d_returns_live_components(self):
        fields, x = self._fields("2d")
        E, B = pic.make_field_sampler(fields, None)(x)
        assert E.shape == (50, 2) and B.shape == (50,)
        g = fields.grid
        assert np.array_equal(E[:, 0], pic.gather_cic(g, fields.E[0], x))
        assert np.array_equal(E[:, 1], pic.gather_cic(g, fields.E[1], x))
        assert np.array_equal(B, pic.gather_cic(g, fields.B[2], x))

    def test_25d_reconstructs_inplane_b_from_a3(self):
        fields, x = self._fields("2.5d")
        a3 = np.random.default_rng(4).standard_normal((16, 16))
        E, B = pic.make_field_sampler(fields, a3)(x)
        assert E.shape == B.shape == (50, 3)
        g = fields.grid
        assert np.array_equal(E, pic.gather_tsc(g, fields.E, x).T)
        assert np.array_equal(B[:, 2], pic.gather_tsc(g, fields.B[2], x))
        # in-plane B = (d2 A3, -d1 A3), the gradient of the A3 interpolant
        assert np.abs(B[:, :2] - _central_inplane_b(g, a3, x)).max() < 1e-6

    def test_25d_requires_a3(self):
        fields, _ = self._fields("2.5d")
        with pytest.raises(ValueError, match="A3"):
            pic.make_field_sampler(fields, None)


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

    @pytest.mark.parametrize("cfg,n_tracers,present", [
        (small_cfg, 20, False), (small_cfg_25d, 0, False),
        (small_cfg_25d, 20, True)])
    def test_tracer_drift_only_with_tracers(self, cfg, n_tracers, present):
        res = pic.run(pic.scenario_from_dict(
            cfg(n_tracers=n_tracers, t_final=0.1), path="inline"))
        rep = pic.conservation_report(res)
        assert ("tracer_invariant_drift" in rep) == present
        if present:
            drift = res.series.column("tracer_invariant_drift")
            assert rep["tracer_invariant_drift"] == drift.max() > 0.0

    def test_gauss_growth_at_rounding_level_is_one(self):
        # residuals of a few 1e-16 that wander up in the later half are
        # rounding, below 64 eps max(rho_max) sqrt(lx ly) = 1.3e-14
        res = pic.run(pic.scenario_from_dict(small_cfg(t_final=0.1),
                                             path="inline"))
        cols = res.series.columns
        data = np.zeros((6, len(cols)))
        data[:, cols.index("time")] = np.arange(6) * 0.05
        data[:, cols.index("rho_max")] = 0.046
        data[:, cols.index("gauss_residual")] = [3e-16, 4e-16, 3.5e-16,
                                                 4.7e-16, 5e-16, 4.9e-16]
        series = pic.DiagnosticSeries(columns=cols, data=data)
        rep = pic.conservation_report(dataclasses.replace(res, series=series))
        assert rep["gauss_growth"] == 1.0

    def test_gauss_growth_without_correction_in_the_later_half(self):
        # golden_2d at 20,000 particles with the Gauss correction switched
        # off after half the steps: the residual grows far above rounding
        cfg = pic.load_scenario(SCENARIOS / "golden_2d.json").to_canonical_dict()
        cfg.update(n_particles=20_000)
        scn = pic.scenario_from_dict(cfg, path="inline")

        class HalfCorrected:
            reads = 0

            def __getattr__(self, name):
                return getattr(scn, name)

            @property
            def gauss_correction(self):
                HalfCorrected.reads += 1
                return HalfCorrected.reads <= scn.n_steps // 2

        rep = pic.conservation_report(pic.run(HalfCorrected()))
        assert HalfCorrected.reads == scn.n_steps
        assert rep["gauss_growth"] > 1e6

    def test_dt_bound_enforced(self):
        scn = pic.scenario_from_dict(small_cfg(dt=1.0, t_final=1.0),
                                     path="inline")
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
        h = res.history
        assert h is not None
        assert h.times.shape == (5,)          # t = 0 plus 4 steps
        assert h.E.shape == h.B.shape == (5, 3, 32, 32)
        assert h.part_x.shape == (5, 3000, 2)
        assert h.part_p.shape == (5, 3000, 2)
        assert np.array_equal(h.part_x[0], pic.sample_ensemble(scn).x)
        assert np.array_equal(h.part_x[-1], res.ensemble.x)
        assert np.array_equal(h.E[-1], res.fields.E)

    @pytest.mark.parametrize("cfg", [small_cfg, small_cfg_25d])
    def test_one_clock(self, cfg):
        # stored times and diagnostics read k * dt; ten additions of 0.05
        # give 0.49999999999999994
        scn = pic.scenario_from_dict(cfg(t_final=0.5, store_history=True),
                                     path="inline")
        res = pic.run(scn)
        assert np.array_equal(res.history.times, np.arange(11) * 0.05)
        assert res.series.column("time")[-1] == 10 * 0.05

    def test_one_initial_deposit(self, monkeypatch):
        # the t = 0 source feeds both the Poisson solve and the first step
        calls = []
        deposit = pic.deposit

        def counted(ens, grid, *work):
            calls.append(len(ens))
            return deposit(ens, grid, *work)

        monkeypatch.setattr(pic, "deposit", counted)
        pic.run(pic.scenario_from_dict(small_cfg(t_final=0.1), path="inline"))
        assert len(calls) == 3                # t = 0 plus 2 steps

    def test_nonfinite_a3_aborts_the_run(self, monkeypatch):
        # A3 is evolved after the push, so only the state check sees it
        # within the step that makes it non-finite
        evolve_a3 = mx.evolve_a3
        calls = []

        def poisoned(a3, e3_mid, dt):
            calls.append(dt)
            out = evolve_a3(a3, e3_mid, dt)
            return out * np.nan if len(calls) == 2 else out

        monkeypatch.setattr(mx, "evolve_a3", poisoned)
        scn = pic.scenario_from_dict(small_cfg_25d(t_final=0.05),
                                     path="inline")
        with pytest.raises(FloatingPointError, match=r"^non-finite A3 at"):
            pic.run(scn)

    def test_high_order_field_norm_neither_underflows_nor_overflows(self):
        # kmag^302 underflows to 0 below kmag ~ 0.1: the column must stay
        # within the bounds any L^q norm of the grid field obeys
        cfg = pic.load_scenario(SCENARIOS / "golden_2d.json").to_canonical_dict()
        cfg.update(n_particles=2000, moment_orders=[2, 300], t_final=0.1)
        scn = pic.scenario_from_dict(cfg, path="inline")
        s = pic.run(scn).series
        kinf, kq = s.column("k_linf"), s.column("k_l302")
        assert (kinf > 0).all()
        q, g = 302, scn.grid
        assert (kinf * g.cell ** (1 / q) <= kq).all()
        assert (kq <= kinf * (g.lx * g.ly) ** (1 / q)).all()

    def test_moment_monitor_finite(self):
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        mon = pic.moment_inequality_monitor(pic.run(scn))
        assert np.isfinite(mon["constant"])
        assert mon["constant"] >= 0.0


class TestBlocks:
    """The particle step runs ``phase._BLOCK`` rows at a time; the block size
    must not change a bit of any output."""

    @pytest.mark.parametrize("cfg", [small_cfg, small_cfg_25d])
    def test_block_size_leaves_outputs_unchanged(self, cfg, tmp_path,
                                                 monkeypatch):
        n = 2 * phase._BLOCK + 3
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(cfg(n_particles=n, t_final=0.1)))
        files = ("diagnostics.csv", "ensemble.csv", "fields.csv")
        outs = []
        for block in (phase._BLOCK, 7, n + 1):
            monkeypatch.setattr(phase, "_BLOCK", block)
            out = tmp_path / f"block{block}"
            assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
            outs.append([(out / f).read_bytes() for f in files])
        assert outs[1] == outs[0]
        assert outs[2] == outs[0]

    @pytest.mark.parametrize("cfg", [small_cfg, small_cfg_25d])
    def test_push_hands_its_p0_to_the_next_ensemble(self, cfg, monkeypatch):
        # an ensemble computes p0 on first use; after a step it has the
        # push's, so only the initial ensemble computes its own
        calls = []

        def counted(p):
            calls.append(len(p))
            return p0_of(p)

        monkeypatch.setattr(phase, "p0_of", counted)
        ens = pic.run(pic.scenario_from_dict(cfg(t_final=0.1),
                                             path="inline")).ensemble
        assert len(calls) == 1
        assert np.array_equal(ens.p0, p0_of(ens.p))


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
        for key in ("times", "E", "B", "part_x", "part_p", "w"):
            assert np.array_equal(getattr(back, key), getattr(h, key)), key
        # uncompressed entries; save -> load -> save writes the same bytes
        with zipfile.ZipFile(f) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
        again = tmp_path / "h2.npz"
        back.save_npz(again)
        assert f.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("cfg", [
        small_cfg, small_cfg_25d,
        lambda **over: small_cfg(n_particles=0, **over),
    ], ids=["2d", "2.5d", "no_particles"])
    def test_history_npz_is_the_savez_archive(self, cfg, tmp_path):
        # np.savez of the same arrays, 0-d mode and empty arrays included,
        # is the oracle
        scn = pic.scenario_from_dict(cfg(t_final=0.2, store_history=True),
                                     path="inline")
        h = pic.run(scn).history
        g = h.grid
        ours, oracle = tmp_path / "h.npz", tmp_path / "oracle.npz"
        h.save_npz(ours)
        np.savez(oracle, mode=h.mode, grid=np.array([g.nx, g.ny, g.lx, g.ly]),
                 times=h.times, E=h.E, B=h.B, part_x=h.part_x,
                 part_p=h.part_p, w=h.w)
        assert ours.read_bytes() == oracle.read_bytes()
        back = pic.RunHistory.load_npz(ours)
        assert (back.mode, back.grid) == (h.mode, h.grid)
        for key in ("times", "E", "B", "part_x", "part_p", "w"):
            assert np.array_equal(getattr(back, key), getattr(h, key)), key

    def test_save_npz_peak_below_one_step(self, tmp_path):
        # np.savez copies part_x and part_p whole while it writes them;
        # save_npz writes each array from its own buffer
        k, n, grid = 40, 20_000, mx.Grid(32, 32, 20.0, 20.0)
        h = pic.RunHistory(
            mode="2d", grid=grid, times=0.05 * np.arange(k),
            E=np.zeros((k, 3, 32, 32)), B=np.zeros((k, 3, 32, 32)),
            part_x=np.zeros((k, n, 2)), part_p=np.zeros((k, n, 2)),
            w=np.full(n, 1.0 / n))
        step = sum(a[0].nbytes for a in (h.E, h.B, h.part_x, h.part_p))
        tracemalloc.start()
        try:
            h.save_npz(tmp_path / "h.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < step + 2 ** 20, f"{peak / step:.1f} steps"

    @pytest.mark.parametrize("key,shape", [
        ("E", (5, 3, 32, 31)), ("B", (4, 3, 32, 32)),
        ("part_x", (5, 3000, 3)), ("part_p", (5, 3000, 3)),
    ])
    def test_history_shapes_checked(self, key, shape):
        # k and n are read from times and w; a 2d history has 2 momenta
        scn = pic.scenario_from_dict(small_cfg(t_final=0.2,
                                               store_history=True),
                                     path="inline")
        h = pic.run(scn).history
        with pytest.raises(ValueError, match=f"^{key}: "):
            dataclasses.replace(h, **{key: np.zeros(shape)})

    @pytest.mark.parametrize("key,index,message", [
        ("E", (3, 2, 0, 5), "E: 2d mode requires E3 = 0, got a nonzero one "
                            "at step 3"),
        ("B", (0, 0, 7, 7), "B: 2d mode requires B1 = B2 = 0, got a nonzero "
                            "one at step 0"),
    ])
    def test_planar_history_has_no_out_of_plane_fields(self, key, index,
                                                       message):
        scn = pic.scenario_from_dict(small_cfg(t_final=0.2,
                                               store_history=True),
                                     path="inline")
        h = pic.run(scn).history
        arr = getattr(h, key).copy()
        arr[index] = -1e-300
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(h, **{key: arr})


class TestForceFree:
    def test_moments_exactly_constant(self):
        # free streaming leaves every p0 moment of the ensemble untouched
        from vmlab import characteristics as chars
        scn = pic.scenario_from_dict(small_cfg(), path="inline")
        ens = pic.sample_ensemble(scn)
        zero = lambda x: (np.zeros((len(x), 2)), np.zeros(len(x)))  # noqa: E731
        m0 = float(np.sum(ens.w * ens.p0 ** 2))
        x, p, p0 = ens.x, ens.p, ens.p0
        for _ in range(20):
            x, p, p0 = chars.push_many(x, p, p0, zero, 0.05)
        m1 = float(np.sum(ens.w * (1.0 + np.sum(p * p, axis=1))))
        assert abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))
