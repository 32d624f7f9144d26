"""End-to-end acceptance gate.

Each test here pins one headline guarantee of the package: exact algebraic
identities, geometry bounds with their explicit constants, quadrature
oracles, exact exponent arithmetic, conservation on the golden scenarios,
convergence orders, representation agreement, regression-pinned singular
integral constants, bytewise determinism, and the cold-plasma dispersion of
the coupled particle-field loop.  The golden runs are the
``vmlab simulate`` runs that the golden digests hash (the session's
``golden_outputs``, ``tests/conftest.py``), read back from their outputs, so
each golden scenario is simulated once per session.
"""

import functools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vmlab import characteristics as chars
from vmlab import inequalities as ineq
from vmlab import maxwell as mx
from vmlab import pic
from vmlab import retarded as rt
from vmlab.phase import ParticleEnsemble

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# --------------------------------------------------------------------------
# shared golden runs
# --------------------------------------------------------------------------


def _cli_run(golden_outputs, name: str):
    """The golden ``vmlab simulate`` run of scenario ``name``, read back from
    its outputs: ``scenario.json``, ``diagnostics.csv`` and ``history.npz``
    round-trip exactly, and ``manifest.json`` gives the run's wall time. The
    final ensemble and fields, which no check here reads, are left out."""
    out = golden_outputs.dir(f"simulate {name}")
    scn = pic.load_scenario(out / "scenario.json")
    history = (pic.RunHistory.load_npz(out / "history.npz")
               if scn.store_history else None)
    res = pic.RunResult(scn, pic.DiagnosticSeries.load_csv(
        out / "diagnostics.csv"), None, None, history)
    manifest = json.loads((out / "manifest.json").read_text())
    return scn, res, manifest["wall_time_end"] - manifest["wall_time_start"]


@pytest.fixture(scope="module")
def golden_2d_result(golden_outputs):
    return _cli_run(golden_outputs, "golden_2d.json")


@pytest.fixture(scope="module")
def golden_25d_runs(golden_outputs):
    """Golden full-momentum scenario at dt, dt/2, dt/4."""
    scn, res, _ = _cli_run(golden_outputs, "golden_25d.json")
    out = [(scn, res)]
    for k in (1, 2):
        cfg = scn.to_canonical_dict()
        cfg["dt"] = scn.dt / 2.0 ** k
        fine = pic.scenario_from_dict(cfg, path="inline")
        out.append((fine, pic.run(fine)))
    return out


@pytest.fixture(scope="module")
def golden_repr_result(golden_outputs):
    return _cli_run(golden_outputs, "golden_repr.json")[:2]


# --------------------------------------------------------------------------
# 1. flux identity
# --------------------------------------------------------------------------


def test_flux_identity_hundred_thousand_triples():
    t0 = time.perf_counter()
    rep = ineq.flux_identity_suite(0, 100_000)
    elapsed = time.perf_counter() - t0
    assert rep.n_samples == 100_000
    assert rep.max_ratio < 1e-12
    assert rep.details["planar_reduction"] < 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2. geometry bounds
# --------------------------------------------------------------------------


def test_geometry_bounds_million_samples():
    t0 = time.perf_counter()
    reports = ineq.geometry_bounds_check(1, 1_000_000)
    elapsed = time.perf_counter() - t0
    expected = {
        "xi_plus_phat": math.sqrt(2.0),
        "phat_cross_omega": math.sqrt(2.0),
        "xi_minus_omega": 1.0,
        "one_plus_phat_omega": 4.0,
        "inv_p0": math.sqrt(2.0),
        "xik_kappa_minus_phatk": math.sqrt(8.0),
    }
    assert set(reports) == set(expected)
    for name, rep in reports.items():
        assert rep.passed, (name, rep.max_ratio)
        assert rep.max_ratio <= 1.0
        assert rep.details["constant"] == pytest.approx(expected[name])
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 3. null-coordinate identity
# --------------------------------------------------------------------------


def test_null_coordinate_identity_on_cone_points():
    # 1 - |xi|^2 = 4 psi (t - s - psi) / (t - s)^2 with xi = (y-x)/(t-s)
    # and psi = (t - s - |y-x|)/2, for random backward-cone interiors
    rng = np.random.default_rng(3)
    n = 100_000
    t = 1.0 + 9.0 * rng.random(n)
    s = rng.random(n) * t * 0.999
    frac = rng.random(n) ** 0.5        # |y-x| / (t-s), biased outward
    r = frac * (t - s)
    xi_sq = frac ** 2
    psi = 0.5 * (t - s - r)
    rhs = 4.0 * psi * (t - s - psi) / (t - s) ** 2
    lhs = 1.0 - xi_sq
    # both sides live on the unit scale (xi in the closed unit disk), so the
    # residual is measured relative to that scale
    rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs) + np.abs(rhs))
    assert float(rel.max()) < 1e-12
    # the shipped check, which ``verify identities`` runs
    rep = ineq.null_coordinate_identity(0, 100_000)
    assert rep.passed
    assert rep.n_samples == 100_000
    assert rep.max_ratio < 1e-12


# --------------------------------------------------------------------------
# 4. retarded kernel quadrature oracle
# --------------------------------------------------------------------------


class TestBoxInverseOracle:
    def test_constant_source_gives_pi(self):
        v = rt.box_inverse(lambda s, pts: np.ones(len(pts)), 1.0,
                           (0.0, 0.0), n_s=64, n_phi=32)
        assert abs(v - math.pi) < 1e-8

    def test_linear_source_gives_pi_thirds(self):
        v = rt.box_inverse(lambda s, pts: np.full(len(pts), s), 1.0,
                           (0.0, 0.0), n_s=64, n_phi=32)
        assert abs(v - math.pi / 3.0) < 1e-8

    def test_node_doubling_convergence_order(self):
        # Gauss nodes on the desingularized cone integral converge
        # super-algebraically; node doubling must gain at least order 4
        F = lambda s, pts: np.exp(-np.sum(pts * pts, axis=1) - s)  # noqa: E731
        ref = rt.box_inverse(F, 1.0, (0.1, -0.2), n_s=256, n_phi=256)
        errs = [abs(rt.box_inverse(F, 1.0, (0.1, -0.2), n_s=n, n_phi=n) - ref)
                for n in (2, 4, 8)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 4.0


# --------------------------------------------------------------------------
# 5. Strichartz exponent arithmetic
# --------------------------------------------------------------------------


class TestStrichartzExponents:
    MOMENT_CLOSURE = (Fraction(336, 19), Fraction(32, 5),
                      Fraction(112, 31), Fraction(96, 17))
    FORCE_TERM = (Fraction(72, 13), Fraction(16), Fraction(72, 11),
                  Fraction(48, 13))

    def test_both_exponent_sets_accepted(self):
        for exps in (self.MOMENT_CLOSURE, self.FORCE_TERM):
            ok, violated = ineq.strichartz_admissible(*exps)
            assert ok, violated
            assert violated == []

    def test_scaling_identity_is_exactly_31_over_84(self):
        q1, r1, q2, r2 = self.MOMENT_CLOSURE
        lhs = 1 / q1 + 2 / r1
        q2p = q2 / (q2 - 1)
        r2p = r2 / (r2 - 1)
        rhs = 1 / q2p + 2 / r2p - 2
        assert lhs == Fraction(31, 84)
        assert rhs == Fraction(31, 84)
        assert lhs == rhs


# --------------------------------------------------------------------------
# 6. Gronwall lemma
# --------------------------------------------------------------------------


class TestGronwallBound:
    def test_saturated_linear_case_is_exponential(self):
        rep = ineq.gronwall_check(lambda t: 1.0, 1.0, 3.0, n_grid=10_000)
        t = rep.details["t"]
        g = rep.details["g"]
        assert np.abs(g - np.exp(t)).max() < 1e-6
        assert np.all(g <= 2.0 * np.exp(4.0 * t))
        assert rep.passed

    @pytest.mark.parametrize("M,p,T", [
        (lambda t: 1.0 + t, 2.0, 3.0),
        (lambda t: 0.5 + 0.1 * t * t, 1.5, 2.0),
        (lambda t: 2.0, 3.0, 1.5),
    ])
    def test_additional_configurations_below_bound(self, M, p, T):
        rep = ineq.gronwall_check(M, p, T, n_grid=5000)
        assert rep.passed
        assert rep.max_ratio <= 1.0


# --------------------------------------------------------------------------
# 7. conservation on the golden planar scenario
# --------------------------------------------------------------------------


class TestGoldenPlanarConservation:
    def test_energy_charge_gauss(self, golden_2d_result):
        scn, res, elapsed = golden_2d_result
        assert scn.grid.nx == 64
        assert scn.n_particles == 100_000
        assert scn.t_final == 5.0
        rep = pic.conservation_report(res)
        assert rep["energy_drift"] < 1e-3
        assert rep["charge_drift"] == 0.0
        assert rep["gauss_growth"] <= 1.0 + 1e-6   # residual never grows
        assert elapsed < 300.0


# --------------------------------------------------------------------------
# 8. out-of-plane invariant convergence on the golden full-momentum scenario
# --------------------------------------------------------------------------


class TestTracerInvariantOrder:
    def test_drift_is_second_order_in_dt(self, golden_25d_runs):
        assert golden_25d_runs[0][0].n_tracers == 100
        drifts = [pic.conservation_report(res)["tracer_invariant_drift"]
                  for _, res in golden_25d_runs]
        orders = [math.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (drifts, orders)


# --------------------------------------------------------------------------
# 9. representation agreement
# --------------------------------------------------------------------------


class TestRepresentationAgreement:
    def test_twenty_probes_against_grid_solver(self, golden_repr_result):
        scn, res = golden_repr_result
        probes = json.loads(
            (SCENARIOS / "golden_repr_probes.json").read_text())
        assert len(probes) == 20
        assert len({pr["t"] for pr in probes}) == 1
        reps = rt.field_from_representation(res.history, probes[0]["t"],
                                            [pr["x"] for pr in probes])
        assert rt.relative_l2_error(reps) < 0.05


# --------------------------------------------------------------------------
# 10. singular momentum-integral lemmas, pinned battery
# --------------------------------------------------------------------------


SWEEP = 1.0 - np.geomspace(1e-8, 1.0, 24)

# fixed regression battery: (a, c) planar profiles g = (c + rho^2)^(-a/2),
# and (a, b, c) separable full-momentum profiles with the extra line factor
# h = (1 + p3^2)^(-b/2).  The pinned value is the sup over the |xi| sweep of
# lhs / rhs; quadrature is deterministic, so reproduction within 10% guards
# against any drift in the estimate while the constants stay O(1)-bounded.
PLANAR_BATTERY = {
    (7.0, 0.5): 2.588971684484739,
    (7.0, 2.0): 0.21716184867366747,
    (8.0, 1.0): 0.7492622938125528,
    (9.0, 0.5): 3.4570703925389856,
    (9.0, 1.5): 0.277058158118163,
    (10.0, 1.0): 0.6853712958724039,
    (11.0, 2.0): 0.08669660542397227,
    (12.0, 0.5): 5.47559701348978,
    (13.0, 1.0): 0.6045381027870645,
    (14.0, 2.0): 0.04254758633984081,
}
FULL_BATTERY = {
    (8.0, 8.0, 1.0): 0.8635160561433702,
    (8.0, 10.0, 0.5): 3.0152252126420294,
    (9.0, 9.0, 1.0): 0.7695624205228709,
    (10.0, 8.0, 2.0): 0.12784473979997646,
    (10.0, 12.0, 1.0): 0.6381432042640859,
    (11.0, 9.0, 0.5): 4.936454806388597,
    (12.0, 10.0, 1.0): 0.6350257544761161,
    (12.0, 8.0, 1.5): 0.19822998226272423,
    (13.0, 11.0, 1.0): 0.5824368960650024,
    (14.0, 12.0, 2.0): 0.039736712473118024,
}


class TestSingularLemmaRegression:
    def test_battery_has_twenty_profiles(self):
        assert len(PLANAR_BATTERY) + len(FULL_BATTERY) == 20

    @pytest.mark.parametrize("params,pinned", sorted(PLANAR_BATTERY.items()))
    def test_planar_profiles(self, params, pinned):
        a, c = params
        rep = ineq.singular_integral_lemma_check(
            lambda rho: (c + rho ** 2) ** (-a / 2.0), SWEEP, mode="2d")
        assert rep.passed
        assert np.all(np.isfinite(rep.details["ratios_collar"]))
        assert np.all(np.isfinite(rep.details["ratios_flat"]))
        assert rep.max_ratio == pytest.approx(pinned, rel=0.10)

    @pytest.mark.parametrize("params,pinned", sorted(FULL_BATTERY.items()))
    def test_full_momentum_profiles(self, params, pinned):
        a, b, c = params
        rep = ineq.singular_integral_lemma_check(
            (lambda rho: (c + rho ** 2) ** (-a / 2.0),
             lambda p3: (1.0 + p3 ** 2) ** (-b / 2.0)), SWEEP, mode="2.5d")
        assert rep.passed
        assert rep.max_ratio == pytest.approx(pinned, rel=0.10)

    def test_sweep_reaches_near_light_cone(self):
        assert SWEEP.max() >= 1.0 - 1e-8
        assert np.all(SWEEP < 1.0)

    def test_quadrature_stability_under_node_doubling(self):
        a, c = 9.0, 0.5
        r400 = ineq.singular_integral_lemma_check(
            lambda rho: (c + rho ** 2) ** (-a / 2.0), SWEEP, mode="2d",
            n_nodes=400)
        r800 = ineq.singular_integral_lemma_check(
            lambda rho: (c + rho ** 2) ** (-a / 2.0), SWEEP, mode="2d",
            n_nodes=800)
        assert r400.max_ratio == pytest.approx(r800.max_ratio, rel=1e-6)


# --------------------------------------------------------------------------
# 11. moment differential inequality
# --------------------------------------------------------------------------


class TestMomentInequality:
    def test_constant_finite_on_golden_scenarios(self, golden_2d_result,
                                                 golden_25d_runs):
        _, res2d, _ = golden_2d_result
        _, res25d = golden_25d_runs[0]
        for res in (res2d, res25d):
            mon = pic.moment_inequality_monitor(res)
            assert math.isfinite(mon["constant"])
            assert mon["constant"] > 0.0

    def test_constant_stable_under_resolution_doubling(self,
                                                       golden_2d_result):
        scn, res, _ = golden_2d_result
        c_base = pic.moment_inequality_monitor(res)["constant"]
        cfg = scn.to_canonical_dict()
        cfg["grid_n"] = 2 * scn.grid.nx
        fine = pic.scenario_from_dict(cfg, path="inline")
        c_fine = pic.moment_inequality_monitor(pic.run(fine))["constant"]
        assert abs(c_fine - c_base) / c_base < 0.10

    @pytest.mark.parametrize("name", ["golden_2d.json", "golden_25d.json"])
    def test_moments_exactly_constant_force_free(self, name):
        scn = pic.load_scenario(SCENARIOS / name)
        ens = pic.sample_ensemble(scn)

        def zero(x):
            if scn.dim_p == 2:
                return np.zeros((len(x), 2)), np.zeros(len(x))
            return np.zeros((len(x), 3)), np.zeros((len(x), 3))

        m0 = float(np.sum(ens.w * ens.p0 ** 2))
        x, p, p0 = ens.x, ens.p, ens.p0
        for _ in range(20):
            x, p, p0 = chars.push_many(x, p, p0, zero, scn.dt)
        m1 = float(np.sum(ens.w * (1.0 + np.sum(p * p, axis=1))))
        assert abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))


# --------------------------------------------------------------------------
# 12. determinism
# --------------------------------------------------------------------------


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical(self, golden_25d_runs,
                                                      tmp_path):
        scn, res1 = golden_25d_runs[0]
        res2 = pic.run(scn)
        f1, f2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        res1.series.save_csv(f1)
        res2.series.save_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()


# --------------------------------------------------------------------------
# 13. cold-plasma dispersion of the coupled particle-field loop
# --------------------------------------------------------------------------

_COLD_BOX, _COLD_GRID, _COLD_LATTICE, _COLD_AMP = 20.0, 32, 64, 1e-3
_COLD_K = 2.0 * math.pi / _COLD_BOX      # the box's longest wave along x1


@functools.cache      # the order test reuses the dt 0.1 run of its case
def _cold_frequency(mode: str, wave: str, gauss: bool, dt: float) -> float:
    """The frequency that ``pic.run`` gives the k = 2 pi / box mode of a
    cold plasma with omega_p = 1.

    ``pic.sample_ensemble`` and ``pic.initial_fields`` are patched to start
    a 64 x 64 lattice of particles at rest, of total weight box^2 / (4 pi)
    (so the mean charge density, omega_p^2, is 1), with the Poisson field
    of its charge. The Langmuir wave displaces the lattice by
    1e-3 sin(k x1) and is read on E1; the light wave adds
    E2 = 1e-3 sin(k x1) and is read on E2. The frequency is pi times the
    half periods between the first and the last zero crossing of the
    field's sin(k x1) coefficient over t in [0, 12], each crossing
    interpolated linearly between stored steps.
    """
    s = (np.arange(_COLD_LATTICE) + 0.5) * (_COLD_BOX / _COLD_LATTICE)
    x = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    if wave == "langmuir":
        x[:, 0] += _COLD_AMP * np.sin(_COLD_K * x[:, 0])
    scn = pic.Scenario(mode=mode, grid_n=_COLD_GRID, box=_COLD_BOX, dt=dt,
                       t_final=12.0, seed=0, n_particles=len(x),
                       f0={"mass": _COLD_BOX ** 2 / (4.0 * math.pi)},
                       fields0={}, gauss_correction=gauss,
                       diagnostic_every=10 ** 6, store_history=True)
    sine = np.sin(_COLD_K * scn.grid.mesh()[0])

    def lattice(scn):
        return ParticleEnsemble(x=x.copy(), p=np.zeros((len(x), scn.dim_p)),
                                w=np.full(len(x), scn.f0["mass"] / len(x)),
                                box=np.array([_COLD_BOX, _COLD_BOX]))

    def fields(scn, rho):
        f = mx.FieldState.zeros(mode, scn.grid)
        f.E += mx.poisson_efield(rho, scn.grid)
        if wave == "light":
            f.E[1] += _COLD_AMP * sine
        return f, None if mode == "2d" else mx.gauge_a3(f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pic, "sample_ensemble", lattice)
        mp.setattr(pic, "initial_fields", fields)
        history = pic.run(scn).history
    coef = np.einsum("kij,ij->k", history.E[:, 0 if wave == "langmuir" else 1],
                     sine)
    t = history.times
    i = np.flatnonzero(np.sign(coef[1:]) != np.sign(coef[:-1]))
    cross = t[i] - coef[i] * (t[i + 1] - t[i]) / (coef[i + 1] - coef[i])
    return math.pi * (len(cross) - 1) / (cross[-1] - cross[0])


def _cold_theory(mode: str, wave: str) -> float:
    """omega^2 = omega_p^2 S^a, plus k^2 for the light wave, with the grid's
    shape factor S = sinc(k h / 2) and h = box / grid_n: a = 4 for the CIC
    deposit and CIC gather of planar momenta, a = 5 for the CIC deposit and
    the TSC gather of 3-momenta (Birdsall & Langdon 1991, ch. 8)."""
    u = 0.5 * _COLD_K * _COLD_BOX / _COLD_GRID
    w2 = (math.sin(u) / u) ** (4 if mode == "2d" else 5)
    return math.sqrt(w2 + (_COLD_K ** 2 if wave == "light" else 0.0))


class TestColdPlasmaDispersion:
    @pytest.mark.parametrize("mode,wave,gauss", [
        ("2d", "langmuir", True), ("2.5d", "langmuir", True),
        ("2d", "langmuir", False), ("2.5d", "langmuir", False),
        ("2d", "light", True), ("2.5d", "light", True)])
    def test_frequency_is_the_shape_factor_theory(self, mode, wave, gauss):
        got = _cold_frequency(mode, wave, gauss, 0.1)
        assert abs(got - _cold_theory(mode, wave)) < 1e-3, got

    def test_frequency_error_is_second_order_in_dt(self):
        w = [_cold_frequency("2d", "langmuir", True, dt)
             for dt in (0.2, 0.1, 0.05)]
        assert (w[0] - w[1]) / (w[1] - w[2]) == pytest.approx(4.0, abs=0.5), w
