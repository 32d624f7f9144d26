"""Quantitative inequality checks: flux identity, geometry bounds, singular
momentum integrals, interpolation, Gronwall and Strichartz arithmetic."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vmlab import inequalities as ineq
from vmlab import phase
from vmlab.maxwell import good_component_sq


class TestFluxIdentity:
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=6,
                    max_size=6), st.floats(0, 2 * math.pi))
    @settings(max_examples=100)
    def test_residual_tiny_pointwise(self, vals, ang):
        E = np.array([vals[:3]])
        B = np.array([vals[3:]])
        assert ineq._flux_residual(E, B, np.array([ang]), "2.5d") < 1e-12


class TestBlockedMaxima:
    """The sampled checks run ``phase._BLOCK`` rows at a time and merge the
    block maxima as ``np.max`` and ``np.argmax`` over all rows would: a NaN
    row in a late block wins, and a tie goes to the first row."""

    N = 2 * phase._BLOCK + 5

    def test_flux_check_keeps_a_late_nan(self):
        rng = np.random.default_rng(0)
        E = rng.standard_normal((self.N, 3))
        B = rng.standard_normal((self.N, 3))
        phi = rng.random(self.N) * 2.0 * np.pi
        assert ineq._flux_residual(E, B, phi, "2.5d") < 1e-12
        E[self.N - 2, 0] = np.nan
        assert math.isnan(ineq._flux_residual(E, B, phi, "2.5d"))

    def test_flux_suite_fails_on_a_late_nan(self, monkeypatch):
        # the third block of the full check is rows 2 * _BLOCK onwards
        calls = []

        def nan_in_third_block(E, B, omega, mode):
            out = good_component_sq(E, B, omega, mode)
            calls.append(mode)
            if len(calls) == 3:
                out[-1] = np.nan
            return out

        monkeypatch.setattr(ineq, "good_component_sq", nan_in_third_block)
        rep = ineq.flux_identity_suite(0, self.N)
        assert calls == ["2.5d"] * 3 + ["2d"]
        assert math.isnan(rep.details["full"])
        assert math.isnan(rep.max_ratio)
        assert not rep.passed

    def _check(self, monkeypatch, edit):
        p, xi = ineq.sample_momenta_xi(4, self.N)
        edit(p, xi)
        monkeypatch.setattr(ineq, "sample_momenta_xi", lambda seed, n: (p, xi))
        reports = ineq.geometry_bounds_check(4, self.N)
        # the unblocked reference: every row at once
        whole = ineq._geometry_ratios(p, xi)
        for name, rep in reports.items():
            k = int(np.argmax(whole[name]))
            assert rep.witness["p"] == p[k].tolist()
            assert np.array_equal(rep.witness["xi"], xi[k], equal_nan=True)
            assert np.array_equal(rep.max_ratio, whole[name][k],
                                  equal_nan=True)
        return reports, p

    def test_geometry_nan_ratio_is_the_witness(self, monkeypatch):
        first, later = phase._BLOCK + 3, 2 * phase._BLOCK + 1

        def edit(p, xi):
            xi[later] = np.nan
            xi[first] = np.nan

        reports, p = self._check(monkeypatch, edit)
        for rep in reports.values():
            assert math.isnan(rep.max_ratio)
            assert not rep.passed
            assert rep.witness["p"] == p[first].tolist()

    def test_geometry_tie_across_blocks_goes_to_the_first_row(
            self, monkeypatch):
        # at xi = 0 the |xi - omega| ratio is (1 - 0) / (1 + 0) = 1 exactly,
        # above every other draw's; the two rows differ in p
        first, later = phase._BLOCK + 2, 2 * phase._BLOCK + 1

        def edit(p, xi):
            xi[later] = 0.0
            xi[first] = 0.0

        reports, p = self._check(monkeypatch, edit)
        rep = reports["xi_minus_omega"]
        assert rep.max_ratio == 1.0 and rep.passed
        assert rep.witness["p"] == p[first].tolist() != p[later].tolist()


class TestMemoryBudget:
    """The sampled suites hold their draws whole, but build every array
    derived from them in place or per block: at most 56 bytes per sample,
    plus a block's temporaries."""

    N = 400_000

    @pytest.mark.parametrize("check", [ineq.flux_identity_suite,
                                       ineq.geometry_bounds_check])
    def test_peak_below_60_bytes_per_sample(self, check):
        check(0, 1000)   # first-call allocations are not the samples'
        tracemalloc.start()
        try:
            check(0, self.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * self.N + 4 * 2 ** 20, f"{peak / self.N:.1f} B/sample"


class TestGeometryBounds:
    def test_constants_are_attained_somewhere(self):
        # the |xi + phat| and |xi - omega| bounds are tight: the observed
        # sup ratio should approach 1
        reports = ineq.geometry_bounds_check(2, 200_000)
        assert reports["xi_plus_phat"].max_ratio > 0.95
        assert reports["xi_minus_omega"].max_ratio > 0.95


class TestSingularLemma:
    SWEEP = 1.0 - np.geomspace(1e-8, 1.0, 24)

    def test_heavy_p3_tail_rejected(self):
        # the full-momentum lemma needs bounded <p3>^(5+delta) line integrals
        with pytest.raises(ValueError):
            ineq.singular_integral_lemma_check(
                (lambda rho: (1.0 + rho ** 2) ** (-5.0),
                 lambda p3: (1.0 + p3 ** 2) ** (-2.0)),
                self.SWEEP, mode="2.5d")


class TestGronwall:
    @pytest.mark.parametrize("M,p,T", [
        # g is about e^t: finite at T, but above 2 M exp(700), where the
        # exponent of the bound is capped, so decided in logarithms
        (lambda t: 1.0, 1.0, 705.0),
        # 4^p overflows float64 (p >= 512), though (4M)^p t is tiny
        (lambda t: 0.1, 600.0, 1.0),
        # (4M)^p is inf, so the exponent is inf past t = 0 and exactly 0
        # at t = 0, where the ratio is g / 2M = 1/2
        (lambda t: 0.4, 1e4, 1.0),
    ])
    def test_additional_configurations(self, M, p, T):
        rep = ineq.gronwall_check(M, p, T, n_grid=3000)
        assert rep.passed, rep.max_ratio
        assert rep.max_ratio <= 1.0

    @staticmethod
    def _float64_march(M, p, T, n_grid):
        """The saturated g of ``_saturate`` for p > 1, marched on NumPy
        float64 scalars: the reference for its Python-float march. A power
        that overflows is inf here, where a Python float raises."""
        t = np.linspace(0.0, T, n_grid + 1)
        h = T / n_grid
        Mv = np.array([float(M(tk)) for tk in t])
        g = np.empty_like(t)
        g[0] = Mv[0]
        integral = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, len(t)):
                base = integral + 0.5 * h * g[k - 1] ** p
                gk = g[k - 1]
                for _ in range(100):
                    new = Mv[k] * (1.0 + (base + 0.5 * h * gk ** p)
                                   ** (1.0 / p))
                    if abs(new - gk) <= 1e-14 * max(1.0, abs(new)):
                        gk = new
                        break
                    gk = new
                g[k] = gk
                integral += 0.5 * h * (g[k - 1] ** p + g[k] ** p)
        return g

    @pytest.mark.parametrize("M,p,T", [
        (lambda t: 1.0 + t, 2.0, 3.0),
        (lambda t: 2.0, 3.0, 1.5),
        (lambda t: 2.0, 3.0, 100.0),      # a sum overflows mid-march
        (lambda t: 2.0, 5.0, 100.0),      # a power overflows mid-march
        (lambda t: 1e200, 2.0, 1.0),      # g(0)^p overflows
    ])
    def test_march_matches_float64_scalars(self, M, p, T):
        # the reference marches on past an overflow with g inf; _saturate
        # stops at its first inf and names that t
        ref = self._float64_march(M, p, T, 3000)
        over = np.flatnonzero(np.isinf(ref))
        if over.size:
            t = float(np.linspace(0.0, T, 3001)[over[0]])
            with pytest.raises(ValueError, match=re.escape(
                    f"overflows float64 at t = {t!r} ")):
                ineq._saturate(M, p, T, 3000)
        else:
            _, _, g = ineq._saturate(M, p, T, 3000)
            assert g.tobytes() == ref.tobytes()

    def test_overflowing_g_is_rejected_naming_where(self):
        # g^3 leaves the float64 range from step 2,621 of 3,000, t = 87.37
        t = float(np.linspace(0.0, 100.0, 3001)[2621])
        with pytest.raises(ValueError, match=re.escape(
                f"overflows float64 at t = {t!r} (p = 3.0, T = 100.0)")):
            ineq.gronwall_check(lambda t: 2.0, 3.0, 100.0, n_grid=3000)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ineq.gronwall_check(lambda t: 1.0, 0.5, 1.0)

    def test_decreasing_m_rejected(self):
        with pytest.raises(ValueError):
            ineq.gronwall_check(lambda t: 1.0 - t, 1.0, 2.0)


class TestStrichartzArithmetic:
    def test_energy_pair_rejected(self):
        ok, bad = ineq.strichartz_admissible(2, 4, 2, 4)
        assert not ok
        assert "scaling_identity" in bad

    @settings(max_examples=400, deadline=None)
    @given(st.fractions(0, 1, max_denominator=48).filter(lambda v: v > 0),
           st.fractions(0, Fraction(1, 2), max_denominator=48),
           st.fractions(0, 1, max_denominator=48).filter(lambda v: v > 0),
           st.fractions(0, Fraction(1, 2), max_denominator=48),
           st.booleans())
    @example(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4),
             False)
    @example(Fraction(19, 336), Fraction(5, 32), Fraction(31, 112),
             Fraction(17, 96), False)
    @example(Fraction(1, 2), Fraction(1, 8), Fraction(1, 2), Fraction(0),
             True)
    def test_r_sum_upper_never_fails_alone(self, iq1, ir1, iq2, ir2,
                                            on_identity):
        # with q1, q2 finite the scaling identity gives 1/q1 + 1/q2 =
        # 1 - 2 (1/r1 + 1/r2) > 0, so 1/r1 + 1/r2 < 1/2 can fail only with
        # another condition; half the draws solve the identity for 1/r2
        if on_identity:
            ir2 = (1 - iq1 - iq2) / 2 - ir1
            assume(0 <= ir2 <= Fraction(1, 2))
        exps = [1 / v if v else math.inf for v in (iq1, ir1, iq2, ir2)]
        ok, violated = ineq.strichartz_admissible(*exps)
        assert violated != ["r_sum_upper"]
        assert ok == (violated == [])
        if on_identity:
            assert "scaling_identity" not in violated
            assert "r_sum_upper" not in violated

    def test_infinite_r_handled(self):
        ok, bad = ineq.strichartz_admissible(4, math.inf, 1, 2)
        assert isinstance(ok, bool)
        assert all(isinstance(b, str) for b in bad)


class TestSamplers:
    def test_stress_slices_present(self):
        p, xi = ineq.sample_momenta_xi(0, 8000)
        phat = p / np.sqrt(1 + np.sum(p * p, axis=1))[:, None]
        assert np.max(np.linalg.norm(phat, axis=1)) > 1.0 - 1e-6
        assert np.max(np.linalg.norm(xi, axis=1)) > 1.0 - 1e-6
        assert np.all(np.linalg.norm(xi, axis=1) <= 1.0)

    @pytest.mark.parametrize("count", [1, 7])
    def test_fewer_draws_than_eight(self, count):
        # each stress slice is count // 8 draws, so none here
        p, xi = ineq.sample_momenta_xi(0, count)
        assert p.shape == (count, 3) and xi.shape == (count, 2)
        assert np.all(np.linalg.norm(xi, axis=1) <= 1.0)
