"""Phase-space primitives: kinematics, ensembles, moments,
the interpolation check, and snapshot round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vmlab import phase


finite_momenta = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2,
    max_size=3).filter(lambda v: len(v) in (2, 3))


def one_particle(p):
    """A one-particle ensemble at momentum p."""
    p = np.asarray(p, dtype=float)
    return phase.ParticleEnsemble(x=np.zeros((1, 2)), p=p[None],
                                  w=np.ones(1), box=[1.0, 1.0])


class TestMomentum:
    def test_rest_momentum(self):
        assert phase.p0_of(np.zeros(2)) == 1.0

    def test_pythagorean_triple(self):
        # |p| = 5 gives p0 = sqrt(26) exactly
        ens = one_particle([3.0, 4.0])
        assert phase.p0_of(ens.p[0]) == pytest.approx(math.sqrt(26.0),
                                                      rel=1e-15)

    @given(finite_momenta)
    def test_velocity_subluminal(self, comps):
        ens = one_particle(comps)
        assert phase.p0_of(ens.p[0]) >= 1.0
        assert float(np.linalg.norm(ens.p[0] / ens.p0[0])) < 1.0

    @pytest.mark.parametrize("shape", [(2,), (3,), (5000, 2), (5000, 3),
                                       (40, 7, 3)])
    def test_p0_of_matches_axis_sum(self, shape):
        # the reference: one reduction of the squares over the last axis
        rng = np.random.default_rng(6)
        p = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        ref = np.sqrt(1.0 + np.sum(p * p, axis=-1))
        assert np.array_equal(phase.p0_of(p), ref)


class TestEnsemble:
    def _ens(self, n=4, dim_p=2):
        rng = np.random.default_rng(0)
        return phase.ParticleEnsemble(
            x=rng.random((n, 2)) * 10.0,
            p=rng.standard_normal((n, dim_p)), w=np.full(n, 0.25),
            box=[10.0, 10.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            phase.ParticleEnsemble(x=np.zeros((2, 2)),
                                   p=np.zeros((2, 4)), w=np.ones(2),
                                   box=[1.0, 1.0])
        with pytest.raises(ValueError):
            phase.ParticleEnsemble(x=np.zeros((2, 2)),
                                   p=np.zeros((2, 2)), w=np.array([1.0, 0.0]),
                                   box=[1.0, 1.0])

    @pytest.mark.parametrize("dim_p", [2, 3])
    def test_p0_computed_once(self, dim_p):
        ens = self._ens(n=50, dim_p=dim_p)
        assert np.array_equal(ens.p0, phase.p0_of(ens.p))
        assert ens.p0 is ens.p0

    def test_moment_matches_direct_sum(self):
        ens = self._ens()
        direct = float(np.sum(ens.w * (1.0 + np.sum(ens.p ** 2, axis=1))))
        assert phase.moment(ens, 2.0) == pytest.approx(direct, rel=1e-15)

    def test_moment_order_zero_is_mass(self):
        ens = self._ens()
        assert phase.moment(ens, 0.0) == pytest.approx(float(np.sum(ens.w)))

    def test_moment_overflow_raises(self):
        ens = phase.ParticleEnsemble(x=np.zeros((1, 2)),
                                     p=np.array([[1e150, 0.0]]),
                                     w=np.ones(1), box=[1.0, 1.0])
        with pytest.raises(FloatingPointError, match="N=4 "):
            phase.moment(ens, 4.0)


class TestInterpolation:
    @staticmethod
    def _profile(a):
        return lambda x, p: (np.exp(-np.sum(x * x, axis=1))[:, None]
                             * (1.0 + np.sum(p * p, axis=1)[None, :])
                             ** (-a / 2.0))

    def test_equal_orders_give_ratio_one(self):
        # S = M makes both sides identical
        rep = phase.interpolation_check(self._profile(12.0), S=2.0, M=2.0,
                                        q=1.0, d_p=2)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)

    def test_general_variant_bounded(self):
        rep = phase.interpolation_check(self._profile(12.0), S=1.0, M=3.0,
                                        q=4.0 / 3.0, d_p=2)
        assert 0.0 < rep.max_ratio < 2.0

    def test_parameter_validation(self):
        for S, M, q in ((3.0, 1.0, 1.0), (-2.0, 1.0, 1.0),
                        (1.0, 3.0, 0.5), (1.0, 3.0, math.inf)):
            with pytest.raises(ValueError):
                phase.interpolation_check(self._profile(12.0), S=S, M=M,
                                          q=q, d_p=2)


class TestSnapshots:
    def test_roundtrip_exact_and_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        ens = phase.ParticleEnsemble(x=rng.random((7, 2)) * 5.0,
                                     p=rng.standard_normal((7, 3)) * 1e3,
                                     w=rng.random(7) + 0.1, box=[5.0, 5.0])
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        phase.save_ensemble(ens, f1)
        back = phase.load_ensemble(f1)
        assert np.array_equal(ens.x, back.x)
        assert np.array_equal(ens.p, back.p)
        assert np.array_equal(ens.w, back.w)
        phase.save_ensemble(back, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_rows_across_blocks_match_format(self, tmp_path):
        # the documented format, one repr() per cell, over more rows than
        # the writer formats at a time, special values included
        rng = np.random.default_rng(4)
        n = 2 * phase._SAVE_BLOCK + 3
        p = rng.standard_normal((n, 2)) * 1e3
        p[:5, 0] = [-0.0, 5e-324, 1e300, 0.1, -1e-17]
        ens = phase.ParticleEnsemble(x=rng.random((n, 2)) * 5.0,
                                     p=p, w=rng.random(n) + 0.1,
                                     box=[5.0, 5.0])
        lines = ["# dim_p=2 box=5.0,5.0", "x1,x2,p1,p2,w"]
        for i in range(n):
            cells = list(ens.x[i]) + list(ens.p[i]) + [ens.w[i]]
            lines.append(",".join(repr(float(v)) for v in cells))
        f = tmp_path / "e.csv"
        phase.save_ensemble(ens, f)
        assert f.read_text() == "\n".join(lines) + "\n"

    def test_empty_ensemble(self, tmp_path):
        ens = phase.ParticleEnsemble(x=np.zeros((0, 2)),
                                     p=np.zeros((0, 2)), w=np.zeros(0),
                                     box=[1.0, 1.0])
        f = tmp_path / "e.csv"
        phase.save_ensemble(ens, f)
        back = phase.load_ensemble(f)
        assert len(back) == 0
        assert back.dim_p == 2

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x1,x2\n")
        with pytest.raises(ValueError):
            phase.load_ensemble(f)
