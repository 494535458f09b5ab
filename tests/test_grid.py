import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv

from torus_ma.grid import (
    ScalarField,
    TorusGrid,
    constant,
    derivative,
    from_function,
    integrate,
    invert_shifted_laplacian,
    mixed_derivative,
    project_mean_zero,
    random_trig_field,
    resample,
)

from conftest import rel_err


class TestGridValidation:
    def test_rejects_odd_sizes(self):
        with pytest.raises(ValueError):
            TorusGrid((32, 31))

    def test_rejects_small_sizes(self):
        with pytest.raises(ValueError):
            TorusGrid((4, 32))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            TorusGrid((32,))
        with pytest.raises(ValueError):
            TorusGrid((8,) * 6)

    def test_rejects_budget_overflow(self):
        with pytest.raises(ValueError):
            TorusGrid((64, 64), max_points=1000)

    def test_point_count_does_not_wrap(self):
        # np.prod wrapped in int64: (2**32, 2**32) had npoints == 0 and
        # passed the budget
        with pytest.raises(ValueError, match="budget"):
            TorusGrid((2**32, 2**32))
        assert TorusGrid((2**32, 2**32), max_points=2**64).npoints == 2**64

    def test_field_rejects_nonfinite(self):
        g = TorusGrid((8, 8))
        vals = np.zeros(g.sizes)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(g, vals)


class TestDerivative:
    def test_single_mode_exact(self):
        g = TorusGrid((8, 8))
        f = from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        df = derivative(f, 0, 1)
        want = from_function(g, lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x))
        assert np.max(np.abs(df.values - want.values)) < 1e-12

    def test_constant_derivative_vanishes(self):
        g = TorusGrid((16, 16))
        f = constant(g, 3.7)
        for axis in range(2):
            for order in (1, 2):
                assert derivative(f, axis, order).max_norm() == pytest.approx(0.0, abs=1e-13)

    def test_second_derivative_analytic(self):
        g = TorusGrid((32, 32))
        f = from_function(g, lambda x, y: np.sin(6 * np.pi * x) * np.cos(4 * np.pi * y))
        d2 = derivative(f, 0, 2)
        want = from_function(g, lambda x, y: -(6 * np.pi) ** 2 * np.sin(6 * np.pi * x)
                             * np.cos(4 * np.pi * y))
        assert np.max(np.abs(d2.values - want.values)) <= 1e-11

    def test_mixed_derivatives_commute(self, rng):
        g = TorusGrid((32, 32))
        f = random_trig_field(g, rng, max_mode=5, scale=1.0)
        a = derivative(derivative(f, 0, 1), 1, 1)
        b = derivative(derivative(f, 1, 1), 0, 1)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    @pytest.mark.parametrize("sizes", [(8, 12), (16, 16), (10, 8, 16), (8, 10, 12, 8)])
    def test_one_pass_mixed_matches_two_pass(self, rng, sizes):
        # white noise fills every mode, the Nyquist ones included
        g = TorusGrid(sizes)
        f = ScalarField(g, rng.standard_normal(sizes))
        for a in range(g.d):
            for b in range(g.d):
                if a != b:
                    want = derivative(derivative(f, a, 1), b, 1).values
                    got = mixed_derivative(f, a, b).values
                    assert rel_err(got, want) <= 1e-14, (a, b)

    def test_mixed_derivative_kills_nyquist_mode(self):
        g = TorusGrid((8, 12))
        i, j = np.indices(g.sizes)
        f = ScalarField(g, (-1.0) ** (i + j))  # the (N/2, M/2) mode alone
        assert mixed_derivative(f, 0, 1).max_norm() <= 1e-12
        assert mixed_derivative(f, 1, 0).max_norm() <= 1e-12

    def test_cached_multipliers_are_read_only(self, rng):
        g = TorusGrid((16, 16))
        f = random_trig_field(g, rng, max_mode=4, scale=1.0)
        before = mixed_derivative(f, 0, 1).values
        assert g.shifted_laplacian_symbol(1.0).shape == (16, 9)  # the half spectrum
        for sym in (g.multiplier(0, 1), g.multiplier(1, 1), g.multiplier(1, 2),
                    g.shifted_laplacian_symbol(1.0)):
            with pytest.raises(ValueError):
                sym *= 2.0
        assert g.multiplier(0, 1) is g.multiplier(0, 1)
        assert np.array_equal(mixed_derivative(f, 0, 1).values, before)

    @pytest.mark.parametrize("sizes", [(8, 12), (16, 16), (10, 8, 16), (8, 10, 12, 8)])
    def test_half_spectrum_matches_full_fftn(self, rng, sizes):
        # reference: the complex transform of the whole grid, with each
        # odd-order multiplier's Nyquist mode zeroed
        g = TorusGrid(sizes)
        f = ScalarField(g, rng.standard_normal(sizes))
        hat = np.fft.fftn(f.values)
        k = [np.fft.fftfreq(n, d=1.0 / n).reshape([-1 if a == b else 1 for b in range(g.d)])
             for a, n in enumerate(sizes)]
        d1 = [2j * np.pi * k[a] * (np.abs(k[a]) != n // 2) for a, n in enumerate(sizes)]
        full = lambda mult: np.real(np.fft.ifftn(hat * mult))
        for a in range(g.d):
            assert rel_err(derivative(f, a, 1).values, full(d1[a])) <= 1e-14, a
            assert rel_err(derivative(f, a, 2).values, full(-(2 * np.pi * k[a]) ** 2)) <= 1e-14, a
            for b in range(a + 1, g.d):
                assert rel_err(mixed_derivative(f, a, b).values, full(d1[a] * d1[b])) <= 1e-14
        sigma = 1.5
        symbol = sigma + sum((2 * np.pi * ka) ** 2 for ka in k)
        assert rel_err(invert_shifted_laplacian(f, sigma).values, full(1.0 / symbol)) <= 1e-14

    @pytest.mark.parametrize("sizes", [(8, 12), (10, 8, 16)])
    def test_last_axis_nyquist_mode(self, sizes):
        # the half spectrum stores the last axis's Nyquist bin once
        g = TorusGrid(sizes)
        n = sizes[-1]
        f = ScalarField(g, (-1.0) ** np.indices(sizes)[-1])
        assert derivative(f, g.d - 1, 1).max_norm() <= 1e-12
        assert rel_err(derivative(f, g.d - 1, 2).values, -((np.pi * n) ** 2) * f.values) <= 1e-14

    def test_bad_axis_rejected(self):
        g = TorusGrid((8, 8))
        with pytest.raises(ValueError):
            derivative(constant(g, 1.0), 2, 1)
        with pytest.raises(ValueError):
            derivative(constant(g, 1.0), 0, 3)

    def test_spectral_convergence(self):
        # derivative error for a non-band-limited analytic function falls
        # faster than any fixed power between successive refinements
        errs = {}
        for n in (8, 16, 32):
            g = TorusGrid((n, 8))
            f = from_function(g, lambda x, y: np.exp(np.sin(2 * np.pi * x)))
            df = derivative(f, 0, 1)
            want = from_function(g, lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x)
                                 * np.exp(np.sin(2 * np.pi * x)))
            errs[n] = np.max(np.abs(df.values - want.values))
        assert errs[16] <= errs[8] / 50
        assert errs[32] <= 1e-12 or errs[32] <= errs[16] / 50


class TestIntegration:
    def test_constant(self):
        g = TorusGrid((16, 16))
        assert integrate(constant(g, 1.0)) == pytest.approx(1.0, abs=0)

    def test_single_mode_vanishes(self):
        g = TorusGrid((16, 16))
        f = from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        assert abs(integrate(f)) < 1e-14

    def test_exponential_of_sine_matches_bessel(self):
        # oracle: the modified Bessel value, re-checked by quadrature at 4x
        # the resolution
        g = TorusGrid((32, 32))
        f = from_function(g, lambda x, y: np.exp(np.sin(2 * np.pi * x)))
        val = integrate(f)
        assert abs(val - iv(0, 1.0)) <= 1e-10
        g4 = TorusGrid((128, 32))
        f4 = from_function(g4, lambda x, y: np.exp(np.sin(2 * np.pi * x)))
        assert abs(val - integrate(f4)) <= 1e-12

    def test_derivative_integrates_to_zero(self, rng):
        g = TorusGrid((32, 32))
        f = random_trig_field(g, rng, max_mode=6, scale=2.0)
        for axis in range(2):
            assert abs(integrate(derivative(f, axis, 1))) < 1e-12


class TestMeanZero:
    def test_constant_projects_to_zero(self):
        g = TorusGrid((16, 16))
        assert project_mean_zero(constant(g, 5.0)).max_norm() == pytest.approx(0.0, abs=0)

    def test_shifted_mode(self):
        g = TorusGrid((16, 16))
        f = from_function(g, lambda x, y: 2.0 + np.sin(2 * np.pi * x))
        p = project_mean_zero(f)
        want = from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        assert np.max(np.abs(p.values - want.values)) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent(self, seed):
        g = TorusGrid((8, 8))
        f = random_trig_field(g, np.random.default_rng(seed), max_mode=3, scale=1.0,
                              mean_zero=False)
        once = project_mean_zero(f)
        twice = project_mean_zero(once)
        assert np.max(np.abs(once.values - twice.values)) < 1e-14
        assert abs(integrate(once)) < 1e-14


class TestShiftedLaplacian:
    def test_single_mode(self):
        g = TorusGrid((16, 16))
        r = from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        w = invert_shifted_laplacian(r, 1.0)
        want = r.values / (1.0 + 4 * np.pi**2)
        assert np.max(np.abs(w.values - want)) < 1e-14

    def test_constant(self):
        g = TorusGrid((16, 16))
        w = invert_shifted_laplacian(constant(g, 3.0), 2.0)
        assert np.max(np.abs(w.values - 1.5)) < 1e-14

    def test_apply_and_check(self, rng):
        g = TorusGrid((32, 32))
        r = random_trig_field(g, rng, max_mode=8, scale=1.0)
        sigma = 2.5
        w = invert_shifted_laplacian(r, sigma)
        back = sigma * w.values - (derivative(w, 0, 2).values + derivative(w, 1, 2).values)
        assert np.max(np.abs(back - r.values)) <= 1e-12

    def test_rejects_nonpositive_shift(self):
        g = TorusGrid((8, 8))
        with pytest.raises(ValueError):
            invert_shifted_laplacian(constant(g, 1.0), 0.0)


class TestResample:
    def test_band_limited_roundtrip(self, rng):
        g = TorusGrid((16, 16))
        f = random_trig_field(g, rng, max_mode=4, scale=1.0)
        up = resample(f, (24, 32))
        back = resample(up, (16, 16))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_upsample_interpolates(self):
        g = TorusGrid((16, 16))
        f = from_function(g, lambda x, y: np.cos(4 * np.pi * x) * np.sin(2 * np.pi * y))
        up = resample(f, (32, 32))
        want = from_function(TorusGrid((32, 32)),
                             lambda x, y: np.cos(4 * np.pi * x) * np.sin(2 * np.pi * y))
        assert np.max(np.abs(up.values - want.values)) < 1e-12

    def test_dimension_change_rejected(self):
        g = TorusGrid((16, 16))
        with pytest.raises(ValueError):
            resample(constant(g, 1.0), (16, 16, 16))
