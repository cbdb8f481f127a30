import math

import numpy as np
import pytest

from stationary_light import (
    CouplingSchedule,
    beta,
    coeff_a,
    coeff_d,
    quadrature_oracle,
)


class TestCoefficients:
    def test_uniform_grating(self):
        assert coeff_a(0.0) == (2.0, 0.0)
        assert coeff_d(0.0) == (2.0, -0.0)

    def test_midrange_values(self):
        a0, a1 = coeff_a(0.6)
        assert a0 == pytest.approx(2.5, abs=1e-14)
        assert a1 == pytest.approx(-5.0 / 6.0, abs=1e-14)
        d0, d1 = coeff_d(0.6)
        assert d0 == pytest.approx(3.90625, abs=1e-14)
        assert d1 == pytest.approx(-2.34375, abs=1e-14)

    def test_deep_grating_a0(self):
        # 1 - 0.96^2 = 0.28^2, so a0 = 2/0.28 = 50/7
        a0, _ = coeff_a(0.96)
        assert a0 == pytest.approx(50.0 / 7.0, abs=1e-12)

    @pytest.mark.parametrize("y", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_d_ratio(self, y):
        d0, d1 = coeff_d(y)
        assert d1 / d0 == pytest.approx(-y, abs=1e-14)

    @pytest.mark.parametrize("y", np.linspace(0.0, 0.99, 34))
    def test_identities(self, y):
        a0, a1 = coeff_a(y)
        d0, d1 = coeff_d(y)
        s = a1 / a0
        w = math.sqrt(1.0 - y * y)
        assert a0 * w == pytest.approx(2.0, abs=1e-12)
        assert d0 * (1.0 - y * y) == pytest.approx(a0, abs=1e-12)
        assert d1 == pytest.approx(-y * d0, abs=1e-12 * max(1.0, abs(d0)))
        assert a1 == pytest.approx(s * a0, abs=1e-12 * max(1.0, abs(a0)))
        if y > 0:
            assert s == pytest.approx((w - 1.0) / y, abs=1e-12)
        assert -1.0 < s <= 0.0

    def test_s_limit_near_standing_wave(self):
        a0, a1 = coeff_a(1.0 - 1e-8)
        assert -1.0 < a1 / a0 < -0.9997


class TestQuadratureOracle:
    def test_trivial(self):
        assert quadrature_oracle(0, 0.0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_cross_check_both_directions(self):
        # oracle reproduces the closed form, and the closed form the oracle
        a0, a1 = coeff_a(0.6)
        assert quadrature_oracle(0, 0.6, 1) == pytest.approx(a0, abs=1e-11)
        assert quadrature_oracle(1, 0.6, 1) == pytest.approx(a1, abs=1e-11)
        assert a1 == pytest.approx(quadrature_oracle(1, 0.6, 1), abs=1e-11)

    def test_second_harmonic_geometric_pattern(self):
        # a2 = a0 * s^2 extends the closed-form pattern beyond the consumed pair
        a0, a1 = coeff_a(0.6)
        assert quadrature_oracle(2, 0.6, 1) == pytest.approx(a0 * (a1 / a0) ** 2, abs=1e-11)
        assert quadrature_oracle(2, 0.6, 1) == pytest.approx(0.2777777777777778, abs=1e-11)

    @pytest.mark.parametrize("y", [0.2, 0.5, 0.8, 0.95])
    def test_power_two(self, y):
        d0, d1 = coeff_d(y)
        assert quadrature_oracle(0, y, 2) == pytest.approx(d0, abs=1e-10)
        assert quadrature_oracle(1, y, 2) == pytest.approx(d1, abs=1e-10)

    def test_converges_deep_into_the_grating(self):
        y = 0.999
        a0, a1 = coeff_a(y)
        assert quadrature_oracle(0, y, 1) == pytest.approx(a0, rel=1e-11)
        assert quadrature_oracle(1, y, 1) == pytest.approx(a1, rel=1e-11)


class TestBeta:
    def test_standing_wave(self):
        assert beta(CouplingSchedule.from_intensities(0.5)) == 0.0

    def test_traveling_wave(self):
        assert beta(CouplingSchedule.from_intensities(1.0)) == 1.0

    def test_quasi_standing(self):
        assert beta(CouplingSchedule.from_intensities(0.55)) == pytest.approx(
            0.23452078799117149, abs=1e-14
        )

    def test_mirrored_ordering_gives_same_speed(self):
        assert beta(CouplingSchedule.from_intensities(0.45)) == beta(
            CouplingSchedule.from_intensities(0.55)
        )
        assert beta(CouplingSchedule.from_intensities(0.0)) == 1.0
