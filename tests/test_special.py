"""Tests for the scalar special functions.

Expected values in this file were frozen from independent oracles:
adaptive quadrature of the Gaussian density (scipy.integrate.quad) and
40-digit mpmath evaluations (erfc / mp.diff).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from quantcap import (
    binary_entropy,
    convexity_witness,
    gaussian_q,
    hq_of_sqrt,
    second_derivative_scan,
)


def _gauss_density(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _q_by_quadrature(x):
    # independent oracle: integrate the density over [x, 40]
    val, err = quad(_gauss_density, x, 40.0, epsabs=1e-300, epsrel=1e-12, limit=400)
    return val


class TestGaussianQ:
    def test_frozen_values(self):
        # mpmath, 40 digits
        assert gaussian_q(1.0) == pytest.approx(0.15865525393145705, rel=1e-14)
        assert gaussian_q(2.0) == pytest.approx(0.022750131948179207, rel=1e-14)
        assert gaussian_q(0.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0])
    def test_matches_quadrature(self, x):
        assert gaussian_q(x) == pytest.approx(_q_by_quadrature(x), rel=1e-12)

    @pytest.mark.parametrize("x", [-8.0, -3.0, -1.0])
    def test_left_side_matches_quadrature(self, x):
        # Q(x) = 1 - Q(-x); the quadrature oracle covers the right tail
        assert gaussian_q(x) == pytest.approx(1.0 - _q_by_quadrature(-x), abs=1e-15)

    def test_deep_tail_does_not_underflow(self):
        for x in (10.0, 20.0, 30.0, 37.0):
            val = gaussian_q(x)
            assert val > 0.0
        # Q(37) is around 1e-299, still a normal double
        assert gaussian_q(37.0) == pytest.approx(5.725571820721e-300, rel=1e-10)

    @given(st.floats(min_value=-37.0, max_value=37.0))
    def test_complement_identity(self, x):
        assert gaussian_q(x) + gaussian_q(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        # far into the left tail the value saturates to exactly 1.0 in double
        # precision, so strictness is only checkable where it is representable
        xs = np.linspace(-5.0, 12.0, 2001)
        vals = gaussian_q(xs)
        assert np.all(np.diff(vals) < 0.0)
        wide = gaussian_q(np.linspace(-40.0, 40.0, 4001))
        assert np.all(np.diff(wide) <= 0.0)

    def test_accepts_arrays(self):
        out = gaussian_q(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gaussian_q(float("nan"))
        with pytest.raises(ValueError):
            gaussian_q(float("inf"))


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_value(self):
        # mpmath: h(Q(1)) with Q(1) at full precision
        assert binary_entropy(gaussian_q(1.0)) == pytest.approx(
            0.6310827674055419, rel=1e-13
        )

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-14)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestHqOfSqrt:
    def test_at_one(self):
        assert hq_of_sqrt(1.0) == pytest.approx(0.6310827674055419, rel=1e-13)

    def test_at_zero(self):
        assert hq_of_sqrt(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_high_snr_vanishes(self):
        assert hq_of_sqrt(100.0) < 1e-5

    def test_monotone_decreasing(self):
        ys = np.linspace(0.0, 30.0, 301)
        vals = hq_of_sqrt(ys)
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hq_of_sqrt(-1e-9)


class TestConvexityWitness:
    def test_frozen_value_at_two(self):
        # mpmath, 40 digits; the acceptance threshold is the rounded 1.133
        assert convexity_witness(2.0) == pytest.approx(1.13364695406501, rel=1e-12)

    def test_below_one_near_domain_edge(self):
        assert convexity_witness(1.05) == pytest.approx(0.0691177943519221, rel=1e-10)
        assert convexity_witness(1.05) < 1.0

    def test_at_least_one_beyond_two(self):
        ys = np.linspace(2.0, 50.0, 481)
        vals = convexity_witness(ys)
        assert np.min(vals) >= 1.0

    def test_increasing(self):
        ys = np.linspace(1.2, 50.0, 489)
        vals = convexity_witness(ys)
        assert np.all(np.diff(vals) > 0.0)

    def test_rejects_domain(self):
        with pytest.raises(ValueError):
            convexity_witness(1.0)
        with pytest.raises(ValueError):
            convexity_witness(0.5)


def scalar_scan(f, grid):
    """Oracle: the central second difference one float at a time."""
    step = 1e-4
    return np.array(
        [(f(y - step) - 2.0 * f(y) + f(y + step)) / (step * step) for y in np.asarray(grid)]
    )


class TestSecondDerivativeScan:
    @pytest.mark.parametrize(
        "f, grid",
        [
            (hq_of_sqrt, np.linspace(0.002, 2.0, 500)),  # verify's convexity grid
            # y * y * y: numpy rounds y**3 differently on arrays and scalars
            (lambda y: y * y * y, np.array([0.5, 1.0, 2.0])),
        ],
        ids=["hq-verify-grid", "cubic"],
    )
    def test_matches_scalar_loop(self, f, grid):
        assert np.array_equal(second_derivative_scan(f, grid), scalar_scan(f, grid))

    def test_exact_on_cubic(self):
        grid = np.array([0.5, 1.0, 2.0])
        vals = second_derivative_scan(lambda y: y**3, grid)
        assert vals == pytest.approx(6.0 * grid, rel=1e-6)

    def test_hq_curvature_at_one(self):
        # mpmath oracle: d^2/dy^2 h(Q(sqrt(y))) at y=1 is 0.132985864217579
        (val,) = second_derivative_scan(hq_of_sqrt, [1.0])
        assert val == pytest.approx(0.132985864217579, abs=1e-6)

    def test_positive_on_low_snr_interval(self):
        # curvature of the hard-decision entropy penalty stays positive on (0, 2]
        grid = np.arange(0.01, 2.0000001, 0.01)
        vals = second_derivative_scan(hq_of_sqrt, grid)
        assert np.all(vals > 0.0)
