"""Quantizer-optimization tests: benchmark scheme, 2/3-bit searches, inversion.

The PAM benchmark has closed forms (error rate, Fano floor) that anchor the
mutual-information path, and the 2-bit brute force at its published operating
points anchors the alternating 3-bit procedure.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from quantcap import (
    BenchmarkScheme,
    ChannelSpec,
    JointResult,
    Quantizer,
    benchmark_error_probability,
    benchmark_fano_lower_bound,
    benchmark_mutual_information,
    gaussian_q,
    mutual_information,
    onebit_capacity,
    optimize_input_cutting_plane,
    snr_for_spectral_efficiency,
    unquantized_capacity,
)
from quantcap import channel, quantopt
from quantcap.channel import (
    _divergences_bits,
    _profile,
    _row_negentropy_bits,
    _threshold_hessian_bits,
    bin_probability_matrix,
)
from quantcap.quantopt import (
    _SCAN_GRID,
    _threshold_step,
    optimize_quantizer,
    optimize_quantizer_2bit,
    optimize_quantizer_3bit_iterative,
)
from quantcap.tables import build_table, capacity_and_gamma

# Frozen against the gaussian_q quadrature oracle: 2*(K-1)/K * Q(sqrt(3*snr/(K^2-1)))
PE_K2_SNR1 = 0.15865525393145707  # = Q(1)
PE_K4_SNR1 = 0.49104063451393287  # = 1.5 * Q(sqrt(0.2))


@pytest.fixture(scope="module")
def two_bit_0db():
    return optimize_quantizer_2bit(1.0)


@pytest.fixture(scope="module")
def two_bit_10db():
    return optimize_quantizer_2bit(10.0)


@pytest.fixture(scope="module")
def two_bit_minus20db():
    return optimize_quantizer_2bit(0.01)


@pytest.fixture(scope="module")
def three_bit_0db():
    return optimize_quantizer_3bit_iterative(1.0)


class TestBenchmarkScheme:
    def test_published_mutual_information(self):
        assert benchmark_mutual_information(4, 1.0) == pytest.approx(0.4401, abs=5e-4)
        assert benchmark_mutual_information(8, 1.0) == pytest.approx(0.4707, abs=5e-4)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 7.0])
    def test_two_bin_benchmark_is_antipodal_signaling(self, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        assert benchmark_mutual_information(2, snr) == pytest.approx(
            onebit_capacity(snr), abs=1e-12
        )

    @given(
        st.sampled_from([2, 4, 8]),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_is_exact(self, bins, log_snr):
        snr = 10.0**log_snr
        scheme = BenchmarkScheme.build(bins, snr)
        second_moment = float(scheme.input.masses @ scheme.input.locations**2)
        assert second_moment == pytest.approx(snr, rel=1e-10)

    def test_thresholds_are_constellation_midpoints(self):
        scheme = BenchmarkScheme.build(8, 5.0)
        locs = scheme.input.locations
        mids = 0.5 * (locs[1:] + locs[:-1])
        np.testing.assert_allclose(scheme.quantizer.thresholds, mids, atol=1e-12)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_noise_scale_invariance(self, log_snr):
        # scaling noise power and (implicitly) signal power together must not
        # move the mutual information
        snr = 10.0**log_snr
        base = benchmark_mutual_information(4, snr)
        scheme = BenchmarkScheme.build(4, snr, noise_variance=7.3)
        scaled = mutual_information(scheme.input, scheme.spec)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_approaches_log2_bins_at_high_snr(self):
        assert benchmark_mutual_information(4, 1000.0) >= 1.999
        assert benchmark_mutual_information(8, 1000.0) >= 2.98

    def test_rejects_unsupported_bin_count(self):
        with pytest.raises(ValueError):
            BenchmarkScheme.build(3, 1.0)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            benchmark_mutual_information(4, 0.0)


class TestBenchmarkErrorProbability:
    def test_two_bin_value(self):
        pe = benchmark_error_probability(2, 1.0)
        assert pe == pytest.approx(PE_K2_SNR1, rel=1e-12)
        assert pe == pytest.approx(gaussian_q(1.0), rel=1e-12)

    def test_four_bin_value(self):
        assert benchmark_error_probability(4, 1.0) == pytest.approx(PE_K4_SNR1, rel=1e-12)

    def test_vanishes_at_high_snr(self):
        assert benchmark_error_probability(4, 1e6) < 1e-10

    @given(
        st.sampled_from([2, 4, 8]),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_snr(self, bins, log_snr, bump):
        lo = benchmark_error_probability(bins, 10.0**log_snr)
        hi = benchmark_error_probability(bins, 10.0 ** (log_snr + bump))
        assert hi < lo

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError):
            benchmark_error_probability(1, 1.0)


class TestBenchmarkFanoLowerBound:
    def test_reaches_log2_bins(self):
        assert benchmark_fano_lower_bound(4, 1e6) >= 2.0 - 1e-6

    def test_two_bin_bound_is_tight(self):
        # hard decisions on the 2-bin benchmark form a binary symmetric
        # channel with equiprobable inputs, where Fano holds with equality
        assert benchmark_fano_lower_bound(2, 1.0) == pytest.approx(
            benchmark_mutual_information(2, 1.0), abs=1e-12
        )

    def test_vanishes_at_zero_snr(self):
        # Pe tends to (K-1)/K, where the Fano expression has a double root:
        # the floor approaches zero from above instead of going negative
        assert 0.0 <= benchmark_fano_lower_bound(4, 1e-9) < 1e-9

    @given(
        st.sampled_from([2, 4, 8]),
        st.floats(min_value=-2.5, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_sandwiched_by_zero_and_mutual_information(self, bins, log_snr):
        snr = 10.0**log_snr
        fano = benchmark_fano_lower_bound(bins, snr)
        assert 0.0 <= fano <= benchmark_mutual_information(bins, snr) + 1e-9


def _spy_scan(monkeypatch):
    """(q, capacity) of every scan solve of optimize_quantizer_2bit, in order;
    the bounded Brent refinement's solves are not included."""
    scanned = []
    real = quantopt._warm_solves

    def spy(qs, *args):
        for q, res in zip(qs, real(qs, *args)):
            scanned.append((q, res.capacity))
            yield res

    monkeypatch.setattr(quantopt, "_warm_solves", spy)
    return scanned


class TestThresholdCurve:
    def test_matches_fixed_quantizer_solves(self):
        # each solve is within its tolerance 1e-4 of the grid capacity
        curve = quantopt.two_bit_threshold_curve(10.0, 1.0)
        qs = [q for q, _ in curve]
        assert qs == pytest.approx(np.linspace(0.0, 4.0 * math.sqrt(10.0), 201)[1:])
        for q, cap in curve[::40]:
            spec = ChannelSpec(1.0, 10.0, Quantizer((-q, 0.0, q)))
            cold = optimize_input_cutting_plane(spec, grid=_SCAN_GRID).capacity
            assert cap == pytest.approx(cold, abs=1e-4)

    def test_scales_with_sigma(self):
        base = quantopt.two_bit_threshold_curve(1.0, 1.0)[::50]
        scaled = quantopt.two_bit_threshold_curve(1.0, 4.0)[::50]
        for (q, cap), (q4, cap4) in zip(base, scaled):
            assert q4 == pytest.approx(2.0 * q, rel=1e-12)
            assert cap4 == pytest.approx(cap, abs=1e-9)


class TestOptimizeQuantizer2bit:
    def test_published_capacity_0db(self, two_bit_0db):
        assert two_bit_0db.capacity_result.capacity == pytest.approx(0.4552, abs=5e-3)

    def test_published_capacity_10db(self, two_bit_10db):
        assert two_bit_10db.capacity_result.capacity == pytest.approx(1.4731, abs=5e-3)

    def test_refinement_reaches_the_10db_peak(self, two_bit_10db):
        # the peak near q = 3.635 holds 1.47318 bits; a refinement that
        # settles at q = 3.596 on the same bracket returns 1.47301
        assert two_bit_10db.capacity_result.capacity >= 1.47315

    def test_result_structure(self, two_bit_0db):
        res = two_bit_0db
        assert res.capacity_result.converged
        assert res.trace == (res.capacity_result.capacity,)
        thr = np.asarray(res.quantizer.thresholds)
        assert thr.size == 3 and thr[1] == 0.0 and thr[2] == -thr[0] > 0.0

    def test_refined_winner_dominates_scan(self, monkeypatch):
        scanned = _spy_scan(monkeypatch)
        res = optimize_quantizer_2bit(1.0)
        # the default scan; no extension at 0 dB
        assert len(scanned) == quantopt._SCAN_POINTS
        scan_best = max(cap for _, cap in scanned)
        assert res.capacity_result.capacity >= scan_best - 1e-6

    def test_custom_coarse_grid_recovers_optimum(self, monkeypatch):
        # the bounded Brent refinement around the coarse winner closes the
        # grid gap
        monkeypatch.setattr(quantopt, "_SCAN_POINTS", 6)
        scanned = _spy_scan(monkeypatch)
        res = optimize_quantizer_2bit(1.0)
        assert len(scanned) == 6
        assert res.capacity_result.capacity == pytest.approx(0.4552, abs=5e-3)

    def test_scale_invariance(self, two_bit_0db):
        base = two_bit_0db
        scaled = optimize_quantizer_2bit(1.0, noise_variance=4.0)
        assert scaled.capacity_result.capacity == pytest.approx(
            base.capacity_result.capacity, abs=1e-9
        )
        assert scaled.quantizer.thresholds[2] == pytest.approx(
            2.0 * base.quantizer.thresholds[2], rel=1e-9
        )

    def test_vanishing_threshold_reduces_to_one_bit(self):
        # the 2-bit channel with q -> 0 merges the middle bins into a sign bit
        spec = ChannelSpec(1.0, 1.0, Quantizer((-1e-4, 0.0, 1e-4)))
        cap = optimize_input_cutting_plane(spec).capacity
        assert cap == pytest.approx(onebit_capacity(1.0), abs=2e-3)

    def test_low_snr_optimum_is_interior(self, two_bit_minus20db):
        # the scan spans 2 max(sqrt(P), sigma); a sqrt(P)-scaled scan ends at
        # 0.2 sigma here and returns its edge point
        q = two_bit_minus20db.quantizer.thresholds[2]
        assert 0.5 < q < 2.0

    def test_low_snr_capacity_matches_published(self, two_bit_minus20db):
        assert two_bit_minus20db.capacity_result.capacity == pytest.approx(
            0.0063, rel=0.02
        )

    def test_scan_with_best_on_edge_is_extended(self, monkeypatch):
        # a span of 0.3 sigma at -20 dB ends below the optimum near 1 sigma
        monkeypatch.setattr(quantopt, "_SCAN_SPAN", 0.3)
        scanned = _spy_scan(monkeypatch)
        res = optimize_quantizer_2bit(0.01)
        qs = [q for q, _ in scanned]
        caps = [cap for _, cap in scanned]
        n = quantopt._SCAN_POINTS
        assert qs[:n] == pytest.approx(np.linspace(0.0, 0.3, n + 1)[1:].tolist(), abs=1e-15)
        assert len(qs) > n
        np.testing.assert_allclose(np.diff(qs), 0.3 / n, atol=1e-12)
        assert int(np.argmax(caps)) < len(caps) - 1
        q = res.quantizer.thresholds[2]
        assert 0.5 < q < 2.0 and q < qs[-1]

    @pytest.mark.parametrize("db", [-30.0, 3.0, 7.5, 40.0])
    def test_short_scan_matches_the_long_one(self, monkeypatch, db):
        # every near-best peak lies at q <= 1.33 max(sqrt(P), sigma), and the
        # scan is warm-started forward, so the former 24-point scan over
        # 4 max(sqrt(P), sigma) gives the same result: 3 dB has two near-best
        # peaks, 7.5 dB the furthest one, and -30 dB a flat C(q) that lies
        # wholly inside the refinement window
        snr = 10.0 ** (db / 10.0)
        short = optimize_quantizer_2bit(snr)
        monkeypatch.setattr(quantopt, "_SCAN_POINTS", 24)
        monkeypatch.setattr(quantopt, "_SCAN_SPAN", 4.0)
        long = optimize_quantizer_2bit(snr)
        assert short.quantizer.thresholds == long.quantizer.thresholds
        assert short.capacity_result.capacity == long.capacity_result.capacity

    def test_lands_on_upper_branch_at_8db(self):
        # between 7 and 8 dB the optimal threshold jumps from about 1.79 to
        # 3.29; a second peak near 1.91 sits 0.012 bits lower, so a search
        # that follows the branch of the neighbouring SNR ends on it
        res = optimize_quantizer_2bit(10.0**0.8)
        assert res.quantizer.thresholds[2] == pytest.approx(3.29, abs=0.05)
        assert res.capacity_result.capacity >= 1.2153 - 1e-4

    def test_refines_every_near_best_peak_at_3db(self):
        # the best scanned point lies on the q ~ 1.23 branch, but the peak
        # near 0.80 refines 4.6e-4 bits higher; refining only the best scan
        # point's bracket returns the lower one
        res = optimize_quantizer_2bit(10.0**0.3)
        assert res.quantizer.thresholds[2] == pytest.approx(0.80, abs=0.05)
        assert res.capacity_result.capacity >= 0.69264 - 1e-4

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            optimize_quantizer_2bit(-1.0)


@pytest.mark.parametrize("bins", [2, 16])
def test_joint_search_takes_four_or_eight_bins(bins):
    with pytest.raises(ValueError, match="4 or 8"):
        optimize_quantizer(1.0, bins)


class TestOptimizeQuantizer3bitIterative:
    def test_published_capacity_0db(self, three_bit_0db):
        assert three_bit_0db.capacity_result.capacity == pytest.approx(0.4817, abs=6e-3)

    def test_published_capacity_5db(self):
        res = optimize_quantizer_3bit_iterative(10.0**0.5)
        assert res.capacity_result.capacity == pytest.approx(0.9753, abs=6e-3)

    def test_result_structure(self, three_bit_0db):
        res = three_bit_0db
        assert res.capacity_result.converged
        thr = np.asarray(res.quantizer.thresholds)
        assert thr.size == 7 and np.all(np.diff(thr) > 0.0) and thr[3] == 0.0
        np.testing.assert_allclose(thr, -thr[::-1], atol=1e-12)

    def test_trace_is_monotone(self, three_bit_0db):
        steps = np.diff(np.asarray(three_bit_0db.trace))
        assert steps.size >= 1
        assert np.all(steps >= -1e-6)

    def test_discards_a_round_that_loses_capacity(self, monkeypatch):
        # Each inner solve is certified only to its tolerance, so a round can
        # come out below the one before it.  Whatever the solver returns,
        # the alternation must keep the earlier round and stop.
        real = quantopt.optimize_input_cutting_plane
        quantizers, capacities = [], []

        def lossy(spec, **kwargs):
            res = real(spec, **kwargs)
            quantizers.append(spec.quantizer)
            if len(quantizers) == 2:
                res = dataclasses.replace(res, capacity=capacities[0] - 1e-3)
            capacities.append(res.capacity)
            return res

        monkeypatch.setattr(quantopt, "optimize_input_cutting_plane", lossy)
        out = optimize_quantizer_3bit_iterative(1.0)
        assert quantizers[1] != quantizers[0]
        assert out.trace == (capacities[0],)
        assert np.all(np.diff(out.trace) >= 0.0)
        assert out.quantizer == quantizers[0]
        # the final solve runs at the round-1 quantizer too
        assert len(quantizers) == 3 and quantizers[2] == quantizers[0]

    def test_dominates_benchmark(self, three_bit_0db):
        assert (
            three_bit_0db.capacity_result.capacity
            >= benchmark_mutual_information(8, 1.0) - 1e-6
        )


class TestThresholdStep:
    """The 3-bit threshold step at a fixed input: the input-optimal one at
    the benchmark quantizer, as in the alternation's first round."""

    @staticmethod
    def _mi(dist, halves, sigma):
        thr = np.concatenate([-halves[::-1], [0.0], halves])
        w = bin_probability_matrix(dist.locations, thr, sigma)
        r = dist.masses @ w
        return float(dist.masses @ _divergences_bits(w, _row_negentropy_bits(w), r))

    @pytest.mark.parametrize("noise_variance", [1.0, 2.5])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
    def test_raises_mi_to_a_converged_point(self, snr_db, noise_variance):
        snr = 10.0 ** (snr_db / 10.0)
        sigma = math.sqrt(noise_variance)
        quant = BenchmarkScheme.build(8, snr, noise_variance).quantizer
        spec = ChannelSpec(noise_variance, snr * noise_variance, quant)
        dist = optimize_input_cutting_plane(spec, grid=_SCAN_GRID).dist
        start = np.asarray(quant.thresholds[4:])
        halves = _threshold_step(dist, start, sigma)
        best = self._mi(dist, halves, sigma)
        assert halves[0] > 0.0 and np.all(np.diff(halves) > 0.0)
        assert best >= self._mi(dist, start, sigma)
        # no move of one threshold by 1e-4 sigma that keeps the order gains
        for i in range(halves.size):
            for delta in (1e-4 * sigma, -1e-4 * sigma):
                cand = halves.copy()
                cand[i] += delta
                if cand[0] > 0.0 and np.all(np.diff(cand) > 0.0):
                    assert best >= self._mi(dist, cand, sigma) - 1e-12
        # restarted at its own result, the step cannot lose either
        assert self._mi(dist, _threshold_step(dist, halves, sigma), sigma) >= best


class TestThresholdStepBranches:
    """Branches of the threshold step that the tables never take: starts
    where MI is not concave, or convex, in the gaps, an optimum that holds a
    gap at its floor, and a Hessian singular to rounding.  The fixture is
    the optimal input at the 0-dB benchmark quantizer with sigma = 1.5."""

    SIGMA = 1.5

    @pytest.fixture(scope="class")
    def start(self):
        quant = BenchmarkScheme.build(8, 1.0, self.SIGMA**2).quantizer
        spec = ChannelSpec(self.SIGMA**2, self.SIGMA**2, quant)
        dist = optimize_input_cutting_plane(spec, grid=_SCAN_GRID).dist
        return dist, np.asarray(quant.thresholds[4:])

    @staticmethod
    def _half_hessian(dist, halves, sigma):
        """d2MI/dh2, with q_{+i} = h_i and q_{-i} = -h_i; it has the inertia
        of the Hessian over the gaps, a congruent matrix."""
        thr = np.concatenate([-halves[::-1], [0.0], halves])
        hess = _threshold_hessian_bits(_profile(dist.locations, dist.masses, thr, sigma), sigma)
        n = halves.size
        up, dn = n + 1 + np.arange(n), n - 1 - np.arange(n)
        return (
            hess[np.ix_(up, up)] + hess[np.ix_(dn, dn)]
            - hess[np.ix_(up, dn)] - hess[np.ix_(dn, up)]
        )

    @staticmethod
    def _counted_step(monkeypatch, *args):
        """The step's result and its evaluations, one row build each."""
        calls = []
        monkeypatch.setattr(
            channel,
            "bin_probability_matrix",
            lambda *a: calls.append(None) or bin_probability_matrix(*a),
        )
        return _threshold_step(*args), len(calls)

    def test_indefinite_start_reaches_the_benchmark_starts_optimum(self, start, monkeypatch):
        dist, bench = start
        far = 3.0 * bench
        # MI is convex along some direction of the gaps at this start, so
        # only the shifted Newton step ascends from it
        assert np.linalg.eigvalsh(-self._half_hessian(dist, far, self.SIGMA))[0] < 0.0
        expected = _threshold_step(dist, bench, self.SIGMA)
        halves, evaluations = self._counted_step(monkeypatch, dist, far, self.SIGMA)
        assert evaluations < quantopt._STEP_MAX_ITER
        np.testing.assert_allclose(halves, expected, rtol=0.0, atol=1e-6 * self.SIGMA)
        mi = TestThresholdStep._mi
        assert mi(dist, halves, self.SIGMA) >= mi(dist, far, self.SIGMA)

    def test_convex_start_takes_bounded_steps(self):
        # at five times the 10-dB benchmark thresholds MI is convex in the
        # gaps, and minus the Hessian's eigenvalue nearest 0 is about -3e-64:
        # a shift relative to it, not to the largest |eigenvalue|, sends the
        # thresholds to where the flow's log ratios are not finite
        quant = BenchmarkScheme.build(8, 10.0, self.SIGMA**2).quantizer
        spec = ChannelSpec(self.SIGMA**2, 10.0 * self.SIGMA**2, quant)
        dist = optimize_input_cutting_plane(spec, grid=_SCAN_GRID).dist
        far = 5.0 * np.asarray(quant.thresholds[4:])
        assert np.linalg.eigvalsh(-self._half_hessian(dist, far, self.SIGMA))[-1] <= 0.0
        halves = _threshold_step(dist, far, self.SIGMA)
        mi = TestThresholdStep._mi
        assert np.all(np.diff(halves, prepend=0.0) >= quantopt._MIN_GAP * self.SIGMA)
        assert mi(dist, halves, self.SIGMA) > mi(dist, far, self.SIGMA)

    def test_optimum_on_the_gap_floor_stops_with_the_held_gaps(self, start, monkeypatch):
        dist, _ = start
        floor = 0.5
        monkeypatch.setattr(quantopt, "_MIN_GAP", floor)
        first = np.array([1.0, 2.0, 3.0]) * 0.75 * self.SIGMA
        halves, evaluations = self._counted_step(monkeypatch, dist, first, self.SIGMA)
        gaps = np.diff(halves, prepend=0.0) / self.SIGMA
        # the first two gaps would shrink below the floor, and the third is
        # free; without projecting the held gaps out, the stop never comes
        np.testing.assert_allclose(gaps[:2], floor, rtol=1e-12)
        assert gaps[2] > 1.1 * floor
        assert evaluations < quantopt._STEP_MAX_ITER
        # no move of one gap by 1e-4 sigma that keeps the floor gains
        mi = TestThresholdStep._mi
        best = mi(dist, halves, self.SIGMA)
        for i in range(gaps.size):
            for delta in (1e-4, -1e-4):
                cand = gaps.copy()
                cand[i] += delta
                if cand[i] >= floor:
                    assert best >= mi(dist, self.SIGMA * np.cumsum(cand), self.SIGMA) - 1e-12

    def test_singular_hessian_far_in_the_tails_converges(self):
        # at 40 dB only the outermost threshold still moves MI, so minus the
        # Hessian over the gaps has rank 1 and an eigenvalue of 0 to rounding
        snr = 1e4
        quant = BenchmarkScheme.build(8, snr).quantizer
        dist = optimize_input_cutting_plane(ChannelSpec(1.0, snr, quant), grid=_SCAN_GRID).dist
        start = np.asarray(quant.thresholds[4:])
        eig = np.linalg.eigvalsh(-self._half_hessian(dist, start, 1.0))
        assert abs(eig[0]) <= 1e-12 * eig[-1]
        halves = _threshold_step(dist, start, 1.0)
        mi = TestThresholdStep._mi
        best = mi(dist, halves, 1.0)
        assert best > mi(dist, start, 1.0)
        # no move of one threshold by 1e-4 sigma that keeps the order gains
        for i in range(halves.size):
            for delta in (1e-4, -1e-4):
                cand = halves.copy()
                cand[i] += delta
                if cand[0] > 0.0 and np.all(np.diff(cand) > 0.0):
                    assert best >= mi(dist, cand, 1.0) - 1e-12


class TestJointResultValidation:
    def _capacity_result(self):
        return optimize_input_cutting_plane(ChannelSpec(1.0, 1.0, Quantizer((0.0,))))

    def test_rejects_decreasing_trace(self):
        with pytest.raises(ValueError):
            JointResult(Quantizer((0.0,)), self._capacity_result(), trace=(0.4, 0.39))

    def test_to_text_lists_thresholds_then_capacity(self, two_bit_0db):
        text = two_bit_0db.to_text()
        lines = text.splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["threshold"] * 3
        assert text.count("threshold ") == 3
        assert lines[3:] == two_bit_0db.capacity_result.to_text().splitlines()


class TestUnquantizedCapacity:
    def test_published_values(self):
        assert unquantized_capacity(1.0) == pytest.approx(0.5, abs=1e-12)
        assert unquantized_capacity(100.0) == pytest.approx(3.3291, abs=5e-4)

    def test_zero_snr(self):
        assert unquantized_capacity(0.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, snr):
        assert unquantized_capacity(snr) == pytest.approx(
            0.5 * math.log2(1.0 + snr), rel=1e-14
        )

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            unquantized_capacity(-0.5)


def _jump_curve(db):
    """The unquantized curve less 0.3 bits below 8 dB and 0.05 bits above:
    Newton steps alone cycle across the jump for a 1.25-bit target."""
    power = 10.0 ** (db / 10.0)
    drop = 0.3 if db < 8.0 else 0.05
    return unquantized_capacity(power) - drop, 1.0 / (2.0 * math.log(2.0) * (1.0 + power))


class _Counted:
    def __init__(self, curve):
        self.curve = curve
        self.calls = []

    def __call__(self, db):
        self.calls.append(db)
        return self.curve(db)


def _unquantized(db):
    return capacity_and_gamma("inf", db)


class TestSnrForSpectralEfficiency:
    def test_unquantized_half_bit_is_zero_db(self):
        assert snr_for_spectral_efficiency(0.5, _unquantized) == 0.0

    @given(st.floats(min_value=0.2, max_value=2.2))
    @settings(max_examples=30, deadline=None)
    def test_matches_analytic_inversion(self, target):
        # exact in one evaluation: the start is the unquantized inverse
        curve = _Counted(_unquantized)
        root = snr_for_spectral_efficiency(target, curve)
        analytic = 10.0 * math.log10(2.0 ** (2.0 * target) - 1.0)
        assert len(curve.calls) == 1
        assert root == round(analytic, 6)

    def test_bare_callable_support(self):
        root = snr_for_spectral_efficiency(
            1.0, lambda db: (unquantized_capacity(10.0 ** (db / 10.0)), 0.5)
        )
        assert root == pytest.approx(10.0 * math.log10(3.0), abs=1e-6)

    def test_one_bit_half_rate(self):
        root = snr_for_spectral_efficiency(
            0.5, lambda db: capacity_and_gamma(1, db), supremum=1.0
        )
        assert root == pytest.approx(1.79, abs=0.05)

    @pytest.mark.parametrize("target", [0.05, 0.25, 0.5, 0.75, 0.9])
    def test_onebit_row_matches_brentq_on_closed_form(self, target):
        root = snr_for_spectral_efficiency(
            target, lambda db: capacity_and_gamma(1, db), supremum=1.0
        )
        oracle = brentq(
            lambda db: onebit_capacity(10.0 ** (db / 10.0)) - target,
            -30.0,
            20.0,
            xtol=1e-10,
        )
        assert root == pytest.approx(oracle, abs=0.005)

    def test_jump_converges_through_bisection(self):
        curve = _Counted(_jump_curve)
        root = snr_for_spectral_efficiency(1.25, curve)
        # no SNR reaches the target within tolerance; the bracket closes on
        # the jump and returns its upper end, where the target is reached
        assert 8.0 <= root < 8.01
        assert _jump_curve(root)[0] >= 1.25
        assert len(curve.calls) < 30

    def test_evaluation_cap_raises(self):
        # a zero slope below the target steps up 1 dB per evaluation
        curve = _Counted(lambda db: (0.1, 0.0))
        with pytest.raises(RuntimeError, match="30 evaluations"):
            snr_for_spectral_efficiency(0.5, curve)
        assert len(curve.calls) == 30
        assert np.allclose(np.diff(curve.calls), 1.0)

    def test_zero_slope_above_the_target_steps_down_one_db(self):
        # the start already reaches the target, and with no slope to step
        # by, the lower end is sought 1 dB down; bisection then closes on
        # the step where the curve crosses the target, at start - 0.4 dB
        start = round(10.0 * math.log10(3.0), 6)
        curve = _Counted(lambda db: (1.1 if db >= start - 0.4 else 0.9, 0.0))
        root = snr_for_spectral_efficiency(1.0, curve)
        assert curve.calls[:2] == [start, round(start - 1.0, 6)]
        assert start - 0.4 <= root < start - 0.39

    def test_one_bit_full_rate_infeasible(self):
        # the 1-bit ceiling is approached but never attained at finite SNR
        def never(db):
            raise AssertionError("an infeasible target must not be evaluated")

        for target in (1.0, 1.0 - 1e-10, 2.5):
            assert snr_for_spectral_efficiency(target, never, supremum=1.0) is None

    def test_table_v_independent_of_cache_contents(self, cell_cache):
        for name in ("I", "II", "III", "IV"):
            build_table(name, cell_cache)
        warm = build_table("V", cell_cache).computed
        assert build_table("V", {}).computed == warm

    def test_rejects_nonpositive_target(self):
        for target in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                snr_for_spectral_efficiency(target, lambda db: (0.0, 1.0))


class TestPrecisionOrdering:
    def test_more_bins_never_hurt_at_0db(self, two_bit_0db, three_bit_0db):
        one = onebit_capacity(1.0)
        two = two_bit_0db.capacity_result.capacity
        three = three_bit_0db.capacity_result.capacity
        assert one <= two + 1e-9 <= three + 2e-9
        assert three <= unquantized_capacity(1.0)
