"""Channel-model tests: transition probabilities, MI, divergence kernel.

Quadrature oracles (scipy.integrate.quad of the Gaussian density over each
bin) provide the independent route for the transition probabilities.  The
divergence profile is channel._divergences_bits of the transition rows; the
mirror mixture is the one that optimize._canonical_dist builds.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import xlogy

from quantcap import (
    ChannelSpec,
    InputDistribution,
    OutputPmf,
    Quantizer,
    gaussian_q,
    mutual_information,
)
from quantcap.channel import (
    _divergences_bits,
    _profile,
    _row_negentropy_bits,
    _threshold_hessian_bits,
    bin_probability_matrix,
)
from quantcap.optimize import _canonical_dist


def divergence_to_output(x, out, spec):
    """D(W(.|x) || R) in bits at each x, or a float for a scalar x."""
    w = bin_probability_matrix(x, spec.quantizer.thresholds, spec.sigma)
    d = _divergences_bits(w, _row_negentropy_bits(w), out.probs)
    return float(d[0]) if np.ndim(x) == 0 else d


def _bin_prob_quadrature(lo, hi, x, sigma):
    # oracle: integrate the N(x, sigma^2) density over the bin
    def density(t):
        z = (t - x) / sigma
        return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))

    lo = max(lo, x - 45 * sigma)
    hi = min(hi, x + 45 * sigma)
    if hi <= lo:
        return 0.0
    val, _ = quad(density, lo, hi, epsabs=1e-14, epsrel=1e-10, limit=400)
    return val


def _rng():
    return np.random.default_rng(20260823)


def _random_spec(rng, max_bins=5):
    k = rng.integers(2, max_bins + 1)
    thr = np.sort(rng.uniform(-4.0, 4.0, size=k - 1))
    while np.any(np.diff(thr) < 1e-3):
        thr = np.sort(rng.uniform(-4.0, 4.0, size=k - 1))
    sigma2 = rng.uniform(0.25, 4.0)
    power = rng.uniform(0.1, 10.0)
    return ChannelSpec(sigma2, power, Quantizer(tuple(thr)))

def _random_dist(rng, spec, n_max=6):
    n = rng.integers(1, n_max + 1)
    bound = math.sqrt(spec.power_constraint)
    x = np.sort(rng.uniform(-bound, bound, size=n))
    while n > 1 and np.any(np.diff(x) < 1e-6):
        x = np.sort(rng.uniform(-bound, bound, size=n))
    p = rng.dirichlet(np.ones(n))
    while np.any(p < 1e-4):
        p = rng.dirichlet(np.ones(n))
    return InputDistribution.from_points(x, p)


def _dist(*pairs):
    x, p = zip(*pairs)
    return InputDistribution(np.array(x), np.array(p))


def _output(dist, spec):  # the output pmf p W, as the solvers form it
    w = bin_probability_matrix(dist.locations, spec.quantizer.thresholds, spec.sigma)
    return OutputPmf(dist.masses @ w)


def _mirrored(dist, spec):  # equal mixture with the mirror image
    return _canonical_dist(dist.locations, dist.masses, spec, merge_tol=0.0)


ANTIPODAL = _dist((-1.0, 0.5), (1.0, 0.5))


class TestQuantizer:
    def test_basic(self):
        q = Quantizer((-2.0, 0.0, 2.0))
        assert len(q.thresholds) + 1 == 4
        assert q.is_symmetric()

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValueError):
            Quantizer((0.0, 0.0))
        with pytest.raises(ValueError):
            Quantizer((1.0, -1.0))
        with pytest.raises(ValueError):
            Quantizer(())

    def test_symmetry_detection(self):
        assert not Quantizer((-1.0, 0.5)).is_symmetric()
        assert Quantizer((-1.5, 1.5)).is_symmetric()


class TestChannelSpec:
    def test_from_snr_db(self):
        spec = ChannelSpec.from_snr_db(5.0, Quantizer((0.0,)))
        assert spec.power_constraint == pytest.approx(10.0**0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChannelSpec(0.0, 1.0, Quantizer((0.0,)))
        with pytest.raises(ValueError):
            ChannelSpec(1.0, -1.0, Quantizer((0.0,)))


class TestInputDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            InputDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            InputDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            InputDistribution(np.array([0.0, 0.0]), np.array([0.5, 0.5]))

    def test_merge_and_prune(self):
        d = InputDistribution.from_points(
            [1.0, 1.0 + 1e-9, -1.0, 0.0],
            [0.3, 0.3, 0.4 - 1e-9, 1e-9],
            merge_tol=1e-6,
            prune_tol=1e-7,
        )
        assert d.locations.size == 2
        assert d.locations[1] == pytest.approx(1.0, abs=1e-9)
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_subnormal_centroids_that_coincide_merge(self):
        # 0.5 * 5e-324 underflows to 0, so both groups' centroids are 0
        d = InputDistribution.from_points([-5e-324, 5e-324], [0.5, 0.5])
        assert d.locations.tolist() == [0.0]
        assert d.masses.tolist() == [1.0]
        d = InputDistribution.from_points([-5e-324, 5e-324, 1.0], [0.25, 0.25, 0.5])
        assert d.locations.tolist() == [0.0, 1.0]
        assert d.masses.tolist() == [0.5, 0.5]

    def test_symmetrized(self):
        d = _dist((-1.0, 0.25), (2.0, 0.75))
        s = _mirrored(d, ChannelSpec(1.0, 4.0, Quantizer((-1.5, 0.0, 1.5))))
        assert np.array_equal(s.locations, -s.locations[::-1])
        assert np.array_equal(s.masses, s.masses[::-1])
        power = d.masses @ d.locations**2
        assert s.masses @ s.locations**2 == pytest.approx(power, rel=1e-12)
        assert s.locations.size == 4

    def test_symmetrized_collapses_pairs(self):
        spec = ChannelSpec(1.0, 1.0, Quantizer((0.0,)))
        assert _mirrored(ANTIPODAL, spec).locations.size == 2


class TestTransitionProbs:
    def test_centered_example(self):
        # thresholds {-2, 0, 2}, sigma = 1, x = 0; quadrature oracle values
        w = bin_probability_matrix(0.0, (-2.0, 0.0, 2.0), 1.0)[0]
        np.testing.assert_allclose(
            w, [0.02275013194818, 0.47724986805182, 0.47724986805182, 0.02275013194818],
            atol=1e-12,
        )

    @pytest.mark.parametrize("x", [-3.7, -0.4, 0.0, 1.1, 2.0, 6.5])
    def test_matches_quadrature(self, x):
        sigma = 1.3
        thr = (-2.0, -0.5, 1.0, 2.5)
        w = bin_probability_matrix(x, thr, sigma)[0]
        edges = (-np.inf,) + thr + (np.inf,)
        oracle = [
            _bin_prob_quadrature(lo, hi, x, sigma)
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        np.testing.assert_allclose(w, oracle, atol=1e-10)

    def test_row_stochastic_random_draws(self):
        # 10^4 random (x, spec) pairs: rows sum to one and stay in [0, 1]
        rng = _rng()
        total = 0
        for _ in range(20):
            spec = _random_spec(rng)
            xs = rng.uniform(-50.0, 50.0, size=500)
            w = bin_probability_matrix(xs, spec.quantizer.thresholds, spec.sigma)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-10
            total += xs.size
        assert total == 10_000

    @staticmethod
    def _per_bin_reference(x, thresholds, sigma):
        # the per-bin loop the kernel replaces, same arithmetic per element
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = (np.asarray(thresholds, dtype=float)[None, :] - x[:, None]) / sigma
        tail = gaussian_q(z)
        comp = gaussian_q(-z)
        n, km1 = z.shape
        out = np.empty((n, km1 + 1))
        out[:, 0] = comp[:, 0]
        out[:, -1] = tail[:, -1]
        for i in range(1, km1):
            a = z[:, i - 1]
            b = z[:, i]
            col = np.empty(n)
            pos = a >= 0.0
            neg = b <= 0.0
            mid = ~(pos | neg)
            col[pos] = tail[pos, i - 1] - tail[pos, i]
            col[neg] = comp[neg, i] - comp[neg, i - 1]
            col[mid] = 1.0 - comp[mid, i - 1] - tail[mid, i]
            out[:, i] = col
        np.clip(out, 0.0, 1.0, out=out)
        return out

    @pytest.mark.parametrize("bins", [2, 3, 8, 16])
    def test_matches_per_bin_reference_exactly(self, bins):
        rng = np.random.default_rng(6000 + bins)
        straddling = deep = on_threshold = negative_zero = 0
        for trial in range(150):
            sigma = (0.3, 1.0, 2.0)[trial % 3]
            thr = np.sort(rng.uniform(-12.0, 12.0, size=bins - 1))
            if np.any(np.diff(thr) <= 0.0):
                continue
            if trial % 5 == 0:
                # a threshold of -0.0, so that x = +0.0 sits on it at z = -0.0
                thr[np.argmin(np.abs(thr))] = -0.0
            # a few inputs inside every bin (so some bins straddle x), plus
            # inputs far enough out that every tail underflows (|z| > 37),
            # plus inputs on every threshold (z = 0) and at both zeros
            cases = [
                rng.uniform(-16.0, 16.0, size=int(rng.integers(1, 30))),
                rng.uniform(40.0, 110.0, size=3) * sigma * rng.choice([-1.0, 1.0], size=3),
                np.array([rng.uniform(-16.0, 16.0)]),
                float(rng.uniform(-16.0, 16.0)),
                np.concatenate((thr, [0.0, -0.0])),
            ]
            for x in cases:
                z = (thr[None, :] - np.atleast_1d(x)[:, None]) / sigma
                straddling += int(np.sum((z[:, :-1] < 0.0) & (z[:, 1:] > 0.0)))
                deep += int(np.sum(np.abs(z) > 37.0))
                on_threshold += int(np.sum(z == 0.0))
                negative_zero += int(np.sum((z == 0.0) & np.signbit(z)))
                got = bin_probability_matrix(x, thr, sigma)
                assert np.array_equal(got, self._per_bin_reference(x, thr, sigma))
        if bins > 2:
            assert straddling > 100
        assert deep > 100
        assert on_threshold > 150
        assert negative_zero >= 30

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input_and_thresholds(self, bad):
        thr = (-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bin_probability_matrix([0.0, bad], thr, 1.0)
        with pytest.raises(ValueError):
            bin_probability_matrix(bad, thr, 1.0)
        with pytest.raises(ValueError):
            bin_probability_matrix([0.0, 0.5], (-1.0, bad, 1.0), 1.0)

    def test_extreme_bin_monotonicity(self):
        rng = _rng()
        for _ in range(10):
            spec = _random_spec(rng)
            xs = np.linspace(-40.0, 40.0, 801)
            w = bin_probability_matrix(xs, spec.quantizer.thresholds, spec.sigma)
            assert np.all(np.diff(w[:, -1]) >= 0.0)
            assert np.all(np.diff(w[:, 0]) <= 0.0)


class TestOutputPmf:
    def test_sums_to_one(self):
        spec = ChannelSpec(1.0, 1.0, Quantizer((-2.0, 0.0, 2.0)))
        r = _output(ANTIPODAL, spec)
        assert r.probs.size == 4
        assert r.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_palindromic_for_symmetric_pair(self):
        spec = ChannelSpec(1.0, 1.0, Quantizer((-2.0, 0.0, 2.0)))
        d = _dist((-2.0, 0.2), (-0.5, 0.3), (0.5, 0.3), (2.0, 0.2))
        r = _output(d, spec).probs
        assert np.abs(r - r[::-1]).max() <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            OutputPmf(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            OutputPmf(np.array([1.0]))


class TestMutualInformation:
    def test_one_bit_closed_form(self):
        # equiprobable +-1 through threshold {0} is a BSC(Q(1))
        spec = ChannelSpec(1.0, 1.0, Quantizer((0.0,)))
        from quantcap import binary_entropy

        expected = 1.0 - binary_entropy(gaussian_q(1.0))
        assert mutual_information(ANTIPODAL, spec) == pytest.approx(expected, abs=1e-14)
        assert mutual_information(ANTIPODAL, spec) == pytest.approx(0.3689, abs=5e-5)

    def test_bounded_by_log_k_and_awgn(self):
        rng = _rng()
        for _ in range(50):
            spec = _random_spec(rng)
            d = _random_dist(rng, spec)
            mi = mutual_information(d, spec)
            assert 0.0 <= mi <= math.log2(len(spec.quantizer.thresholds) + 1) + 1e-12
            snr = spec.power_constraint / spec.noise_variance
            assert mi <= 0.5 * math.log2(1.0 + snr) + 1e-6

    def test_symmetrization_never_hurts(self):
        rng = _rng()
        spec = ChannelSpec(1.0, 4.0, Quantizer((-1.5, 0.0, 1.5)))
        for _ in range(50):
            d = _random_dist(rng, spec)
            gain = mutual_information(_mirrored(d, spec), spec) - mutual_information(d, spec)
            assert gain >= -1e-12

    def test_deterministic_channel_saturates(self):
        # huge separation, tiny noise: MI approaches log2 K
        spec = ChannelSpec(1e-4, 100.0, Quantizer((-5.0, 0.0, 5.0)))
        d = _dist((-9.0, 0.25), (-2.5, 0.25), (2.5, 0.25), (9.0, 0.25))
        assert mutual_information(d, spec) == pytest.approx(2.0, abs=1e-9)


class TestDivergenceKernel:
    def test_matches_xlogy_form_and_is_nonnegative(self):
        # rows with zero entries, and a row equal to r, whose divergence is
        # zero up to rounding
        rng = _rng()
        for _ in range(50):
            k = int(rng.integers(2, 9))
            w = rng.random((30, k))
            w[rng.random(w.shape) < 0.3] = 0.0
            if rng.random() < 0.3:
                w[:, -1] = 0.0  # a bin that neither the rows nor r reach
            w[w.sum(axis=1) == 0.0, 0] = 1.0
            w /= w.sum(axis=1, keepdims=True)
            r = w.mean(axis=0)
            w[0] = r
            oracle = (xlogy(w, w) - xlogy(w, r)).sum(axis=1) / math.log(2.0)
            got = _divergences_bits(w, _row_negentropy_bits(w), r)
            assert np.all(got >= 0.0)
            np.testing.assert_allclose(got, oracle, rtol=0.0, atol=1e-13)


class TestThresholdGradient:
    @staticmethod
    def _mi(x, p, thresholds, sigma):
        w = bin_probability_matrix(x, thresholds, sigma)
        return float(p @ _divergences_bits(w, _row_negentropy_bits(w), p @ w))

    @pytest.mark.parametrize("bins", [2, 4, 5, 8])
    def test_matches_central_differences(self, bins):
        # random asymmetric thresholds and supports, sigma != 1
        rng = _rng()
        step = 1e-6
        for _ in range(20):
            sigma = rng.uniform(0.3, 3.0)
            thr = np.sort(rng.normal(0.0, 2.0 * sigma, size=bins - 1))
            while np.any(np.diff(thr) < 1e-2 * sigma):
                thr = np.sort(rng.normal(0.0, 2.0 * sigma, size=bins - 1))
            n = int(rng.integers(1, 12))
            x = np.sort(rng.normal(0.0, 3.0 * sigma, size=n))
            p = rng.dirichlet(np.ones(n))
            # dI/dq_k is minus the p-weighted column sum of the flow
            got = -(p @ _profile(x, p, thr, sigma).flow)
            for k in range(bins - 1):
                e = np.zeros(bins - 1)
                e[k] = step
                diff = (self._mi(x, p, thr + e, sigma) - self._mi(x, p, thr - e, sigma)) / (
                    2.0 * step
                )
                assert abs(got[k] - diff) <= 1e-8


class TestThresholdHessian:
    @pytest.mark.parametrize("bins", [2, 4, 5, 8])
    def test_matches_central_differences_of_the_gradient(self, bins):
        # random asymmetric thresholds and supports, sigma != 1
        rng = _rng()
        for _ in range(20):
            sigma = rng.uniform(0.3, 3.0)
            thr = np.sort(rng.normal(0.0, 2.0 * sigma, size=bins - 1))
            while np.any(np.diff(thr) < 1e-2 * sigma):
                thr = np.sort(rng.normal(0.0, 2.0 * sigma, size=bins - 1))
            n = int(rng.integers(1, 12))
            x = np.sort(rng.normal(0.0, 3.0 * sigma, size=n))
            p = rng.dirichlet(np.ones(n))

            def grad(q):
                return -(p @ _profile(x, p, q, sigma).flow)

            got = _threshold_hessian_bits(_profile(x, p, thr, sigma), sigma)
            step = 1e-5 * sigma
            for k in range(bins - 1):
                e = np.zeros(bins - 1)
                e[k] = step
                diff = (grad(thr + e) - grad(thr - e)) / (2.0 * step)
                np.testing.assert_allclose(got[:, k], diff, rtol=0.0, atol=1e-8)
            # thresholds that share no bin do not interact
            assert np.array_equal(got, np.triu(np.tril(got, 1), -1))


class TestDivergenceSlope:
    @pytest.mark.parametrize("bins", [2, 4, 5, 8])
    def test_matches_central_differences(self, bins):
        # d'(x) of D(W(.|x) || r) against the output law r = p W of random
        # masses p on x, held fixed, asymmetric thresholds, sigma != 1
        rng = _rng()
        step = 1e-6
        for _ in range(20):
            sigma = rng.uniform(0.3, 3.0)
            thr = np.sort(rng.normal(0.0, 2.0 * sigma, size=bins - 1))
            x = rng.normal(0.0, 3.0 * sigma, size=8)
            p = rng.dirichlet(np.ones(8))
            prof = _profile(x, p, thr, sigma)

            def d(at):
                w = bin_probability_matrix(at, thr, sigma)
                return _divergences_bits(w, _row_negentropy_bits(w), prof.r)

            # d'(x) is the row sum of the flow
            got = prof.slope
            diff = (d(x + step) - d(x - step)) / (2.0 * step)
            np.testing.assert_allclose(got, diff, atol=1e-7)


class TestDivergence:
    def test_zero_at_center_of_symmetric_binary(self):
        spec = ChannelSpec(1.0, 1.0, Quantizer((0.0,)))
        r = _output(ANTIPODAL, spec)
        assert divergence_to_output(0.0, r, spec) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative(self):
        rng = _rng()
        for _ in range(20):
            spec = _random_spec(rng)
            r = _output(_random_dist(rng, spec), spec)
            xs = rng.uniform(-20, 20, size=50)
            assert np.all(divergence_to_output(xs, r, spec) >= 0.0)

    def test_saturation_limit(self):
        # d(x; F) -> -log2 R(last bin) as x grows (and mirrored on the left)
        spec = ChannelSpec.from_snr_db(5.0, Quantizer((-2.0, 0.0, 2.0)))
        d = _dist((-2.86, 0.25), (-0.52, 0.25), (0.52, 0.25), (2.86, 0.25))
        out = _output(d, spec)
        r = out.probs
        x_hi = 2.0 + 10.0 * spec.sigma
        assert divergence_to_output(x_hi, out, spec) == pytest.approx(
            -math.log2(r[-1]), abs=1e-6
        )
        x_lo = -2.0 - 10.0 * spec.sigma
        assert divergence_to_output(x_lo, out, spec) == pytest.approx(
            -math.log2(r[0]), abs=1e-6
        )

    def test_beyond_crossing_stays_below_limit(self):
        # once W(.|x) concentrates enough mass in the top bin that every other
        # bin falls below its output probability, d(x;F) < -log2 R(last bin)
        rng = _rng()
        checked = 0
        for _ in range(200):
            spec = _random_spec(rng)
            out = _output(_random_dist(rng, spec), spec)
            r = out.probs
            if np.any(r <= 0.0):
                continue
            limit = -math.log2(r[-1])
            thr_hi = spec.quantizer.thresholds[-1]
            xs = thr_hi + spec.sigma * np.linspace(0.0, 8.0, 81)
            w = bin_probability_matrix(xs, spec.quantizer.thresholds, spec.sigma)
            crossed = np.all(w[:, :-1] < r[:-1], axis=1) & (w[:, -1] > r[-1])
            if not np.any(crossed):
                continue
            assert np.all(divergence_to_output(xs[crossed], out, spec) < limit)
            checked += 1
        assert checked >= 100


class TestScaleInvariance:
    def test_mi_invariant_under_power_rescaling(self):
        rng = _rng()
        for _ in range(20):
            spec = _random_spec(rng)
            d = _random_dist(rng, spec)
            ratio = rng.uniform(0.1, 10.0)
            root = math.sqrt(ratio)
            spec2 = ChannelSpec(
                spec.noise_variance * ratio,
                spec.power_constraint * ratio,
                Quantizer(tuple(t * root for t in spec.quantizer.thresholds)),
            )
            d2 = InputDistribution(d.locations * root, d.masses.copy())
            assert mutual_information(d2, spec2) == pytest.approx(
                mutual_information(d, spec), abs=1e-10
            )


@st.composite
def small_distributions(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    xs = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n
        )
    )
    p = np.asarray(weights)
    return InputDistribution.from_points(np.asarray(xs), p / p.sum(), merge_tol=1e-6)


@given(small_distributions())
# a subnormal point: its mirror image's centroid underflowed onto its own
@example(dist=InputDistribution(np.array([5e-324]), np.array([1.0])))
@settings(max_examples=60, deadline=None)
def test_mixture_improvement_property(dist):
    spec = ChannelSpec(1.0, 9.0, Quantizer((-1.0, 0.0, 1.0)))
    base = mutual_information(dist, spec)
    sym = mutual_information(_mirrored(dist, spec), spec)
    assert sym >= base - 1e-12
