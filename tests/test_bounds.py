"""Duality-bound tests: envelope minimization, divergence, the bound path.

Weak duality is the load-bearing theorem here: for any positive output pmf R
and any power-feasible input F, I(F) <= min_gamma sup_x [D(W(.|x)||R) +
gamma (P - x^2)].  The tests check the exact envelope minimizer against dense
scans, the divergence against a high-precision oracle, the certificate for
a fixed R against batches of random feasible inputs, and the bound path
(the capacity solve's own output law, polished and certified) against
pinned values, the cutting plane and log2 K.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from quantcap import (
    BenchmarkScheme,
    ChannelSpec,
    GridConfig,
    InputDistribution,
    OutputPmf,
    Quantizer,
    duality_upper_bound,
    minimize_max_affine,
    mutual_information,
    onebit_capacity,
    optimize_input_cutting_plane,
)
from quantcap import bounds
from quantcap.bounds import (
    _CERT_PAD,
    _CERT_POINTS,
    _cell_bounds,
    _certified_bound,
    _evaluate,
    _rounded_up,
)
from quantcap.channel import _divergences_bits, _row_negentropy_bits, bin_probability_matrix
from quantcap.special import gaussian_q

TWOBIT = Quantizer((-2.0, 0.0, 2.0))


def spec_db(snr_db, quant=TWOBIT):
    return ChannelSpec.from_snr_db(snr_db, quant)


def divergence_to_output(x, out, spec):
    """D(W(.|x) || R) in bits from the package's divergence kernel; a float
    for a scalar x."""
    w = bin_probability_matrix(x, spec.quantizer.thresholds, spec.sigma)
    d = _divergences_bits(w, _row_negentropy_bits(w), out.probs)
    return float(d[0]) if np.ndim(x) == 0 else d


def grid_bound(spec, out, xs):  # the envelope minimum with the sup over grid xs
    d = divergence_to_output(xs, out, spec)
    return minimize_max_affine(d, spec.power_constraint - xs**2)


line_families = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0),
            min_size=n,
            max_size=n,
        ),
    )
)


class TestMinimizeMaxAffine:
    @given(line_families)
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_scan(self, family):
        intercepts, slopes = (np.asarray(v) for v in family)
        try:
            env = minimize_max_affine(intercepts, slopes)
        except ValueError:
            # legal only when the envelope decreases without attaining a min
            assert np.max(slopes) <= 0.0
            far = float(np.max(intercepts + 1e9 * slopes))
            assert far < float(np.max(intercepts))
            return
        gammas = np.concatenate(
            [np.linspace(0.0, 4.0 * (1.0 + env.gamma), 4001), [env.gamma]]
        )
        m = (intercepts[None, :] + gammas[:, None] * slopes[None, :]).max(axis=1)
        assert env.value <= float(np.min(m)) + 1e-9 * (1.0 + abs(env.value))
        # consistency: the reported value is the envelope at the reported gamma
        at_gamma = float(np.max(intercepts + env.gamma * slopes))
        assert env.value == pytest.approx(at_gamma, rel=1e-12, abs=1e-12)

    @given(line_families)
    @settings(max_examples=100, deadline=None)
    def test_first_order_optimality(self, family):
        intercepts, slopes = (np.asarray(v) for v in family)
        try:
            env = minimize_max_affine(intercepts, slopes)
        except ValueError:
            return
        delta = 1e-6 * (1.0 + env.gamma)
        for g in (env.gamma - delta, env.gamma + delta):
            if g < 0.0:
                continue
            m = float(np.max(intercepts + g * slopes))
            assert m >= env.value - 1e-9 * (1.0 + abs(env.value))

    def test_all_nonnegative_slopes_pin_gamma_at_zero(self):
        env = minimize_max_affine([1.0, 2.0, 0.5], [0.1, 0.2, 3.0])
        assert env.gamma == 0.0
        assert env.value == 2.0

    def test_two_line_crossing_exact(self):
        # max(1 - g, 0 + g) is minimized at g = 1/2 with value 1/2
        env = minimize_max_affine([1.0, 0.0], [-1.0, 1.0])
        assert env.gamma == pytest.approx(0.5, abs=1e-12)
        assert env.value == pytest.approx(0.5, abs=1e-12)

    def test_flat_envelope_attains_minimum(self):
        # max(0, 1 - g) stops falling at g = 1 and stays at 0
        env = minimize_max_affine([0.0, 1.0], [0.0, -1.0])
        assert env.gamma == pytest.approx(1.0, abs=1e-12)
        assert env.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonincreasing_envelope(self):
        with pytest.raises(ValueError):
            minimize_max_affine([1.0, 2.0], [-1.0, -0.5])

    def test_leaves_read_only_inputs_untouched(self):
        # the probes work in a buffer of their own: read-only inputs are
        # accepted, unchanged, and a second call returns the same minimum
        rng = np.random.default_rng(81)
        xs = np.linspace(-4.0, 4.0, 801)
        intercepts = rng.uniform(0.0, 2.0, xs.size)
        slopes = 1.0 - xs**2
        kept = intercepts.copy(), slopes.copy()
        intercepts.flags.writeable = slopes.flags.writeable = False
        first = minimize_max_affine(intercepts, slopes)
        assert first.gamma > 0.0
        assert minimize_max_affine(intercepts, slopes) == first
        assert np.array_equal(intercepts, kept[0]) and np.array_equal(slopes, kept[1])


class TestDivergenceToOutput:
    def test_zero_against_own_transition(self):
        spec = spec_db(5.0)
        for x in (-2.5, 0.0, 0.7):
            own = OutputPmf(bin_probability_matrix(x, TWOBIT.thresholds, 1.0)[0])
            assert divergence_to_output(x, own, spec) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_saturates_to_log_inverse_tail_mass(self):
        # past the outermost threshold the conditional law is all in the top
        # bin, so the divergence flattens at -log2 R_K
        spec = spec_db(5.0)
        out = OutputPmf([0.25, 0.25, 0.25, 0.25])
        edge = spec.quantizer.thresholds[-1] + 5.0 * spec.sigma
        assert divergence_to_output(edge, out, spec) == pytest.approx(
            -math.log2(0.25), abs=1e-4
        )

    def test_uniform_output_at_origin_oracle(self):
        # mpmath 40-digit oracle for the 2-bit channel, q=2, sigma=1, x=0,
        # uniform output: 0.7330342370272577 bits
        spec = spec_db(5.0)
        out = OutputPmf([0.25, 0.25, 0.25, 0.25])
        assert divergence_to_output(0.0, out, spec) == pytest.approx(
            0.7330342370272577, rel=1e-10
        )

    def test_vectorized_matches_scalar(self):
        spec = spec_db(0.0)
        out = OutputPmf([0.2, 0.3, 0.3, 0.2])
        xs = np.array([-1.0, 0.0, 2.5])
        vec = divergence_to_output(xs, out, spec)
        for x, v in zip(xs, vec):
            assert divergence_to_output(float(x), out, spec) == pytest.approx(v)


def jittered(bins, snr_db, seed=7):
    """The K-PAM benchmark quantizer with N(0, 0.2) noise on each threshold,
    re-sorted: asymmetric."""
    thr = np.asarray(BenchmarkScheme.build(bins, 10.0 ** (snr_db / 10.0)).quantizer.thresholds)
    noise = np.random.default_rng(seed).normal(0.0, 0.2, thr.size)
    return Quantizer(tuple(np.sort(thr + noise)))


# the +/-2 quantizer, an asymmetric K=8 and a K=16 one
WEAK_DUALITY_QUANTIZERS = (
    TWOBIT,
    jittered(8, 5.0),
    Quantizer(tuple(np.linspace(-3.5, 3.5, 15))),
)


class TestUpperBoundForOutput:
    def test_dominates_random_feasible_inputs(self):
        # weak duality against 400 random (input, output) pairs per
        # quantizer; R is symmetric on every second trial, else asymmetric
        rng = np.random.default_rng(20260823)
        checked = 0
        for quant, trial in itertools.product(WEAK_DUALITY_QUANTIZERS, range(100)):
            spec = spec_db(5.0, quant)
            reach = max(abs(quant.thresholds[0]), quant.thresholds[-1]) + 1.0
            probs = rng.uniform(0.05, 0.95, size=len(quant.thresholds) + 1)
            if trial % 2 == 0:
                probs = probs + probs[::-1]
            out = OutputPmf(probs / probs.sum())
            bound = _certified_bound(spec, out)
            for _ in range(4):
                n = rng.integers(1, 6)
                locs = np.sort(rng.uniform(-reach, reach, size=n))
                while n > 1 and np.any(np.diff(locs) < 1e-6):
                    locs = np.sort(rng.uniform(-reach, reach, size=n))
                masses = rng.dirichlet(np.ones(n))
                scale = math.sqrt(
                    spec.power_constraint / max(float(masses @ locs**2), 1e-12)
                )
                locs = locs * min(1.0, scale)  # force power feasibility
                dist = InputDistribution(locs, masses)
                assert masses @ locs**2 <= spec.power_constraint + 1e-9
                assert mutual_information(dist, spec) <= bound + 1e-9
                checked += 1
        assert checked == 1200

    def test_narrow_grid_pins_gamma_at_zero(self):
        # every grid point inside the power budget: all slopes nonnegative,
        # so the envelope is minimized at gamma = 0 with the raw sup
        spec = spec_db(5.0)
        out = OutputPmf([0.25, 0.25, 0.25, 0.25])
        root_p = math.sqrt(spec.power_constraint)
        grid = np.linspace(-0.9 * root_p, 0.9 * root_p, 801)
        res = grid_bound(spec, out, grid)
        assert res.gamma == 0.0
        d = divergence_to_output(grid, out, spec)
        assert res.value == pytest.approx(float(np.max(d)), rel=1e-12)

    def test_truncation_soundness(self):
        # the certificate scans _CERT_PAD sigmas past the outer thresholds
        # and bounds the tails; an envelope minimum on a grid three times
        # as wide never exceeds it, for symmetric and asymmetric R
        cases = (
            (TWOBIT, OutputPmf([0.3, 0.2, 0.2, 0.3])),
            (TWOBIT, OutputPmf([0.1, 0.2, 0.3, 0.4])),
            (Quantizer((-1.0, 0.5)), OutputPmf([0.5, 0.2, 0.3])),
        )
        for db, (quant, out) in itertools.product((0.0, 10.0, 30.0), cases):
            spec = spec_db(db, quant)
            reach = max(abs(quant.thresholds[0]), quant.thresholds[-1])
            reach += 3.0 * _CERT_PAD * spec.sigma + math.sqrt(spec.power_constraint)
            wide = grid_bound(spec, out, np.linspace(-reach, reach, 40001)).value
            assert wide <= _certified_bound(spec, out) + 1e-12


def brent_certified_bound(spec, out):
    """Oracle for `_certified_bound`: the multiplier of the whole grid, and
    the sup over x from polishing each grid peak on its own by bounded Brent
    on the profile itself.  Returns (bound, best grid value, gamma)."""
    thr, sigma, power = spec.quantizer.thresholds, spec.sigma, spec.power_constraint
    lo = min(thr[0], 0.0) - _CERT_PAD * sigma
    hi = max(thr[-1], 0.0) + _CERT_PAD * sigma
    xs = np.linspace(lo, hi, _CERT_POINTS)
    d = divergence_to_output(xs, out, spec)
    gamma = minimize_max_affine(d, power - xs**2).gamma
    prof = d + gamma * (power - xs**2)
    best = grid_best = float(np.max(prof))
    n = xs.size
    for i in range(n):
        left = prof[i - 1] if i > 0 else -np.inf
        right = prof[i + 1] if i < n - 1 else -np.inf
        if prof[i] < max(left, right) or prof[i] <= min(left, right) + 1e-15 * max(
            1.0, abs(grid_best)
        ):
            continue
        res = minimize_scalar(
            lambda x: -divergence_to_output(x, out, spec) - gamma * (power - x * x),
            bounds=(xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]),
            method="bounded",
            options={"xatol": 1e-10},
        )
        best = max(best, float(-res.fun))
    log_r = -np.log2(out.probs)
    spill = gaussian_q(_CERT_PAD) * float(np.max(log_r))
    for edge, x in ((0, lo), (-1, hi)):
        best = max(best, float(log_r[edge]) + spill + gamma * (power - x * x))
    return best, grid_best, gamma


def _solved_output(spec):
    return duality_upper_bound(spec)[1]


PAM8_10DB = BenchmarkScheme.build(8, 10.0).quantizer
WIDE8 = Quantizer(tuple(np.linspace(-12.0, 12.0, 7)))


class TestPeakPolish:
    """The certificate's sup over continuous x, which a branch and bound
    proves; a per-peak bounded Brent search on the profile itself, at the
    multiplier of the whole grid, is the oracle."""

    @pytest.mark.parametrize(
        "snr_db, quant, out",
        [
            (5.0, Quantizer((0.0,)), None),
            (5.0, TWOBIT, None),
            (5.0, TWOBIT, OutputPmf([0.1, 0.2, 0.3, 0.4])),
            (-5.0, jittered(4, -5.0), None),
            (10.0, PAM8_10DB, None),
            (5.0, jittered(8, 5.0), None),
            (20.0, jittered(8, 20.0, seed=3), None),
            # sqrt(P) = 0.003: only grid points within it of 0 have rising lines
            (-50.0, Quantizer((-1.0, 0.5)), OutputPmf([0.3, 0.3, 0.4])),
        ],
        ids=["K2", "K4", "K4-asym-R", "K4-asym", "K8", "K8-asym", "K8-asym-20dB", "K3-asym-50dB"],
    )
    def test_matches_brent_oracle(self, snr_db, quant, out):
        spec = spec_db(snr_db, quant)
        out = out or _solved_output(spec)
        got = _certified_bound(spec, out)
        want, grid_best, _ = brent_certified_bound(spec, out)
        assert abs(got - want) <= 1e-12
        assert got >= grid_best

    @pytest.mark.parametrize(
        "quant, probs",
        [(TWOBIT, [0.3, 0.05, 0.35, 0.3]), (WIDE8, [3, 3, 3, 1, 3, 3, 3, 3])],
        ids=["K4", "K8"],
    )
    def test_saturated_gamma_zero(self, quant, probs):
        # at 30 dB the whole certificate grid lies inside the power budget,
        # so the multiplier is 0 and the profile is the divergence itself;
        # a rare interior bin puts its maximum at an interior peak
        spec = spec_db(30.0, quant)
        out = OutputPmf(np.asarray(probs, dtype=float) / np.sum(probs))
        want, grid_best, gamma = brent_certified_bound(spec, out)
        assert gamma == 0.0
        got = _certified_bound(spec, out)
        assert abs(got - want) <= 1e-12
        assert got > grid_best


def tilted_profile(spec, out, gamma, xs):
    return divergence_to_output(xs, out, spec) + gamma * (spec.power_constraint - xs**2)


def certificate_range(spec):
    thr, sigma = spec.quantizer.thresholds, spec.sigma
    return min(thr[0], 0.0) - _CERT_PAD * sigma, max(thr[-1], 0.0) + _CERT_PAD * sigma


class TestCellBound:
    """`_cell_bounds`, the chord-plus-curvature bound of one cell, against
    the tilted profile on 1,001 points inside each cell."""

    @pytest.mark.parametrize("bins", [2, 4, 8, 16])
    @pytest.mark.parametrize("jitter", [False, True], ids=["symmetric", "jittered"])
    @pytest.mark.parametrize("noise_variance", [1.0, 2.0])
    def test_dominates_profile_inside_cells(self, bins, jitter, noise_variance):
        rng = np.random.default_rng(100 * bins + 10 * jitter + int(noise_variance))
        thr = 1.5 * (np.arange(bins - 1) - (bins - 2) / 2.0)
        if jitter:
            thr = np.sort(thr + rng.normal(0.0, 0.3, thr.size))
        spec = ChannelSpec.from_snr_db(10.0, Quantizer(tuple(thr)), noise_variance)
        probs = rng.dirichlet(np.ones(bins))
        probs[rng.integers(bins)] = 1e-60  # a bin the law all but never uses
        out = OutputPmf(probs / probs.sum())
        gamma = rng.uniform(0.0, 0.5)
        # wide cells over the certificate's range, and a run of cells as
        # narrow as one to sixteen steps of its grid
        lo, hi = certificate_range(spec)
        step = (hi - lo) / (_CERT_POINTS - 1)
        run = rng.uniform(lo, hi) + step * np.cumsum(rng.integers(1, 17, 12))
        ends = np.unique(np.concatenate((rng.uniform(lo, hi, 30), run)))
        a, b = _evaluate(spec, out.probs, ends[:-1]), _evaluate(spec, out.probs, ends[1:])
        power = spec.power_constraint
        bound = _cell_bounds(
            a, b, _rounded_up(a, gamma, power), _rounded_up(b, gamma, power), gamma, spec.sigma
        )
        for xa, xb, cell in zip(ends[:-1], ends[1:], bound):
            inside = tilted_profile(spec, out, gamma, np.linspace(xa, xb, 1001))
            assert cell >= float(np.max(inside))


def fuzz_draw(index):
    """(snr_db, quantizer) of draw `index` of scripts/fuzz_solves.py."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        halves = np.sort(rng.uniform(0.2, 20.0, 3))
        snr_db = float(rng.uniform(-5.0, 20.0))
    return snr_db, Quantizer(tuple(np.concatenate([-halves[::-1], [0.0], halves])))


def certificate_case(case):
    if case == "tableI-30dB":
        spec = spec_db(30.0)
        return spec, _solved_output(spec)
    if case == "K16":
        spec = ChannelSpec.from_snr_db(40.0, WEAK_DUALITY_QUANTIZERS[2], noise_variance=2.0)
        return spec, _solved_output(spec)
    snr_db, quant = fuzz_draw(19)
    spec = spec_db(snr_db, quant)
    dist = optimize_input_cutting_plane(spec, grid=GridConfig(point_count=501)).dist
    w = bin_probability_matrix(dist.locations, quant.thresholds, spec.sigma)
    r = np.maximum(dist.masses @ w, 1e-300)
    return spec, OutputPmf(r / r.sum())


class TestCertificateProof:
    """`_certified_bound` against the tilted profile at its own multiplier:
    at least its maximum on a 10^6-point grid over the certificate's range,
    and within 1e-12 of that maximum, refined around the grid's best
    points."""

    @pytest.mark.parametrize("case", ["tableI-30dB", "fuzz-19", "K16"])
    def test_bounds_a_dense_grid_tightly(self, case, monkeypatch):
        spec, out = certificate_case(case)
        found = []
        envelope = bounds.minimize_max_affine

        def recorded(*args):
            found.append(envelope(*args))
            return found[-1]

        monkeypatch.setattr(bounds, "minimize_max_affine", recorded)
        cert = _certified_bound(spec, out)
        gamma = found[-1].gamma
        if case == "tableI-30dB":
            assert gamma == 0.0
        if case == "fuzz-19":
            assert np.min(out.probs) < 1e-60
        xs = np.linspace(*certificate_range(spec), 1_000_001)
        prof = np.concatenate([tilted_profile(spec, out, gamma, c) for c in np.array_split(xs, 10)])
        best = float(np.max(prof))
        assert cert >= best
        for i in np.flatnonzero(prof >= best - 1e-9)[:50]:
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
            for _ in range(3):  # 1,001 points over the two steps around the best
                local = np.linspace(a, b, 1001)
                vals = tilted_profile(spec, out, gamma, local)
                j = int(np.argmax(vals))
                best = max(best, float(vals[j]))
                a, b = local[max(j - 1, 0)], local[min(j + 1, 1000)]
        assert cert - best <= 1e-12


class TestBestSymmetricBound:
    """`duality_upper_bound`: the bound from the capacity solve's polished
    output law, for any quantizer."""

    def test_onebit_brackets_closed_form(self):
        # the only symmetric 2-bin output is (1/2, 1/2); the bound must pinch
        # the closed-form capacity from above
        spec = spec_db(0.0, Quantizer((0.0,)))
        bound, out = duality_upper_bound(spec)
        cap = onebit_capacity(1.0)
        assert out.probs == pytest.approx([0.5, 0.5])
        assert cap - 1e-9 <= bound <= cap + 2e-3
        assert bound == pytest.approx(0.3689172326, abs=2e-6)

    def test_twobit_reference_cells(self):
        # cells where the published values coincide with the exact optimum
        bound0, _ = duality_upper_bound(spec_db(0.0))
        assert bound0 == pytest.approx(0.4055, abs=3e-3)
        bound5, _ = duality_upper_bound(spec_db(5.0))
        assert bound5 == pytest.approx(0.8669, abs=3e-3)

    def test_twobit_exact_row_frozen(self):
        expect = {
            -5.0: 0.1547618838,
            0.0: 0.4046152188,
            5.0: 0.8668164301,
            10.0: 1.3798468037,
            15.0: 1.4838598315,
            20.0: 1.4838723116,
        }
        for db, val in expect.items():
            bound, out = duality_upper_bound(spec_db(db))
            assert bound == pytest.approx(val, abs=2e-5)
            assert out.probs[0] == pytest.approx(out.probs[3])
            assert out.probs[1] == pytest.approx(out.probs[2])

    def test_support_on_the_power_budget(self):
        # the joint 2-bit optimum at -10 dB: the solve is antipodal at
        # +/- sqrt(P), and the polish puts both points on x^2 = P exactly,
        # where blending a warm start onto the budget once divided by zero
        spec = ChannelSpec(1.0, 0.1, Quantizer((-0.9629701295720821, 0.0, 0.9629701295720821)))
        result = optimize_input_cutting_plane(spec)
        bound, out = duality_upper_bound(spec, result)
        assert result.capacity - 1e-9 <= bound <= result.capacity + 1e-6
        assert out.probs == pytest.approx(out.probs[::-1])

    def test_sandwiches_cutting_plane(self):
        for db in (0.0, 5.0, 15.0):
            spec = spec_db(db)
            bound, _ = duality_upper_bound(spec)
            mi = optimize_input_cutting_plane(spec).capacity
            assert bound >= mi - 1e-9
            assert bound - mi <= 0.031  # worst observed gap, high-SNR rows

    def test_eight_bin_sandwich(self):
        # K=8 has no published anchor; validate by the sandwich property only
        power = 1.0
        d = math.sqrt(3.0 * power / 63.0)
        quant = Quantizer(
            tuple(j * 2.0 * d for j in range(-3, 4))
        )
        spec = ChannelSpec(1.0, power, quant)
        bound, out = duality_upper_bound(spec)
        assert out.probs == pytest.approx(out.probs[::-1])
        mi = optimize_input_cutting_plane(spec).capacity
        # the bound is tight here (the optimal output is symmetric); its
        # inner sup is re-taken over continuous x, so it may not undershoot
        # MI by more than the solver tolerance
        assert bound >= mi - 1e-9
        assert bound <= 3.0

    def test_eightbit_row_frozen(self):
        # K=8 benchmark quantizers.  `old` are the values of the earlier
        # search over symmetric R, which the bound path must match or
        # tighten; `new` are the bound path's own values, each at least the
        # capacity that the cutting plane certifies on 8,001 points
        old = {
            -10.0: 0.05648406510508085,
            0.0: 0.47703737034744953,
            10.0: 1.5823718442059522,
            20.0: 2.8246795968106153,
        }
        new = {
            -10.0: 0.0564840642081916,
            0.0: 0.47703736447517087,
            10.0: 1.5823716847792322,
            20.0: 2.8246772563929006,
        }
        for db, val in new.items():
            spec = spec_db(db, BenchmarkScheme.build(8, 10.0 ** (db / 10.0)).quantizer)
            bound, out = duality_upper_bound(spec)
            assert out.probs == pytest.approx(out.probs[::-1])
            assert abs(bound - val) <= 1e-7
            assert bound <= old[db] + 1e-9
            fine = optimize_input_cutting_plane(spec, grid=GridConfig(point_count=8001))
            assert val >= fine.capacity - 1e-9

    @pytest.mark.parametrize("db", [-5.0, 5.0, 15.0])
    def test_twobit_search_reaches_scan_minimum(self, db):
        # oracle: the envelope minimum over a dense scan of the inner mass
        # alpha in R = (1/2 - alpha, alpha, alpha, 1/2 - alpha), on the
        # half-grid the search uses
        spec = spec_db(db)
        thr = spec.quantizer.thresholds
        half_grid = np.linspace(0.0, thr[-1] + 5.0 * spec.sigma, 4001)

        def grid_value(out):
            return grid_bound(spec, out, half_grid).value

        alphas = np.linspace(0.0, 0.5, 402)[1:-1]
        scan = np.array(
            [grid_value(OutputPmf([0.5 - a, a, a, 0.5 - a])) for a in alphas]
        )
        # the convexity the search relies on
        assert float(np.min(np.diff(scan, 2))) >= -1e-12
        _, out = duality_upper_bound(spec)
        assert 0.0 < out.probs[1] < 0.5
        assert grid_value(out) <= float(np.min(scan)) + 1e-10

    def test_asymmetric_quantizer_is_bounded(self):
        spec = ChannelSpec(1.0, 1.0, Quantizer((-1.0, 0.5)))
        bound, out = duality_upper_bound(spec)
        assert out.probs.size == 3
        assert bound >= optimize_input_cutting_plane(spec).capacity - 1e-9

    def test_ten_bin_quantizer_is_bounded(self):
        quant = Quantizer((-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0))
        spec = ChannelSpec(1.0, 1.0, quant)
        bound, out = duality_upper_bound(spec)
        assert out.probs.size == 10
        assert bound >= optimize_input_cutting_plane(spec).capacity - 1e-9

    @pytest.mark.parametrize("bins", [4, 8])
    @pytest.mark.parametrize("db", [30.0, 35.0, 40.0])
    def test_never_exceeds_log2_bins(self, bins, db):
        # the output carries at most log2 K bits; at high SNR the K-PAM
        # capacity approaches it, and the bound must not overshoot
        spec = spec_db(db, BenchmarkScheme.build(bins, 10.0 ** (db / 10.0)).quantizer)
        bound, _ = duality_upper_bound(spec)
        assert bound <= math.log2(bins) + 1e-9
