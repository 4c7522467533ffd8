"""Input-optimizer tests: closed form, cutting plane, tilted BA oracle.

The cutting plane and the tilted Blahut-Arimoto iteration are independent
routes to the same grid-restricted optimum: by strong duality the BA value
at the cutting plane's certified multiplier gamma* equals the capacity, and
the one-bit closed form anchors the cutting plane on single-threshold
channels.  The mass solve on a fixed support, _optimal_masses_rows, is checked
against an SLSQP oracle kept here for that purpose and its own KKT conditions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq, minimize
from scipy.special import xlogy

from quantcap import (
    BenchmarkScheme,
    ChannelSpec,
    GridConfig,
    CapacityResult,
    Quantizer,
    duality_upper_bound,
    minimize_max_affine,
    mutual_information,
    onebit_capacity,
    optimize_input_blahut_arimoto,
    optimize_input_cutting_plane,
)
from quantcap.channel import _row_negentropy_bits, bin_probability_matrix
from quantcap.optimize import _brent_root, _feasible_start, _optimal_masses_rows

TWOBIT = Quantizer((-2.0, 0.0, 2.0))
ONEBIT = Quantizer((0.0,))

# reduced grid for the fast paths; full default retained where a published
# support location is being resolved
FAST = GridConfig(point_count=501)

# Thresholds 0 and +/-2d matched to 4-PAM at +/-d, +/-3d with power 10^4
# (40 dB): the power constraint goes slack and capacity nears 2 bits.
_MATCHED_D = math.sqrt(3.0 * 10.0**4.0 / 15.0)
MATCHED = Quantizer((-2.0 * _MATCHED_D, 0.0, 2.0 * _MATCHED_D))


def spec_db(snr_db, quant=TWOBIT):
    return ChannelSpec.from_snr_db(snr_db, quant)


class TestGridConfig:
    def test_defaults_span_and_center(self):
        xs = GridConfig().points(4.0)
        assert xs.size == 2001
        assert xs[0] == pytest.approx(-20.0)
        assert xs[-1] == pytest.approx(20.0)
        assert 0.0 in xs

    def test_rejects_even_point_count(self):
        with pytest.raises(ValueError):
            GridConfig(point_count=1000)

    def test_rejects_tiny_point_count(self):
        with pytest.raises(ValueError):
            GridConfig(point_count=99)


class TestOnebitCapacity:
    def test_published_values(self):
        # 1 - h(Q(sqrt(snr))) at 0 and 10 dB, 4-decimal reference points
        assert onebit_capacity(1.0) == pytest.approx(0.3689, abs=5e-5)
        assert onebit_capacity(10.0) == pytest.approx(0.9908, abs=5e-5)

    def test_vanishes_at_zero_snr(self):
        assert onebit_capacity(1e-8) < 1e-7

    def test_saturates_at_one(self):
        assert 1.0 - onebit_capacity(1e4) < 1e-12
        assert onebit_capacity(1e4) <= 1.0

    @given(
        st.floats(min_value=-3.0, max_value=1.4),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_strictly_increasing(self, log_snr, bump):
        # stays below ~17 dB; past that the closed form saturates to 1.0
        # within double precision and strictness is unobservable
        lo = 10.0**log_snr
        assert onebit_capacity(lo * (1.0 + bump)) > onebit_capacity(lo)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            onebit_capacity(0.0)
        with pytest.raises(ValueError):
            onebit_capacity(-1.0)


def _divergences(w, p):
    """d_j = D(W_j || p W) in bits, computed directly from the rows."""
    r = p @ w
    return (xlogy(w, w).sum(axis=1) - xlogy(w, r).sum(axis=1)) / math.log(2.0)


def _slsqp_masses(w, xsq, power):
    """Independent oracle: SLSQP on the same concave program, from uniform.

    A result over the power budget is mixed toward the point mass at x = 0
    (always in the support here) until it is feasible.
    """
    m = xsq.size

    def negated(p):
        d = _divergences(w, p)
        return -float(p @ d), -(d - 1.0 / math.log(2.0))

    res = minimize(
        negated,
        np.full(m, 1.0 / m),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[
            {"type": "eq", "fun": lambda p: p.sum() - 1.0, "jac": lambda p: np.ones(m)},
            {"type": "ineq", "fun": lambda p: power - p @ xsq, "jac": lambda p: -xsq},
        ],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    p = np.clip(res.x, 0.0, None)
    p /= p.sum()
    excess = float(p @ xsq) - power
    if excess > 0.0:
        p *= 1.0 - excess / float(p @ xsq)
        p[np.flatnonzero(xsq == 0.0)[0]] += 1.0 - p.sum()
    return p


class TestOptimalMasses:
    @given(
        bins=st.sampled_from([2, 4, 8]),
        snr_db=st.floats(min_value=-15.0, max_value=20.0),
        jitter=st.booleans(),
        size=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_optimal_feasible_kkt_and_sparse(self, bins, snr_db, jitter, size, seed):
        rng = np.random.default_rng(seed)
        power = 10.0 ** (snr_db / 10.0)
        thr = np.asarray(BenchmarkScheme.build(bins, power).quantizer.thresholds)
        if jitter:
            thr = np.sort(thr + rng.normal(0.0, 0.3, thr.size))
            assume(np.all(np.diff(thr) > 1e-6))
        # x = 0 is always in the support, as the cutting plane's anchor is
        half = 3.0 * math.sqrt(power)
        xs = np.unique(np.concatenate([[0.0], rng.uniform(-half, half, size - 1)]))
        w = bin_probability_matrix(xs, thr, 1.0)
        negent = _row_negentropy_bits(w)
        xsq = xs**2

        p, mi = _optimal_masses_rows(w, negent, xsq, power)
        d = _divergences(w, p)
        assert mi == pytest.approx(float(p @ d), abs=1e-12)
        oracle = _slsqp_masses(w, xsq, power)
        assert mi >= float(oracle @ _divergences(w, oracle)) - 1e-10
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0.0)
        assert p @ xsq <= power * (1.0 + 1e-12)
        # KKT with nu = I - gamma P: d_j - gamma x_j^2 - nu <= 0 everywhere,
        # with equality on the support
        gamma = minimize_max_affine(d, power - xsq).gamma
        slack = d + gamma * (power - xsq) - mi
        assert np.max(slack) <= 1e-9
        assert np.all(np.abs(slack[p > 1e-12]) <= 1e-9)
        assert np.sum(p > 1e-12) <= bins + 1

        start = rng.random(xs.size)
        _, mi_warm = _optimal_masses_rows(w, negent, xsq, power, start=start)
        assert mi_warm == pytest.approx(mi, abs=1e-12)

    def test_start_on_the_budget_matches_the_cold_solve(self):
        # dyadic masses and x^2: the first start spends the budget exactly,
        # the second exceeds it and is blended onto it, so both solves
        # start on the power face
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = bin_probability_matrix(xs, (-1.0, 0.0, 1.0), 1.0)
        negent = _row_negentropy_bits(w)
        _, cold = _optimal_masses_rows(w, negent, xs**2, 1.0)
        for start in ([0.0625, 0.25, 0.375, 0.25, 0.0625], [0.25, 0.25, 0.0, 0.25, 0.25]):
            assert np.asarray(start) @ xs**2 >= 1.0
            p, mi = _optimal_masses_rows(w, negent, xs**2, 1.0, start=start)
            assert mi == pytest.approx(cold, abs=1e-12)
            assert p @ xs**2 <= 1.0 + 1e-12

    def test_far_support_takes_the_svd_step(self, monkeypatch):
        # fuzz draw 19 of 300: +/- sqrt(P) with the grid points +/- 20.63,
        # whose outer bins no other point reaches.  Their 1/R curvature
        # spreads the Cholesky factor's diagonal past its tolerance, so some
        # Newton steps are taken from the SVD of a face with fewer free
        # directions than bins.
        from quantcap import optimize

        narrow = []
        svd = optimize.dgesdd

        def counted(a, *args, **kwargs):
            narrow.append(a.shape[1] < a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(optimize, "dgesdd", counted)
        power = 10.0 ** (6.5011284827274025 / 10.0)
        half = [12.48022634990448, 18.989084763767753, 19.902910803659417]
        thr = [-t for t in reversed(half)] + [0.0] + half
        far = 20.630333175956636  # the 501-point grid point nearest 20.63
        xs = np.array([-far, -math.sqrt(power), 0.0, math.sqrt(power), far])
        w = bin_probability_matrix(xs, thr, 1.0)
        p, mi = _optimal_masses_rows(w, _row_negentropy_bits(w), xs**2, power)
        assert any(narrow)
        assert mi == pytest.approx(float(p @ _divergences(w, p)), abs=1e-12)
        oracle = _slsqp_masses(w, xs**2, power)
        assert mi >= float(oracle @ _divergences(w, oracle)) - 1e-10
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p @ xs**2 <= power * (1.0 + 1e-12)

    def test_no_pivot_along_a_direction_that_moves_r(self, monkeypatch):
        # In _rounding_pivot_face the SVD's last singular value is 0.0, but
        # R moves by 0.70 along its direction: a pivot there took I from
        # 0.99773 to 1.1e-5 bits, and the Newton steps climbed back until
        # the step cap forced the careful rerun.  No step may lower I, no
        # rerun is needed, and the warm start reaches the cold optimum.
        from quantcap import optimize

        w, negent, xs, power, start = _rounding_pivot_face()
        _, cold = _optimal_masses_rows(w, negent, xs**2, power)
        values, careful = [], []
        point, solve = optimize._mass_point, optimize._optimal_masses_rows

        def recorded(*args):
            found = point(*args)
            values.append(found[2])
            return found

        def rerun(*args):
            careful.append(args[5:] == (True,))
            return solve(*args)

        monkeypatch.setattr(optimize, "_mass_point", recorded)
        monkeypatch.setattr(optimize, "_optimal_masses_rows", rerun)
        p, mi = solve(w, negent, xs**2, power, start=start)
        assert min(values) >= values[0] - 1e-12
        assert not any(careful)
        assert mi == pytest.approx(cold, abs=1e-12)
        assert p @ xs**2 <= power * (1.0 + 1e-12)

    def test_degenerate_face_terminates_at_antipodal_optimum(self):
        # One threshold (K = 2) and seven points: every face with more than
        # three free points is degenerate, and the optimum is antipodal
        # signaling at +/- sqrt(P) with the power constraint binding.
        xs = np.array([-2.0, -1.5, -1.0, 0.0, 1.0, 1.5, 2.0])
        w = bin_probability_matrix(xs, (0.0,), 1.0)
        p, mi = _optimal_masses_rows(w, _row_negentropy_bits(w), xs**2, 1.0)
        assert mi == pytest.approx(onebit_capacity(1.0), abs=1e-12)
        np.testing.assert_allclose(p, [0, 0, 0.5, 0, 0.5, 0, 0], atol=1e-12)
        assert p @ xs**2 == pytest.approx(1.0, abs=1e-12)

    def test_one_point_carries_all_mass_and_no_information(self):
        w = bin_probability_matrix(np.array([0.5]), (0.0,), 1.0)
        p, mi = _optimal_masses_rows(w, _row_negentropy_bits(w), np.array([0.25]), 1.0)
        assert p.tolist() == [1.0] and mi == 0.0

    def test_start_over_the_budget_by_rounding_alone_is_renormalized(self):
        # both points sit within the budget, yet their masses spend it
        # 1.8e-15 over, so the blend toward the points inside has no slope
        # to follow and the restriction itself is the start
        power, x = 13.981072187915954, 3.73912719600657
        p = np.array([0.4449245312028365, 0.5550754687971636])
        xsq = np.array([x * x, x * x])
        assert np.all(xsq <= power) and p @ xsq > power
        assert np.array_equal(_feasible_start(p, xsq, power), p / p.sum())

    def test_iteration_cap_raises(self, monkeypatch):
        from quantcap import optimize

        monkeypatch.setattr(optimize, "_NEWTON_MAX_ITER", 2)
        xs = np.array([-2.0, -1.5, -1.0, 0.0, 1.0, 1.5, 2.0])
        w = bin_probability_matrix(xs, (0.0,), 1.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            _optimal_masses_rows(w, _row_negentropy_bits(w), xs**2, 1.0)


def _rounding_pivot_face():
    """(w, negent, xs, power, start) of a warm mass solve from fuzz draw 227
    of 300 (11.1 dB): +/- 21.0 alone reach the outer bins, so when one joins
    at zero mass, R there is near 1e-56 and its row of B scales to 1e28."""
    half = [5.958832341136689, 7.846845054073446, 19.344196661448674]
    thr = [-t for t in reversed(half)] + [0.0] + half
    outer, root_p, inner = 20.99862816588685, 3.5956555078573373, 0.5753048812571748
    xs = np.array([-outer, -root_p, -inner, 0.0, inner, root_p, outer])
    power = 12.928738531184807
    start = [6.560322519414706e-10, 0.49999998366297516, 2.2288938142013917e-08, 0.0]
    start += [1e-3, 0.49999999339205436, 1e-3]
    w = bin_probability_matrix(xs, thr, 1.0)
    return w, _row_negentropy_bits(w), xs, power, start


def _fuzz_thresholds(bins, symmetric, half, signed):
    """Symmetric: 0 and +/- the first (K - 2)/2 of `half`; else the first
    K - 1 of `signed`, sorted."""
    if symmetric:
        pos = sorted(half[: (bins - 2) // 2])
        return tuple([-t for t in reversed(pos)] + [0.0] + pos)
    return tuple(sorted(signed[: bins - 1]))


class TestFarThresholds:
    """Quantizers with thresholds up to 20 sigma: a bin that only a far,
    near-empty point reaches has R near 0, the case the mass solve's careful
    mode is for."""

    @given(
        bins=st.sampled_from([2, 4, 8]),
        symmetric=st.booleans(),
        snr_db=st.floats(min_value=-5.0, max_value=20.0),
        half=st.lists(st.floats(min_value=0.2, max_value=20.0), min_size=3, max_size=3),
        signed=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=7, max_size=7),
        drop=st.integers(min_value=0, max_value=6),
    )
    # draw 7 of 300 on default_rng(0): SNR uniform on -5..20 dB and
    # half-thresholds uniform on (0.2, 20)
    @example(
        bins=8,
        symmetric=True,
        snr_db=4.723035599477594,
        half=[13.079093670102763, 13.773731292717756, 13.831245265304613],
        signed=[0.0] * 7,
        drop=0,
    )
    @example(
        bins=8, symmetric=True, snr_db=12.0, half=[7.07, 7.96, 20.0], signed=[0.0] * 7, drop=3
    )
    # draw 104 of 300: the join step's line search has its root near 0, at
    # 3.4e-19 after up to 98 root-search steps
    @example(
        bins=8,
        symmetric=True,
        snr_db=3.9091136594142863,
        half=[12.70353204178001, 15.609314876818178, 17.792099760847705],
        signed=[0.0] * 7,
        drop=0,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_solves_bound_and_merge_consistently(
        self, bins, symmetric, snr_db, half, signed, drop
    ):
        thr = _fuzz_thresholds(bins, symmetric, half, signed)
        assume(np.all(np.diff(thr) > 1e-3))
        spec = spec_db(snr_db, Quantizer(thr))
        full = optimize_input_cutting_plane(spec, grid=FAST)
        assert 0.0 <= full.capacity <= full.upper_bound + 1e-12
        bound, _ = duality_upper_bound(spec, full)
        assert bound >= full.capacity - 1e-9
        if bins > 2:
            # data processing: merging two bins cannot raise the capacity
            merged_thr = thr[: drop % len(thr)] + thr[drop % len(thr) + 1 :]
            merged = optimize_input_cutting_plane(spec_db(snr_db, Quantizer(merged_thr)), grid=FAST)
            assert merged.capacity <= bound + 1e-9

    def test_cycling_solve_stops_unconverged_early(self):
        # draw 19 of 300: every round re-adds the grid point near 20.6,
        # whose divergence is about 222 bits, and the mass solve gives it
        # zero mass; the rounds repeat, so the loop stops at the first repeat
        from quantcap import optimize

        half = [12.48022634990448, 18.989084763767753, 19.902910803659417]
        thr = _fuzz_thresholds(8, True, half, None)
        res = optimize_input_cutting_plane(spec_db(6.5011284827274025, Quantizer(thr)), grid=FAST)
        assert not res.converged
        assert res.iterations < optimize._CUT_MAX_ITER
        assert res.capacity == pytest.approx(0.8741882801780686, abs=1e-12)

    def test_unconverged_bound_uses_the_best_law_of_the_cycle(self):
        # draw 156 of 300 stops at its first repeated round; the last
        # round's output law certifies only 0.9359 bits, a lower-envelope
        # round of the same cycle under 0.72
        half = [3.4460645335149547, 13.848174391217645, 15.049123848539043]
        thr = _fuzz_thresholds(8, True, half, None)
        res = optimize_input_cutting_plane(spec_db(3.890927159544649, Quantizer(thr)), grid=FAST)
        assert not res.converged
        assert res.capacity == pytest.approx(0.712131225088277, abs=1e-12)
        assert res.capacity <= res.upper_bound < 0.72


def _traced_root(search, f, *args, **kwargs):
    """(root, points evaluated) of one root search on f."""
    seen = []

    def g(t):
        seen.append(t)
        return f(t)

    return search(g, *args, **kwargs), seen


def _monotone(rng):
    """A random monotone function on [0, 1] with a root in it, often near 0."""
    s = 10.0 ** rng.uniform(-2.0, 3.0)
    g = [
        lambda t: t ** (1.0 + s % 5.0),
        lambda t: math.expm1(min(s, 700.0) * t),
        lambda t: math.log1p(s * t),
        lambda t: math.tanh(s * (t - 0.5)),
        lambda t: t + 0.9 * math.sin(5.0 * t) / 5.0,
    ][rng.integers(5)]
    root = 10.0 ** rng.uniform(-30.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    g_root = g(root)
    return lambda t: sign * (g(t) - g_root)


class TestBrentRoot:
    """The join step's root search repeats scipy's brentq (xtol 1e-300,
    disp=False) bit for bit: the same iterates and the same root."""

    @staticmethod
    def assert_same_search(f, a, b, xtol=1e-300):
        # the end values go through the traced function too, in brentq's order
        ours = _traced_root(lambda g: _brent_root(g, a, b, g(a), g(b), xtol), f)
        theirs = _traced_root(brentq, f, a, b, xtol=xtol, disp=False)
        assert ours == theirs

    def test_random_monotone_functions(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            self.assert_same_search(_monotone(rng), 0.0, 1.0)

    @pytest.mark.parametrize("xtol", [1e-12, 1e-3])
    def test_coarser_tolerances(self, xtol):
        rng = np.random.default_rng(8)
        for _ in range(50):
            self.assert_same_search(_monotone(rng), 0.0, 1.0, xtol)

    @pytest.mark.parametrize("f, root", [(lambda t: t - 1.0, 1.0), (lambda t: -t, 0.0)])
    def test_root_at_either_end(self, f, root):
        assert _brent_root(f, 0.0, 1.0, f(0.0), f(1.0), 1e-300) == root
        self.assert_same_search(f, 0.0, 1.0)

    def test_rejects_a_bracket_without_a_sign_change(self):
        with pytest.raises(ValueError):
            _brent_root(lambda t: t + 1.0, 0.0, 1.0, 1.0, 2.0, 1e-300)

    @pytest.mark.parametrize(
        "snr_db, half, unconverged",
        [
            # draw 104 of 300 (see TestFarThresholds)
            (3.9091136594142863, [12.70353204178001, 15.609314876818178, 17.792099760847705], 0),
            # draw 167 of 300: two of its roots lie past 100 steps, so both
            # searches return their last iterate
            (6.471514224539575, [6.02840239897282, 8.514392857810984, 19.252775619312136], 2),
        ],
        ids=["draw-104", "draw-167"],
    )
    def test_join_steps_of_fuzz_draws(self, monkeypatch, snr_db, half, unconverged):
        from quantcap import optimize

        searches = []

        def recorded(f, a, b, fa, fb, xtol):
            assert (fa, fb) == (f(a), f(b))
            searches.append((f, a, b, xtol))
            return _brent_root(f, a, b, fa, fb, xtol)

        monkeypatch.setattr(optimize, "_brent_root", recorded)
        thr = _fuzz_thresholds(8, True, half, None)
        optimize_input_cutting_plane(spec_db(snr_db, Quantizer(thr)), grid=FAST)
        assert searches
        past = 0
        for f, a, b, xtol in searches:
            self.assert_same_search(f, a, b, xtol)
            past += not brentq(f, a, b, xtol=xtol, disp=False, full_output=True)[1].converged
        assert past == unconverged

    def test_join_step_evaluates_no_point_twice(self, monkeypatch):
        # fuzz draw 104: each root search takes the slope's end values from
        # the join step instead of evaluating both ends again
        from quantcap import optimize

        join, divergences = optimize._join_step, optimize._divergences_bits
        steps, points = [], None  # the output laws of each join step's slopes

        def traced_join(*args):
            nonlocal points
            points = []
            try:
                return join(*args)
            finally:
                steps.append(points)
                points = None

        def traced_divergences(w, negent, r):
            if points is not None:
                points.append(r.tobytes())
            return divergences(w, negent, r)

        monkeypatch.setattr(optimize, "_join_step", traced_join)
        monkeypatch.setattr(optimize, "_divergences_bits", traced_divergences)
        half = [12.70353204178001, 15.609314876818178, 17.792099760847705]
        thr = _fuzz_thresholds(8, True, half, None)
        optimize_input_cutting_plane(spec_db(3.9091136594142863, Quantizer(thr)), grid=FAST)
        assert any(len(points) > 2 for points in steps), "draw 104 took no root search"
        assert all(len(set(points)) == len(points) for points in steps)


class TestCapacityResultValidation:
    def test_rejects_capacity_above_certificate(self):
        from quantcap import InputDistribution

        dist = InputDistribution([0.0], [1.0])
        with pytest.raises(ValueError):
            CapacityResult(
                capacity=1.0,
                dist=dist,
                gamma=0.0,
                upper_bound=0.5,
                iterations=1,
            )

    def test_rejects_negative_gamma(self):
        from quantcap import InputDistribution

        dist = InputDistribution([0.0], [1.0])
        with pytest.raises(ValueError):
            CapacityResult(
                capacity=0.1,
                dist=dist,
                gamma=-1e-3,
                upper_bound=1.0,
                iterations=1,
            )


class TestCuttingPlane:
    def test_reference_mi_at_0db(self):
        res = optimize_input_cutting_plane(spec_db(0.0))
        assert res.converged
        assert res.capacity == pytest.approx(0.4046, abs=5e-3)

    def test_reference_mi_and_support_at_5db(self):
        res = optimize_input_cutting_plane(spec_db(5.0))
        assert res.converged
        assert res.capacity == pytest.approx(0.8668, abs=5e-3)
        locs = np.sort(res.dist.locations)
        assert locs.size == 4
        assert locs == pytest.approx([-2.86, -0.52, 0.52, 2.86], abs=0.05)

    def test_certificate_fields(self):
        res = optimize_input_cutting_plane(spec_db(5.0), grid=FAST, tol=1e-4)
        assert res.capacity <= res.upper_bound + 1e-9
        assert res.kkt_max_violation <= 1e-4 + 1e-12
        x, p = res.dist.locations, res.dist.masses
        assert p @ x**2 <= spec_db(5.0).power_constraint + 1e-9

    def test_matches_onebit_closed_form(self):
        for snr_db in (-5.0, 0.0, 10.0):
            spec = spec_db(snr_db, ONEBIT)
            res = optimize_input_cutting_plane(spec, grid=FAST)
            assert res.capacity == pytest.approx(
                onebit_capacity(10.0 ** (snr_db / 10.0)), abs=2e-3
            )
            locs = np.sort(res.dist.locations)
            root_p = math.sqrt(spec.power_constraint)
            # antipodal signaling at +/- sqrt(P), up to grid resolution
            assert locs == pytest.approx(
                [-root_p, root_p], abs=3 * 20 * root_p / 500
            )

    def test_symmetry_and_cardinality(self):
        for snr_db in (-5.0, 5.0, 15.0):
            res = optimize_input_cutting_plane(spec_db(snr_db), grid=FAST)
            x, p = res.dist.locations, res.dist.masses
            assert np.abs(x + x[::-1]).max() <= 1e-8 * max(1.0, np.abs(x).max())
            assert np.abs(p - p[::-1]).max() <= 1e-8
            assert x.size <= len(TWOBIT.thresholds) + 2  # K + 1 points

    def test_grid_widening_is_inert(self, monkeypatch):
        # same spacing, wider reach: the optimizer must land on the same support
        from quantcap import optimize

        base = optimize_input_cutting_plane(
            spec_db(5.0), grid=GridConfig(point_count=2001), tol=1e-6
        )
        monkeypatch.setattr(optimize, "_GRID_HALF_WIDTH", 15.0)
        wide = optimize_input_cutting_plane(
            spec_db(5.0), grid=GridConfig(point_count=3001), tol=1e-6
        )
        assert wide.capacity == pytest.approx(base.capacity, abs=1e-6)

    def test_scale_invariance(self):
        base = optimize_input_cutting_plane(spec_db(5.0), grid=FAST, tol=1e-6)
        for ratio in (0.25, 9.0):
            scaled_quant = Quantizer(tuple(t * math.sqrt(ratio) for t in TWOBIT.thresholds))
            scaled = ChannelSpec(
                noise_variance=ratio,
                power_constraint=spec_db(5.0).power_constraint * ratio,
                quantizer=scaled_quant,
            )
            res = optimize_input_cutting_plane(scaled, grid=FAST, tol=1e-6)
            assert res.capacity == pytest.approx(base.capacity, abs=1e-8)

    @pytest.mark.parametrize("noise_variance", [1e-300, 1e300])
    def test_extreme_noise_variance_solves_the_unit_channel(self, noise_variance):
        # The channel depends on x and the thresholds only through their
        # ratio to sigma.  At sigma^2 = 1e-300 the slopes P - x^2 (about
        # 1e-299) left the envelope's bracket without a rising line, and
        # the solve stopped unconverged at 1.0447 bits.
        sigma = math.sqrt(noise_variance)
        quantizer = BenchmarkScheme.build(4, 10.0).quantizer
        unit = ChannelSpec.from_snr_db(10.0, quantizer)
        scaled = Quantizer(tuple(t * sigma for t in quantizer.thresholds))
        spec = ChannelSpec.from_snr_db(10.0, scaled, noise_variance)
        ref, res = (optimize_input_cutting_plane(s, grid=FAST) for s in (unit, spec))
        assert res.converged
        assert res.capacity == pytest.approx(ref.capacity, abs=1e-12)
        assert res.upper_bound == pytest.approx(ref.upper_bound, abs=1e-12)
        np.testing.assert_allclose(res.dist.locations / sigma, ref.dist.locations, rtol=1e-12)
        np.testing.assert_allclose(res.dist.masses, ref.dist.masses, rtol=1e-12)
        assert res.gamma * noise_variance == pytest.approx(ref.gamma, rel=1e-12)
        bound, out = duality_upper_bound(spec, res)
        ref_bound, ref_out = duality_upper_bound(unit, ref)
        assert bound == pytest.approx(ref_bound, abs=1e-12)
        np.testing.assert_allclose(out.probs, ref_out.probs, rtol=1e-12)

    def test_monotone_in_snr(self):
        caps = [
            optimize_input_cutting_plane(spec_db(db), grid=FAST).capacity
            for db in np.linspace(-20.0, 18.0, 20)
        ]
        assert np.all(np.diff(caps) > -1e-9)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            optimize_input_cutting_plane(spec_db(0.0), tol=0.0)

    def test_to_text_roundtrips_numbers(self):
        res = optimize_input_cutting_plane(spec_db(0.0), grid=FAST)
        text = res.to_text()
        fields = dict(
            line.split(" ", 1) for line in text.strip().splitlines()
            if not line.startswith("point")
        )
        assert float(fields["capacity"]) == res.capacity
        assert float(fields["gamma"]) == res.gamma
        points = [line for line in text.splitlines() if line.startswith("point")]
        assert len(points) == res.dist.locations.size


class TestBlahutArimoto:
    def test_peak_constrained_masses_go_to_extremes(self):
        # with no power tilt and a grid clipped at +/- 10 sqrt(P) = +/- 1, all
        # mass runs to the edge of the peak constraint (MI is even and grows
        # in |x|)
        spec = ChannelSpec(1.0, 1.0 / 100.0, ONEBIT)
        dist, value = optimize_input_blahut_arimoto(
            spec, grid=GridConfig(point_count=201), gamma=0.0, tol=1e-10
        )
        edge = 10.0 * math.sqrt(spec.power_constraint)
        mass_at_edges = sum(
            m for x, m in zip(dist.locations, dist.masses) if abs(abs(x) - edge) < 1e-9
        )
        assert mass_at_edges > 0.999

    def test_huge_gamma_collapses_to_origin(self):
        spec = spec_db(0.0)
        dist, value = optimize_input_blahut_arimoto(
            spec, grid=FAST, gamma=1e3, tol=1e-10
        )
        mi = mutual_information(dist, spec)
        center = sum(
            m for x, m in zip(dist.locations, dist.masses) if abs(x) < 0.05
        )
        assert center > 0.999
        assert mi < 1e-3

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            optimize_input_blahut_arimoto(spec_db(0.0), gamma=-1.0, tol=1e-5)

    def test_rejects_bad_tol_and_max_iter(self):
        for kwargs in (
            {"tol": 0.0},
            {"tol": math.inf},
            {"tol": math.nan},
            {"tol": 1e-5, "max_iter": 0},
        ):
            with pytest.raises(ValueError):
                optimize_input_blahut_arimoto(spec_db(0.0), grid=FAST, **kwargs)

    def test_tol_is_required(self):
        with pytest.raises(TypeError, match="tol"):
            optimize_input_blahut_arimoto(spec_db(0.0), grid=FAST, gamma=1e3)

    def test_iteration_cap_raises(self, monkeypatch):
        # every evaluation computes the divergence profile once
        from quantcap import optimize

        kernel = optimize._divergences_bits
        calls = []

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(optimize, "_divergences_bits", counted)
        with pytest.raises(RuntimeError, match="did not converge in 5 evaluations"):
            optimize_input_blahut_arimoto(
                spec_db(0.0), grid=FAST, gamma=1e3, tol=1e-10, max_iter=5
            )
        assert len(calls) == 5

    @pytest.mark.parametrize(
        "snr_db, quant, grid, reference",
        [
            pytest.param(0.0, ONEBIT, FAST, 0.3689, id="onebit-0dB"),
            pytest.param(0.0, TWOBIT, FAST, 0.4046, id="twobit-0dB"),
            pytest.param(5.0, TWOBIT, None, None, id="twobit-5dB-default-grid"),
            pytest.param(40.0, TWOBIT, FAST, 1.483872, id="twobit-40dB"),
            pytest.param(40.0, MATCHED, FAST, None, id="matched-40dB"),
        ],
    )
    def test_ba_value_at_certified_multiplier_is_capacity(
        self, snr_db, quant, grid, reference
    ):
        # Strong duality: max_F I(F) - gamma* (E[X^2] - P) = C at the optimal
        # multiplier gamma*, so one BA run at the cutting plane's gamma*
        # checks both its capacity and its multiplier; any other gamma
        # leaves the BA value above C when gamma* > 0.
        spec = spec_db(snr_db, quant)
        cp = optimize_input_cutting_plane(spec, grid=grid)
        assert cp.converged
        _, value = optimize_input_blahut_arimoto(spec, grid=grid, gamma=cp.gamma, tol=1e-5)
        assert abs(value - cp.capacity) <= 1e-4
        if reference is not None:
            assert cp.capacity == pytest.approx(reference, abs=2e-3)
        if snr_db == 40.0:
            # the power constraint is slack: the multiplier vanishes
            assert cp.gamma < 1e-6
        if quant is MATCHED:
            assert cp.capacity > 2.0 - 1e-4
