"""Joint quantizer/input optimization and the uniform-PAM benchmark.

Three layers:

* the benchmark scheme (equiprobable equispaced PAM with mid-point
  thresholds), whose mutual information, symbol error rate, and Fano floor
  have closed or near-closed forms;
* a 12-point scan over (0, 2 max(sqrt(P), sigma)] of the single free
  threshold q of a symmetric 2-bit quantizer, refined at its near-best
  peaks by a bounded Brent search, the capacity curve C(q) over
  twice that span, and for 3-bit an alternation of input solves with a
  damped Newton threshold step on the exact gradient and Hessian at the
  fixed input, read from `channel._profile`; `optimize_quantizer(snr,
  bins)` is the one entry that picks the search by bin count, and one
  `_solve` runs every input solve of both searches;
* the unquantized baseline, and the SNR at which a capacity reaches a
  target spectral efficiency, by Newton's method on the power multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelSpec,
    InputDistribution,
    Quantizer,
    mutual_information,
    _profile,
    _threshold_hessian_bits,
)
from .optimize import (
    CapacityResult,
    GridConfig,
    _DEFAULT_TOL,
    optimize_input_cutting_plane,
)
from .special import binary_entropy, gaussian_q

# The grid of every inner solve of the joint searches and of the C(q) curve.
_SCAN_GRID = GridConfig(point_count=501)

# The 2-bit scan's points, and its span in units of max(sqrt(P), sigma).
# From -30 to 40 dB in 0.25-dB steps, every scan peak within _PEAK_WINDOW
# of the best lies at q <= 1.33 max(sqrt(P), sigma), so a span of 2 loses
# no refined peak.  The C(q) curve samples _CURVE_SPAN at _CURVE_POINTS.
_SCAN_POINTS = 12
_SCAN_SPAN = 2.0
_CURVE_POINTS = 200
_CURVE_SPAN = 4.0

# Scan peaks within this many bits of the best scanned capacity are refined.
_PEAK_WINDOW = 2e-3

# The 3-bit alternation stops when a round gains less than _MIN_ROUND_GAIN
# bits, or after _MAX_OUTER rounds.
_MIN_ROUND_GAIN = 1e-4
_MAX_OUTER = 50

# The threshold step's smallest gap between neighbouring half-thresholds,
# in units of sigma; its stop on |dMI/d gap|, in bits per sigma; its step
# cap; how often it may halve one step; and MI's rounding error in bits.
_MIN_GAP = 1e-6
_STEP_GTOL = 1e-9
_STEP_MAX_ITER = 50
_STEP_HALVINGS = 30
_STEP_ROUNDING = 1e-13
_EPS = float(np.finfo(float).eps)


def _check_k(k):
    if k not in (2, 4, 8):
        raise ValueError(f"bin count must be one of 2, 4, 8, got {k!r}")


def _check_snr(snr):
    if not math.isfinite(snr) or snr <= 0.0:
        raise ValueError(f"snr must be finite and > 0, got {snr!r}")


@dataclass(frozen=True)
class BenchmarkScheme:
    """Equiprobable K-PAM input with mid-point hard-decision thresholds.

    The constellation is +/-d, +/-3d, ..., +/-(K-1)d with d = sqrt(3P/(K^2-1)),
    which makes E[X^2] = P exactly; the thresholds sit halfway between
    neighboring points, i.e. at 0, +/-2d, ..., +/-(K-2)d.  Quantizing with
    those thresholds is the same operation as ML symbol detection, so the
    scheme's mutual information *is* its hard-decision rate.
    """

    snr: float
    noise_variance: float
    input: InputDistribution
    quantizer: Quantizer

    @classmethod
    def build(cls, bins: int, snr: float, noise_variance: float = 1.0) -> "BenchmarkScheme":
        _check_k(bins)
        _check_snr(snr)
        power = snr * noise_variance
        d = math.sqrt(3.0 * power / (bins * bins - 1))
        locations = np.array([(2 * j - bins - 1) * d for j in range(1, bins + 1)])
        masses = np.full(bins, 1.0 / bins)
        thresholds = tuple((2 * j - bins) * d for j in range(1, bins))
        return cls(
            snr=snr,
            noise_variance=noise_variance,
            input=InputDistribution(locations, masses),
            quantizer=Quantizer(thresholds),
        )

    @property
    def spec(self) -> ChannelSpec:
        return ChannelSpec(
            self.noise_variance, self.snr * self.noise_variance, self.quantizer
        )


def benchmark_mutual_information(bins: int, snr: float) -> float:
    """Mutual information in bits of the K-PAM benchmark pair, which depends
    on the SNR alone."""
    scheme = BenchmarkScheme.build(bins, snr)
    return mutual_information(scheme.input, scheme.spec)


def benchmark_error_probability(bins: int, snr: float) -> float:
    """Symbol error rate of ML hard decisions on the benchmark scheme.

    Every interior point has two decision boundaries at distance d, the two
    edge points one, giving 2 (K-1)/K Q(d/sigma) with d/sigma =
    sqrt(3 snr/(K^2-1)).
    """
    if bins < 2:
        raise ValueError(f"bin count must be >= 2, got {bins!r}")
    _check_snr(snr)
    return 2.0 * (bins - 1) / bins * gaussian_q(math.sqrt(3.0 * snr / (bins * bins - 1)))


def benchmark_fano_lower_bound(bins: int, snr: float) -> float:
    """Fano floor on the benchmark's hard-decision rate, clamped at zero.

    log2 K - h(Pe) - Pe log2(K-1).  Never exceeds the benchmark mutual
    information; for K = 2 the hard-decision channel is a binary symmetric
    channel with equiprobable inputs, so the floor meets it exactly.
    """
    pe = benchmark_error_probability(bins, snr)
    value = math.log2(bins) - binary_entropy(pe) - pe * math.log2(bins - 1)
    return max(value, 0.0)


@dataclass(frozen=True)
class JointResult:
    """A quantizer choice together with its optimized-input capacity.

    `trace` records the capacity after each outer round of the 3-bit
    alternation, or the final capacity alone for the 2-bit scan.
    """

    quantizer: Quantizer
    capacity_result: CapacityResult
    trace: tuple

    def __post_init__(self):
        # optimize_quantizer_3bit_iterative discards any round whose capacity
        # falls, so its trace is nondecreasing by construction; this
        # structural check allows 1e-6 for traces built elsewhere.
        for prev, nxt in zip(self.trace, self.trace[1:]):
            if nxt < prev - 1e-6:
                raise ValueError(f"trace decreased: {prev!r} -> {nxt!r}")

    def to_text(self) -> str:
        lines = [f"threshold {t:.16e}" for t in self.quantizer.thresholds]
        return "\n".join(lines) + "\n" + self.capacity_result.to_text()


def _thresholds(halves):
    """The symmetric thresholds -h[::-1], 0, h of the positive
    half-thresholds h, as an array."""
    h = np.asarray(halves, dtype=float)
    return np.concatenate([-h[::-1], [0.0], h])


def _solve(halves, power, noise_variance, tol, seed, grid=_SCAN_GRID):
    """Input solve of the symmetric quantizer with the positive
    half-thresholds `halves`, seeded with the support `seed`; a grid of
    None is the default grid."""
    spec = ChannelSpec(noise_variance, power, Quantizer(tuple(_thresholds(halves))))
    return optimize_input_cutting_plane(spec, grid=grid, tol=tol, initial_support=seed)


def _warm_solves(qs, power, noise_variance, tol, seed=None):
    """The solve of {-q, 0, q} at each q in turn, each seeded with the
    previous support."""
    for q in qs:
        res = _solve([q], power, noise_variance, tol, seed)
        seed = res.dist.locations
        yield res


def _bounded_brent(f, lo, hi, xatol):
    """(x, f(x)) of Brent's bounded minimization of f on [lo, hi]: golden
    section with parabolic steps (Brent, Algorithms for Minimization without
    Derivatives, 1973), stopping once x is known within about xatol or
    after 500 evaluations.  It repeats scipy's minimize_scalar(method=
    "bounded") operation for operation, so every iterate is the same
    double."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def optimize_quantizer_2bit(
    snr: float,
    *,
    noise_variance: float = 1.0,
    tol: float = _DEFAULT_TOL,
) -> JointResult:
    """Best symmetric 2-bit quantizer {-q, 0, q} by threshold scan.

    Scans 12 equispaced q over (0, 2 max(sqrt(P), sigma)], solving the inner
    input problem at each point with the previous support as seed.  While
    the best scanned value is the last point, the scan extends past it at
    the same step, so the winner is never on the scan edge.  The capacity is
    multimodal in q, and the optimum jumps between branches as the SNR
    moves, so every local maximum of the scan within 2e-3 bits of the best
    is refined by `_bounded_brent` (golden section with parabolic steps)
    on its bracket of scan neighbours, with xatol
    1e-3 max(sqrt(P), sigma), seeded with that point's support; the best
    refined peak wins, ties toward the smaller threshold.
    """
    _check_snr(snr)
    power = snr * noise_variance
    scale = max(math.sqrt(power), math.sqrt(noise_variance))
    qs = np.linspace(0.0, _SCAN_SPAN * scale, _SCAN_POINTS + 1)[1:].tolist()
    scanned = list(_warm_solves(qs, power, noise_variance, tol))
    step = qs[-1] - qs[-2]
    while scanned[-1].capacity > max(res.capacity for res in scanned[:-1]):
        qs.append(qs[-1] + step)
        scanned.extend(
            _warm_solves(qs[-1:], power, noise_variance, tol, scanned[-1].dist.locations)
        )
    caps = [res.capacity for res in scanned]
    seeds = [res.dist.locations for res in scanned]

    q_star, cap_star, best_seed = None, -math.inf, None
    top = max(caps)
    for i, cap in enumerate(caps):
        left = caps[i - 1] if i > 0 else -math.inf
        right = caps[i + 1] if i + 1 < len(caps) else -math.inf
        if cap < top - _PEAK_WINDOW or cap < left or cap < right:
            continue
        lo = qs[i - 1] if i > 0 else 0.5 * qs[0]
        hi = qs[i + 1] if i + 1 < len(qs) else qs[i] + step
        q_peak, neg_peak = _bounded_brent(
            lambda q: -_solve([q], power, noise_variance, tol, seeds[i]).capacity,
            lo,
            hi,
            1e-3 * scale,
        )
        cap_peak = -neg_peak
        if cap >= cap_peak:
            q_peak, cap_peak = qs[i], cap
        if cap_peak > cap_star:
            q_star, cap_star, best_seed = q_peak, cap_peak, seeds[i]

    final = _solve([q_star], power, noise_variance, tol, best_seed, grid=None)
    quant = Quantizer(tuple(_thresholds([q_star])))
    return JointResult(quantizer=quant, capacity_result=final, trace=(final.capacity,))


def two_bit_threshold_curve(snr: float, noise_variance: float) -> list:
    """(q, capacity) pairs of the symmetric 2-bit quantizer {-q, 0, q}.

    200 equispaced q over (0, 4 max(sqrt(P), sigma)], with no extension
    and no refinement; each input solve runs on the scan grid at the
    optimizers' default tolerance, seeded with the previous support.
    """
    _check_snr(snr)
    power = snr * noise_variance
    scale = max(math.sqrt(power), math.sqrt(noise_variance))
    qs = np.linspace(0.0, _CURVE_SPAN * scale, _CURVE_POINTS + 1)[1:].tolist()
    solves = _warm_solves(qs, power, noise_variance, _DEFAULT_TOL)
    return [(q, res.capacity) for q, res in zip(qs, solves)]


def _newton_step(grad, hess, held, at_floor):
    """Newton step of ascent on the gaps from MI's gradient and Hessian
    there, zero on the `held` gaps and on each gap `at_floor` that it would
    shrink.  Where minus the Hessian over the m other gaps is not positive
    definite past rounding (lambda_min <= m eps rho, with rho its largest
    |lambda|), it is shifted by -lambda_min + 1e-3 rho, relative to its own
    scale: far in the tails (40 dB) the curvature is below 1e-3 bits per
    sigma^2."""
    while True:
        free = ~held
        a = -hess[np.ix_(free, free)]
        lo, hi = np.linalg.eigvalsh(a)[[0, -1]]
        scale = max(-lo, hi)
        if lo <= a.shape[0] * _EPS * scale:
            a[np.diag_indices_from(a)] += 1e-3 * scale - lo
        step = np.zeros(grad.size)
        step[free] = np.linalg.solve(a, grad[free])
        shrink = at_floor & (step < 0.0)
        if not np.any(shrink):
            return step
        held = held | shrink


def _threshold_step(dist: InputDistribution, halves, sigma):
    """Damped Newton ascent of MI over the positive half-thresholds h.

    The input is fixed.  Newton runs on the gaps h_1, h_2 - h_1, ... in
    units of sigma, each kept >= _MIN_GAP, so every iterate keeps the order
    0 < h_1 < h_2 < ....  Each evaluation forms the support's profile once
    (`channel._profile`), for MI and its exact gradient (minus the
    mass-weighted column sums of the profile's flow) and Hessian
    (`_threshold_hessian_bits`), carried onto the gaps by q_{+i} = h_i and
    q_{-i} = -h_i.  A gap at its floor is held there where the gradient or
    the Newton step would shrink it (`_newton_step`).
    The step is cut to keep every gap at or above its floor, then halved, at
    most _STEP_HALVINGS times, until it gains 1e-4 of its predicted gain; a
    step whose predicted gain is below MI's rounding, _STEP_ROUNDING bits,
    is taken if it loses no more than that.  The ascent stops when no free
    gap has |dMI/d gap| above _STEP_GTOL bits per sigma, when no halving
    gains, or after _STEP_MAX_ITER steps.  A result below the start returns
    the start.
    """
    locs = dist.locations
    masses = dist.masses
    halves = np.asarray(halves, dtype=float)
    n = halves.size
    # dq/d gaps: q_{+i} = h_i, q_{-i} = -h_i and h = sigma * cumsum(gaps)
    fold = np.zeros((2 * n + 1, n))
    fold[n + 1:] = sigma * np.tri(n)
    fold[:n] = -fold[:n:-1]

    def evaluate(h):
        """(MI, dMI/d gaps, d2MI/d gaps2) at the half-thresholds h."""
        prof = _profile(locs, masses, _thresholds(h), sigma)
        hess = _threshold_hessian_bits(prof, sigma)
        return prof.rate, -(masses @ prof.flow) @ fold, fold.T @ hess @ fold

    h, gaps = halves, np.diff(halves, prepend=0.0) / sigma
    mi, grad, hess = start = evaluate(h)
    for _ in range(_STEP_MAX_ITER):
        at_floor = gaps <= _MIN_GAP
        held = at_floor & (grad <= 0.0)
        if np.all(np.abs(grad[~held]) <= _STEP_GTOL):
            break
        step = _newton_step(grad, hess, held, at_floor)
        falling = step < 0.0
        cut = float(np.min((gaps[falling] - _MIN_GAP) / -step[falling], initial=1.0))
        gain = float(grad @ step)
        for halving in range(_STEP_HALVINGS + 1):
            t = cut * 0.5**halving
            trial_gaps = np.maximum(gaps + t * step, _MIN_GAP)
            trial_h = sigma * np.cumsum(trial_gaps)
            trial = evaluate(trial_h)
            rise = trial[0] - mi
            if rise >= 1e-4 * t * gain or (t * gain <= _STEP_ROUNDING and rise >= -_STEP_ROUNDING):
                break
        else:
            break
        h, gaps, (mi, grad, hess) = trial_h, trial_gaps, trial
    if not mi >= start[0]:
        return halves
    return h


def optimize_quantizer_3bit_iterative(
    snr: float,
    *,
    noise_variance: float = 1.0,
    tol: float = _DEFAULT_TOL,
) -> JointResult:
    """Alternating input/threshold optimization for symmetric 3-bit quantizers.

    Starting from the benchmark quantizer, repeats: optimize the input at the
    current quantizer, then raise the mutual information at that fixed input
    over the three positive thresholds by damped Newton on their ordered
    gaps, with the exact threshold gradient and Hessian, until its gradient
    over the gaps not held at their floor is at most 1e-9 bits per sigma
    (`_threshold_step`).  Stops when one round gains
    less than 1e-4 bits.  Each input solve is seeded with the previous
    support.  A round whose capacity falls below
    the previous round's is discarded with its quantizer and ends the
    alternation, so the trace is nondecreasing and the final solve uses the
    best round's quantizer.
    """
    _check_snr(snr)
    sigma = math.sqrt(noise_variance)
    power = snr * noise_variance
    halves = np.asarray(BenchmarkScheme.build(8, snr, noise_variance).quantizer.thresholds[4:])

    trace = []
    seed = None
    for _ in range(_MAX_OUTER):
        res = _solve(halves, power, noise_variance, tol, seed)
        if trace and res.capacity < trace[-1]:
            # Each inner solve is certified only to `tol` and is seeded with a
            # grid-snapped support, so a round can lose up to about `tol`:
            # discard it and keep the previous round's quantizer and seed.
            halves, seed = prev_halves, prev_seed
            break
        trace.append(res.capacity)
        seed = res.dist.locations
        if len(trace) >= 2 and trace[-1] - trace[-2] < _MIN_ROUND_GAIN:
            break
        prev_halves, prev_seed = halves, seed
        halves = _threshold_step(res.dist, halves, sigma)

    final = _solve(halves, power, noise_variance, tol, seed, grid=None)
    quant = Quantizer(tuple(_thresholds(halves)))
    return JointResult(quantizer=quant, capacity_result=final, trace=tuple(trace))


def optimize_quantizer(
    snr: float,
    bins: int,
    *,
    noise_variance: float = 1.0,
    tol: float = _DEFAULT_TOL,
) -> JointResult:
    """Jointly optimized symmetric quantizer with `bins` bins, 4 or 8, and
    its optimized input at one SNR: the 2-bit threshold scan
    (`optimize_quantizer_2bit`) or the 3-bit alternation
    (`optimize_quantizer_3bit_iterative`).  Each search is looked up by its
    module name when called, so a wrapper set on that name is used."""
    if bins == 4:
        search = optimize_quantizer_2bit
    elif bins == 8:
        search = optimize_quantizer_3bit_iterative
    else:
        raise ValueError(f"joint search bin count must be 4 or 8, got {bins!r}")
    return search(snr, noise_variance=noise_variance, tol=tol)


def unquantized_capacity(snr: float) -> float:
    """Real-AWGN capacity 0.5 log2(1 + snr) bits per channel use."""
    if not math.isfinite(snr) or snr < 0.0:
        raise ValueError(f"snr must be finite and >= 0, got {snr!r}")
    return 0.5 * math.log2(1.0 + snr)


# The inversion's accuracy in dB (the 0.005-dB root tolerance of the
# interpolating root finder it replaced) and its evaluation cap.
_DB_TOL = 0.005
_MAX_EVALUATIONS = 30


def snr_for_spectral_efficiency(
    target_bits: float, capacity_and_gamma, supremum: float | None = None
) -> float | None:
    """SNR in dB at which a capacity reaches `target_bits`, or None.

    `capacity_and_gamma(snr_db)` returns the capacity C in bits and its slope
    dC/dP in bits per unit power.  A cutting-plane solve supplies that slope
    for free: C(P) = min over gamma >= 0 of max_F [I(F) - gamma (E[X^2] - P)],
    so by the envelope theorem dC/dP is the minimizing multiplier gamma*,
    `CapacityResult.gamma`.  `supremum` is a rate ceiling that the curve
    approaches but never attains (log2 of the bin count); a target at or
    above it returns None, the blank cells of a fixed-rate comparison.

    Newton steps run in linear power, P <- P + (R - C)/gamma, from the
    unquantized inverse 10 log10(2^(2R) - 1).  No quantized capacity exceeds
    the unquantized one, so the start is a lower end (C < R) of a bracket
    whose upper end has C >= R.  A joint capacity is a maximum over
    quantizers, and where the optimum jumps between branches gamma* is not
    its slope, so a Newton step can overshoot or cycle.  A step that leaves
    the bracket, or a zero slope, is therefore replaced by bisection in dB,
    and, while one end is still unknown, by a 1-dB step towards it.  The
    solve stops when |R - C| <= 0.005 dB x dC/d(dB), with dC/d(dB) =
    gamma P ln(10)/10, or when the bracket is narrower than 0.01 dB; the
    latter returns the bracket's upper end, the lowest SNR seen that reaches
    the target.  Iterates are rounded to 1e-6 dB, so the SNR returned is
    the one evaluated.  Raises RuntimeError after 30 evaluations.
    """
    if not math.isfinite(target_bits) or target_bits <= 0.0:
        raise ValueError(f"target_bits must be finite and > 0, got {target_bits!r}")
    if supremum is not None and target_bits >= supremum - 1e-9:
        return None
    lo = hi = None
    db = 10.0 * math.log10(2.0 ** (2.0 * target_bits) - 1.0)
    for _ in range(_MAX_EVALUATIONS):
        db = round(db, 6)
        cap, gamma = capacity_and_gamma(db)
        power = 10.0 ** (db / 10.0)
        if abs(target_bits - cap) <= _DB_TOL * gamma * power * math.log(10.0) / 10.0:
            return db
        if cap < target_bits:
            lo = db
        else:
            hi = db
        if lo is not None and hi is not None and hi - lo < 2.0 * _DB_TOL:
            return hi
        step = power + (target_bits - cap) / gamma if gamma > 0.0 else math.nan
        db = 10.0 * math.log10(step) if step > 0.0 else math.nan
        if hi is None:
            if not round(db, 6) > lo:
                db = lo + 1.0
        elif lo is None:
            if not round(db, 6) < hi:
                db = hi - 1.0
        elif not lo < round(db, 6) < hi:
            db = 0.5 * (lo + hi)
    raise RuntimeError(
        f"no SNR for {target_bits!r} bits within {_MAX_EVALUATIONS} evaluations "
        f"(bracket {lo!r}..{hi!r} dB)"
    )
