"""Joint quantizer/input optimization and the uniform-PAM benchmark.

Three layers:

* the benchmark scheme (equiprobable equispaced PAM with mid-point
  thresholds), whose mutual information, symbol error rate, and Fano floor
  have closed or near-closed forms;
* a 12-point scan over (0, 2 max(sqrt(P), sigma)] of the single free
  threshold q of a symmetric 2-bit quantizer, refined at its near-best
  peaks by scipy's bounded Brent search, the capacity curve C(q) over
  twice that span, and for 3-bit an alternation of input solves with a
  quasi-Newton threshold step on the exact gradient at the fixed input;
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
    bin_probability_matrix,
    mutual_information,
    _flow_bits,
    _mass_point,
    _row_negentropy_bits,
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
# in units of sigma, and its L-BFGS-B settings.
_MIN_GAP = 1e-6
_STEP_OPTIONS = {"ftol": 0.0, "gtol": 1e-9, "maxiter": 200}


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


def _solve_q(q, power, noise_variance, tol, seed):
    """Input solve of the symmetric 2-bit quantizer {-q, 0, q} on the scan grid."""
    spec = ChannelSpec(noise_variance, power, Quantizer((-q, 0.0, q)))
    return optimize_input_cutting_plane(
        spec, grid=_SCAN_GRID, tol=tol, initial_support=seed
    )


def _warm_solves(qs, power, noise_variance, tol, seed=None):
    """_solve_q at each q in turn, each seeded with the previous support."""
    for q in qs:
        res = _solve_q(q, power, noise_variance, tol, seed)
        seed = res.dist.locations
        yield res


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
    is refined by scipy's bounded Brent search (golden section with
    parabolic steps) on its bracket of scan neighbours, with xatol
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

    # imported here: the capacity path must not load scipy.optimize
    from scipy.optimize import minimize_scalar

    q_star, cap_star, best_seed = None, -math.inf, None
    top = max(caps)
    for i, cap in enumerate(caps):
        left = caps[i - 1] if i > 0 else -math.inf
        right = caps[i + 1] if i + 1 < len(caps) else -math.inf
        if cap < top - _PEAK_WINDOW or cap < left or cap < right:
            continue
        lo = qs[i - 1] if i > 0 else 0.5 * qs[0]
        hi = qs[i + 1] if i + 1 < len(qs) else qs[i] + step
        peak = minimize_scalar(
            lambda q: -_solve_q(q, power, noise_variance, tol, seeds[i]).capacity,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-3 * scale},
        )
        q_peak, cap_peak = peak.x, -peak.fun
        if cap >= cap_peak:
            q_peak, cap_peak = qs[i], cap
        if cap_peak > cap_star:
            q_star, cap_star, best_seed = q_peak, cap_peak, seeds[i]

    spec = ChannelSpec(noise_variance, power, Quantizer((-q_star, 0.0, q_star)))
    final = optimize_input_cutting_plane(spec, tol=tol, initial_support=best_seed)
    return JointResult(
        quantizer=spec.quantizer, capacity_result=final, trace=(final.capacity,)
    )


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


def _threshold_step(dist: InputDistribution, halves, sigma):
    """Quasi-Newton ascent of MI over the positive half-thresholds h.

    The input is fixed.  L-BFGS-B runs on the gaps h_1, h_2 - h_1, ... in
    units of sigma, bounded below by _MIN_GAP, so every iterate keeps the
    order 0 < h_1 < h_2 < ...; each evaluation builds the transition rows
    on the support once and takes the exact gradient, minus the
    mass-weighted column sums of _flow_bits.  A result below the start
    returns the start.
    """
    locs = dist.locations
    masses = dist.masses
    halves = np.asarray(halves, dtype=float)
    n = halves.size

    def mi_and_grad(h):
        thr = np.concatenate([-h[::-1], [0.0], h])
        w = bin_probability_matrix(locs, thr, sigma)
        r, _, mi = _mass_point(masses, w, _row_negentropy_bits(w))
        grad = -(masses @ _flow_bits(locs, thr, sigma, w, r))
        # q_{+i} = h_i and q_{-i} = -h_i
        return mi, grad[n + 1:] - grad[n - 1::-1]

    def neg_mi(gaps):
        # h_i is the sum of the first i gaps
        mi, dh = mi_and_grad(sigma * np.cumsum(gaps))
        return -mi, -sigma * np.cumsum(dh[::-1])[::-1]

    # imported here: the capacity path must not load scipy.optimize
    from scipy.optimize import minimize

    res = minimize(
        neg_mi,
        np.diff(halves, prepend=0.0) / sigma,
        jac=True,
        method="L-BFGS-B",
        bounds=[(_MIN_GAP, None)] * n,
        options=_STEP_OPTIONS,
    )
    # res.fun was evaluated at exactly these thresholds
    if not -res.fun >= mi_and_grad(halves)[0]:
        return halves
    return sigma * np.cumsum(res.x)


def optimize_quantizer_3bit_iterative(
    snr: float,
    *,
    noise_variance: float = 1.0,
    tol: float = _DEFAULT_TOL,
) -> JointResult:
    """Alternating input/threshold optimization for symmetric 3-bit quantizers.

    Starting from the benchmark quantizer, repeats: optimize the input at the
    current quantizer, then raise the mutual information at that fixed input
    over the three positive thresholds by L-BFGS-B on their ordered gaps,
    with the exact threshold gradient, until its projected gradient is below
    1e-9 bits per sigma (`_threshold_step`).  Stops when one round gains
    less than 1e-4 bits.  Each input solve is seeded with the previous
    support.  A round whose capacity falls below
    the previous round's is discarded with its quantizer and ends the
    alternation, so the trace is nondecreasing and the final solve uses the
    best round's quantizer.
    """
    _check_snr(snr)
    sigma = math.sqrt(noise_variance)
    power = snr * noise_variance
    quant = BenchmarkScheme.build(8, snr, noise_variance).quantizer
    halves = np.asarray(quant.thresholds[4:])

    trace = []
    seed = None
    for _ in range(_MAX_OUTER):
        spec = ChannelSpec(noise_variance, power, quant)
        res = optimize_input_cutting_plane(
            spec, grid=_SCAN_GRID, tol=tol, initial_support=seed
        )
        if trace and res.capacity < trace[-1]:
            # Each inner solve is certified only to `tol` and is seeded with a
            # grid-snapped support, so a round can lose up to about `tol`:
            # discard it and keep the previous round's quantizer and seed.
            quant, seed = prev_quant, prev_seed
            break
        trace.append(res.capacity)
        seed = res.dist.locations
        if len(trace) >= 2 and trace[-1] - trace[-2] < _MIN_ROUND_GAIN:
            break
        prev_quant, prev_seed = quant, seed
        halves = _threshold_step(res.dist, halves, sigma)
        quant = Quantizer(tuple(np.concatenate([-halves[::-1], [0.0], halves])))

    spec = ChannelSpec(noise_variance, power, quant)
    final = optimize_input_cutting_plane(spec, tol=tol, initial_support=seed)
    return JointResult(quantizer=quant, capacity_result=final, trace=tuple(trace))


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
