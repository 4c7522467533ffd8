"""Duality upper bounds on capacity from a fixed output distribution.

For any output pmf R and any gamma >= 0,

    capacity <= sup_x [ D(W(.|x) || R) + gamma * (P - x^2) ],

so minimizing the right-hand side over gamma >= 0 gives a valid upper
bound for each candidate R.  On a fixed x-grid the objective is a maximum
of finitely many affine functions of gamma — piecewise-linear and convex —
and the minimum is found exactly by locating the breakpoint where the
active slope changes sign (`minimize_max_affine`; the cutting plane
certifies its gap with it too).  `divergence_to_output` is D(W(.|x) || R).

The tightest R is the optimal input's output law, so the one bound path,
`optimize.duality_upper_bound`, polishes the capacity solve's own support
over continuous x; `_certified_bound` here certifies that input's output
law, for any quantizer and any R.  It picks gamma on a grid, then re-takes
the sup over continuous x at every grid peak at once (`_polish_peaks`): the
grid is re-laid, finer each round, over the two steps around every peak.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelSpec,
    OutputPmf,
    bin_probability_matrix,
    _divergences_bits,
    _row_negentropy_bits,
)
from .special import gaussian_q

_ACTIVE_RTOL = 1e-12
_FLAT_SLOPE = np.finfo(float).eps ** 2
_MAX_ROUNDS = 500


class EnvelopeMinimum(NamedTuple):
    gamma: float
    value: float


def minimize_max_affine(intercepts, slopes) -> EnvelopeMinimum:
    """Exact minimum over gamma >= 0 of max_i(intercepts[i] + slopes[i]*gamma).

    The upper envelope of affine functions is convex; its minimizer over the
    half-line is either gamma = 0 or the breakpoint where the active slope
    turns nonnegative.  The breakpoint is located by bisecting on the sign
    of the active slopes and closed exactly by intersecting the two active
    lines, verified against the whole family.
    """
    d = np.asarray(intercepts, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if d.ndim != 1 or d.size == 0 or d.shape != s.shape:
        raise ValueError("intercepts and slopes must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(s))):
        raise ValueError("intercepts and slopes must be finite")

    def probe(g):
        vals = d + s * g
        m = float(np.max(vals))
        atol = _ACTIVE_RTOL * max(1.0, abs(m)) + 1e-300
        active = vals >= m - atol
        return m, active

    m0, act0 = probe(0.0)
    if float(np.max(s[act0])) >= 0.0:
        return EnvelopeMinimum(0.0, m0)
    if float(np.max(s)) <= 0.0:
        return _degenerate_minimum(
            d, s, "envelope is decreasing for all gamma; minimum not attained"
        )

    # expand hi until the envelope stops decreasing there
    lo, hi = 0.0, 1.0
    idx0 = np.flatnonzero(act0)
    line_lo = int(idx0[np.argmax(s[idx0])])  # steepest active line at lo
    line_hi = None
    for _ in range(200):
        m_hi, act_hi = probe(hi)
        idx = np.flatnonzero(act_hi)
        smax = float(np.max(s[idx]))
        smin = float(np.min(s[idx]))
        if smax < 0.0:  # still strictly decreasing at hi
            lo = hi
            line_lo = int(idx[np.argmax(s[idx])])
            hi *= 4.0
            continue
        if smin <= 0.0:  # zero sits in the subgradient: hi is the minimizer
            return EnvelopeMinimum(hi, m_hi)
        line_hi = int(idx[np.argmin(s[idx])])
        break
    if line_hi is None:
        return _degenerate_minimum(d, s, "failed to bracket the envelope minimum")

    for _ in range(_MAX_ROUNDS):
        sa, sb = s[line_lo], s[line_hi]
        da, db = d[line_lo], d[line_hi]
        if sb <= sa:
            break  # degenerate; fall through to the probe result below
        g_x = (da - db) / (sb - sa)
        g_x = min(max(g_x, lo), hi)
        m_x, act_x = probe(g_x)
        pair_val = da + sa * g_x
        atol = _ACTIVE_RTOL * max(1.0, abs(m_x))
        if m_x <= pair_val + atol:
            return EnvelopeMinimum(float(g_x), m_x)
        # a third line is strictly above the candidate pair at g_x
        idx = np.flatnonzero(act_x)
        smax = float(np.max(s[idx]))
        smin = float(np.min(s[idx]))
        if smin <= 0.0 <= smax:
            return EnvelopeMinimum(float(g_x), m_x)
        if smax < 0.0:
            lo = g_x
            line_lo = int(idx[np.argmax(s[idx])])
        else:
            hi = g_x
            line_hi = int(idx[np.argmin(s[idx])])
    m_f, _ = probe(lo)
    return EnvelopeMinimum(float(lo), m_f)


def _degenerate_minimum(d, s, reason):
    """Envelope minimum when no line rises, or when bracketing fails.

    A slope this small moves its line by less than a rounding unit of the
    intercepts for every gamma up to 1/eps, so such slopes are taken as flat
    and the search reruns.  With no rising line, the envelope falls until
    every falling line is below the highest flat one, and stays there.
    """
    tiny = (s != 0.0) & (np.abs(s) <= _FLAT_SLOPE * max(1.0, float(np.max(np.abs(d)))))
    if np.any(tiny):
        return minimize_max_affine(d, np.where(tiny, 0.0, s))
    flat = s == 0.0
    if float(np.max(s)) <= 0.0 and np.any(flat):
        floor = float(np.max(d[flat]))
        g = float(np.max((d[~flat] - floor) / -s[~flat]))
        return EnvelopeMinimum(g, float(np.max(d + s * g)))
    raise ValueError(reason)


def divergence_to_output(x, output: OutputPmf, spec: ChannelSpec):
    """KL divergence in bits from W(.|x) to an arbitrary positive output pmf."""
    if np.any(output.probs <= 0.0):
        raise ValueError("output pmf must be strictly positive")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"divergence_to_output: non-finite input {x!r}")
    w = bin_probability_matrix(arr, spec.quantizer.thresholds, spec.sigma)
    rows = _divergences_bits(w, _row_negentropy_bits(w), output.probs)
    if arr.ndim == 0:
        return float(rows[0])
    return rows


#: points of the grid that `_certified_bound` scans, and its padding in
#: sigmas past the outer thresholds and past 0
_CERT_POINTS = 8001
_CERT_PAD = 10.0


def _certified_bound(spec: ChannelSpec, out: OutputPmf) -> float:
    """Duality value for a fixed output pmf, valid over continuous x.

    Any gamma >= 0 certifies a bound if the inner sup over x is airtight, so
    the envelope minimum on a grid only picks gamma; the sup is re-taken
    over continuous x by polishing every grid peak between its two grid
    neighbours, all peaks together in rounds of finer grids (`_polish_peaks`)
    down to a step of _POLISH_XTOL; the best value it evaluates counts, so a
    polished peak never falls below its grid value.  Past the grid ends a
    row leaves at most eps = Q(_CERT_PAD) of its mass outside the edge bin
    e, so D(W(.|x) || R) <= -log2 R_e - eps log2 min R there, while gamma (P
    - x^2) only falls; at gamma = 0 these tails are the saturation limits
    -log2 R_0 and -log2 R_{K-1}, which no finite grid reaches.
    """
    thr, sigma, power = spec.quantizer.thresholds, spec.sigma, spec.power_constraint
    lo = min(thr[0], 0.0) - _CERT_PAD * sigma
    hi = max(thr[-1], 0.0) + _CERT_PAD * sigma
    xs = np.linspace(lo, hi, _CERT_POINTS)
    d = divergence_to_output(xs, out, spec)
    gamma = minimize_max_affine(d, power - xs**2).gamma
    prof = d + gamma * (power - xs**2)
    best = float(np.max(prof))
    # a peak rises above a neighbour by more than rounding: past the outer
    # thresholds the profile saturates to a plateau of rounding noise
    padded = np.concatenate(([-np.inf], prof, [-np.inf]))
    low, high = np.minimum(padded[:-2], padded[2:]), np.maximum(padded[:-2], padded[2:])
    peaks = np.flatnonzero((prof >= high) & (prof > low + 1e-15 * max(1.0, abs(best))))
    if peaks.size:
        brackets = xs[np.maximum(peaks - 1, 0)], xs[np.minimum(peaks + 1, xs.size - 1)]
        best = max(best, _polish_peaks(spec, out, gamma, *brackets))
    log_r = -np.log2(out.probs)
    spill = gaussian_q(_CERT_PAD) * float(np.max(log_r))
    for edge, x in ((0, lo), (-1, hi)):
        best = max(best, float(log_r[edge]) + spill + gamma * (power - x * x))
    return best


#: the polish lays _POLISH_POINTS points over each bracket per round, until
#: their step is at most _POLISH_XTOL
_POLISH_POINTS = 33
_POLISH_XTOL = 1e-10


def _polish_peaks(spec: ChannelSpec, out: OutputPmf, gamma, a, b) -> float:
    """Highest tilted profile D(W(.|x) || R) + gamma (P - x^2) found in the
    brackets [a[j], b[j]], all polished at once.

    Each round lays _POLISH_POINTS evenly spaced points over every bracket,
    its ends included, and narrows the bracket to the two steps around its
    highest point, as the certificate grid found the peaks; a bracket
    shrinks (_POLISH_POINTS - 1) / 2-fold per round.  Every value evaluated
    counts, so the result is never below the brackets' ends.
    """
    thr, sigma, power, r = spec.quantizer.thresholds, spec.sigma, spec.power_constraint, out.probs
    t = np.linspace(0.0, 1.0, _POLISH_POINTS)
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None]
    rows = np.arange(a.shape[0])[:, None]
    step = float(np.max(b - a)) / (_POLISH_POINTS - 1)
    best = -np.inf
    while True:
        x = a * (1.0 - t) + b * t  # exact at both ends
        w = bin_probability_matrix(x.ravel(), thr, sigma)
        prof = _divergences_bits(w, _row_negentropy_bits(w), r).reshape(x.shape)
        prof += gamma * (power - x * x)
        best = max(best, float(np.max(prof)))
        if step <= _POLISH_XTOL:
            return best
        top = np.argmax(prof, axis=1)[:, None]
        a = x[rows, np.maximum(top - 1, 0)]
        b = x[rows, np.minimum(top + 1, _POLISH_POINTS - 1)]
        step *= 2.0 / (_POLISH_POINTS - 1)
