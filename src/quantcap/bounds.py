"""Duality upper bounds on capacity from a fixed output distribution.

For any output pmf R and any gamma >= 0,

    capacity <= sup_x [ D(W(.|x) || R) + gamma * (P - x^2) ],

so minimizing the right-hand side over gamma >= 0 gives a valid upper
bound for each candidate R.  On a fixed x-grid the objective is a maximum
of finitely many affine functions of gamma — piecewise-linear and convex —
and the minimum is found exactly by locating the breakpoint where the
active slope changes sign (`minimize_max_affine`; the cutting plane
certifies its gap with it too).  `divergence_to_output` is D(W(.|x) || R).

The resulting bound is a convex function of R (the divergence is convex in
R, the objective is jointly convex in (R, gamma), and a partial minimum of a
jointly convex function is convex), so the best symmetric R is found by a
local search: a bounded Brent search over the one free mass for K=4 and
Nelder-Mead from the uniform output for K=8.  The value returned for the
chosen R is re-certified over continuous x.  `check_bound_quantizer`
states which quantizers the search takes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .channel import (
    ChannelSpec,
    OutputPmf,
    bin_probability_matrix,
    _divergences_bits,
    _row_negentropy_bits,
)

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


def _symmetric_half_grid(spec: ChannelSpec, point_count: int):
    hi = spec.quantizer.thresholds[-1] + 5.0 * spec.sigma
    return np.linspace(0.0, hi, point_count)


def _certified_symmetric_bound(spec: ChannelSpec, out: OutputPmf) -> float:
    """Continuum-valid duality value for a fixed symmetric output pmf.

    Any gamma >= 0 certifies a bound as long as the inner sup over x is
    airtight, so the envelope minimum only picks gamma; the sup is then
    re-taken over continuous x by polishing every near-maximal grid peak.
    At gamma = 0 the inner sup includes the saturation limit -log2(R_edge)
    approached as |x| grows, which no finite grid reaches.
    """
    xs = _symmetric_half_grid(spec, 4001)
    d = divergence_to_output(xs, out, spec)
    power = spec.power_constraint
    env = minimize_max_affine(d, power - xs**2)
    gamma = env.gamma

    prof = d + gamma * (power - xs**2)
    best = float(np.max(prof))
    last = xs.size - 1

    def negated(x):
        return -(
            divergence_to_output(float(x), out, spec) + gamma * (power - x * x)
        )

    for i in range(xs.size):
        if prof[i] < best - 1e-6:
            continue
        if (i > 0 and prof[i] < prof[i - 1]) or (i < last and prof[i] < prof[i + 1]):
            continue
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, last)]
        res = minimize_scalar(
            negated, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
        )
        best = max(best, float(-res.fun))

    if gamma == 0.0:
        tail = float(-np.log2(min(out.probs[0], out.probs[-1])))
        best = max(best, tail)
    return best


_BOUND_BINS = (2, 4, 8)


def check_bound_quantizer(quantizer) -> None:
    """Raise ValueError unless `best_symmetric_bound` accepts the quantizer:
    symmetric thresholds and a bin count K in _BOUND_BINS."""
    if not quantizer.is_symmetric():
        raise ValueError("the symmetric duality bound requires a symmetric quantizer")
    if quantizer.bins not in _BOUND_BINS:
        raise ValueError(
            f"the symmetric duality bound supports K in {_BOUND_BINS}, "
            f"got K={quantizer.bins}"
        )


def best_symmetric_bound(spec: ChannelSpec):
    """Best duality bound over symmetric output pmfs for a symmetric quantizer.

    Returns (bound, output pmf).  The objective

        F(R) = min_{gamma >= 0} max_x [ D(W(.|x) || R) + gamma (P - x^2) ]

    is convex in R: D(W(.|x) || R) is convex in R, adding gamma (P - x^2)
    keeps it jointly convex in (R, gamma), a pointwise max over x preserves
    that, and minimizing a jointly convex function over gamma leaves a
    convex function of R.  Restricted to the affine family of symmetric
    pmfs it stays convex, so every local minimum there is the global one.

    K=2 has a single symmetric output.  K=4 has one free parameter, the
    inner-bin mass alpha in R = (1/2 - alpha, alpha, alpha, 1/2 - alpha);
    a bounded Brent search runs over the open interval (0, 1/2), at whose
    ends some bin mass vanishes and F grows without bound, so the minimum
    is interior.  K=8 has three free masses, found by Nelder-Mead from the
    uniform output; other K raise ValueError.  For symmetric outputs the
    divergence profile is even in x, so the search grids only cover [0, max
    threshold + 5 sigma].  The returned value re-takes the inner sup over
    continuous x for the chosen pmf, so it stays a true bound whatever the
    search returns.
    """
    quant = spec.quantizer
    check_bound_quantizer(quant)
    k = quant.bins
    power = spec.power_constraint

    if k == 2:
        out = OutputPmf(np.array([0.5, 0.5]))
        return _certified_symmetric_bound(spec, out), out

    xs = _symmetric_half_grid(spec, 4001 if k == 4 else 2001)
    w = bin_probability_matrix(xs, quant.thresholds, spec.sigma)
    negent = _row_negentropy_bits(w)
    slopes = power - xs**2

    def bound_for_half(h):
        # h: probabilities of bins 1..K/2 (outermost first), summing to 1/2
        d = _divergences_bits(w, negent, np.concatenate([h, h[::-1]]))
        return minimize_max_affine(d, slopes).value

    if k == 4:
        res = minimize_scalar(
            lambda a: bound_for_half(np.array([0.5 - a, a])),
            bounds=(0.0, 0.5),
            method="bounded",
            options={"xatol": 1e-10},
        )
        alpha = float(res.x)
        out = OutputPmf(np.array([0.5 - alpha, alpha, alpha, 0.5 - alpha]))
        return _certified_symmetric_bound(spec, out), out

    def objective(v):
        h = np.append(v, 0.5 - v.sum())
        if h.min() <= 1e-9:
            return 1e6
        return bound_for_half(h)

    res = minimize(
        objective,
        np.full(3, 0.125),
        method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 600},
    )
    h = np.append(res.x, 0.5 - res.x.sum())
    out = OutputPmf(np.concatenate([h, h[::-1]]))
    return _certified_symmetric_bound(spec, out), out
